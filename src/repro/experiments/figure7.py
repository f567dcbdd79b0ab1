"""Figure 7 — FPSMA versus EGS under the PRA approach (no shrinking).

The paper runs the four combinations {FPSMA, EGS} x {Wm, Wmr} with the
Worst-Fit placement policy and reports six panels:

(a) CDF of the per-job time-averaged processor count,
(b) CDF of the per-job maximum processor count,
(c) CDF of the execution times,
(d) CDF of the response times,
(e) utilization (busy processors) over time,
(f) cumulative number of grow messages over time.

The qualitative findings this reproduction must match: EGS gives jobs larger
average and maximum sizes than FPSMA; the all-malleable workload Wm achieves
shorter execution/response times and higher utilization than the mixed
workload Wmr; and the number of grow messages is much higher for EGS and for
Wm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.experiments.setup import ExperimentResult
from repro.metrics.asciiplot import cdf_plot
from repro.metrics.reports import cdf_probe_table, comparison_table, summary_table

#: The policy/workload combinations of Figure 7, in the paper's legend order.
FIGURE7_COMBINATIONS = (
    ("FPSMA", "Wm"),
    ("FPSMA", "Wmr"),
    ("EGS", "Wm"),
    ("EGS", "Wmr"),
)

#: Panels (a)-(d) of Figures 7 and 8: the per-job CDF each one probes and
#: what its rows count.
_CDF_PANELS = {
    "a": ("average_allocation", "average processors <= x"),
    "b": ("maximum_allocation", "maximum processors <= x"),
    "c": ("execution_time", "execution time <= x seconds"),
    "d": ("response_time", "response time <= x seconds"),
}


@dataclass(frozen=True)
class SixPanels:
    """What differs between the six-panel reports of Figures 7 and 8.

    ``probes`` holds the x probes of panels (a)-(d).  ``plot`` is the letter
    of the CDF panel that is also drawn as a plot.  ``activity`` names the
    :class:`~repro.metrics.collector.ExperimentMetrics` method whose
    cumulative ``(times, counts)`` series panel (f) samples.
    """

    figure: int
    approach: str
    probes: Tuple[Sequence[float], ...]
    plot: str
    plot_caption: str
    plot_x_label: str
    activity: str
    activity_caption: str


#: Figure 7's panels, rendered by :func:`six_panel_report`.
FIGURE7_PANELS = SixPanels(
    figure=7,
    approach="PRA",
    probes=(
        (2, 5, 10, 15, 20, 25, 30),
        (2, 4, 8, 16, 24, 32, 40, 46),
        (60, 120, 200, 300, 400, 600, 800, 1200),
        (60, 120, 200, 300, 400, 600, 800, 1200),
    ),
    plot="c",
    plot_caption="execution time CDFs",
    plot_x_label="execution time (s)",
    activity="cumulative_grow_messages",
    activity_caption="grow messages",
)


def six_panel_report(results: Dict[str, ExperimentResult], *, panels: SixPanels) -> str:
    """Plain-text rendering of all six panels of Figure 7 or Figure 8."""
    metrics = {label: result.metrics for label, result in results.items()}
    figure = f"Figure {panels.figure}"
    sections = [summary_table(metrics, title=f"{figure} - summary ({panels.approach} approach)")]
    for (panel, (metric, rows)), probes in zip(_CDF_PANELS.items(), panels.probes):
        sections.append(
            cdf_probe_table(
                metrics, metric, probes=probes, title=f"{figure}({panel}) - % of jobs with {rows}"
            )
        )
    plotted = _CDF_PANELS[panels.plot][0]
    sections.append(
        cdf_plot(
            {label: getattr(m, f"{plotted}_cdf")() for label, m in metrics.items()},
            title=f"{figure}({panels.plot}) as a plot - {panels.plot_caption}",
            x_label=panels.plot_x_label,
        )
    )

    # Panels (e) and (f): time series sampled over the span of the runs.
    horizon = max((result.workload_duration for result in results.values()), default=0.0)
    window_end = max(horizon, 1.0)
    fractions = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0)
    probes = [window_end * frac for frac in fractions]
    utilization = {
        label: [
            m.utilization_over(0.0, window_end, samples=200)[1][min(int(frac * 199), 199)]
            for frac in fractions
        ]
        for label, m in metrics.items()
    }
    sections.append(
        comparison_table(
            utilization,
            probes,
            title=f"{figure}(e) - busy processors at selected times",
            probe_header="time (s)",
        )
    )
    activity = {}
    for label, m in metrics.items():
        times, counts = getattr(m, panels.activity)()
        series = []
        for t in probes:
            if len(times) == 0 or (times <= t).sum() == 0:
                series.append(0.0)
            else:
                series.append(float(counts[(times <= t).sum() - 1]))
        activity[label] = series
    sections.append(
        comparison_table(
            activity,
            probes,
            title=f"{figure}(f) - cumulative {panels.activity_caption} at selected times",
            probe_header="time (s)",
        )
    )
    return "\n\n".join(sections)
