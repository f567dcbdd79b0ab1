"""Figure 8 — FPSMA versus EGS under the PWA approach (growing and shrinking).

The PWA experiments raise the load by reducing the inter-arrival time to 30
seconds (workloads W'm and W'mr).  The paper's observations that this
reproduction must match qualitatively:

* many jobs are stuck at (or near) their minimal size, more so with EGS;
* GADGET-2 execution times cluster around values roughly 30% higher than
  under PRA;
* the response time is clearly the worst for EGS on the all-malleable
  workload W'm because of the higher wait times in the overloaded system;
* beyond a certain time the malleability manager can no longer trigger
  changes other than initial placements (the cumulative-operations curve
  flattens).
"""

from __future__ import annotations

from repro.experiments.figure7 import SixPanels

#: The policy/workload combinations of Figure 8, in the paper's legend order.
FIGURE8_COMBINATIONS = (
    ("FPSMA", "W'm"),
    ("FPSMA", "W'mr"),
    ("EGS", "W'm"),
    ("EGS", "W'mr"),
)
#: Figure 8's panels, rendered by
#: :func:`~repro.experiments.figure7.six_panel_report`.
FIGURE8_PANELS = SixPanels(
    figure=8,
    approach="PWA",
    probes=(
        (2, 4, 6, 10, 15, 20, 30, 40),
        (2, 4, 8, 16, 24, 32, 46, 60),
        (60, 120, 200, 300, 400, 600, 800, 1000),
        (60, 120, 200, 300, 400, 600, 800, 1000),
    ),
    plot="a",
    plot_caption="average-allocation CDFs",
    plot_x_label="average number of processors per job",
    activity="cumulative_operations",
    activity_caption="malleability operations",
)
