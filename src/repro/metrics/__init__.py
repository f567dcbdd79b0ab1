"""Metrics and analysis of experiment runs.

The paper's evaluation (Section VII) reports, for each combination of a
malleability-management policy and a workload:

* the cumulative distribution of the per-job *time-averaged* number of
  processors (Figures 7(a)/8(a));
* the cumulative distribution of the per-job *maximum* number of processors
  (Figures 7(b)/8(b));
* the cumulative distributions of execution and response times
  (Figures 7(c,d)/8(c,d));
* the total number of used processors over time (utilization,
  Figures 7(e)/8(e));
* the cumulative activity of the malleability manager (number of grow
  messages / malleability operations over time, Figures 7(f)/8(f)).

:class:`~repro.metrics.collector.ExperimentMetrics` gathers the raw data for
all of these from a finished scheduler run; :mod:`repro.metrics.cdf` provides
the empirical-distribution helpers; :mod:`repro.metrics.reports` renders
aligned text tables and CSV output for the benchmark harness.
"""

from repro.metrics.cdf import EmpiricalCDF, cdf_points, fraction_at_or_below, percentile
from repro.metrics.collector import ExperimentMetrics, JobMetrics, run_digest
from repro.metrics.asciiplot import ascii_plot, cdf_plot, sparkline
from repro.metrics.reports import (
    comparison_table,
    format_table,
    metrics_to_csv,
    summary_table,
)

__all__ = [
    "EmpiricalCDF",
    "ExperimentMetrics",
    "JobMetrics",
    "ascii_plot",
    "cdf_plot",
    "cdf_points",
    "comparison_table",
    "format_table",
    "fraction_at_or_below",
    "metrics_to_csv",
    "percentile",
    "run_digest",
    "sparkline",
    "summary_table",
]
