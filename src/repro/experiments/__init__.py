"""Experiment layer: scenario registry, sweep engine and figure reports.

The layer is organised around these pieces:

* :mod:`repro.experiments.scenarios` — the declarative registry: every
  figure, table and ablation of the paper is a
  :class:`~repro.experiments.scenarios.ScenarioSpec` (base config, variants,
  seed grid, reporter), and
  :func:`~repro.experiments.scenarios.run_scenario` is the one way to run
  one;
* :mod:`repro.experiments.engine` — the sweep engine that expands specs into
  :class:`~repro.experiments.setup.ExperimentConfig` runs, fans them out over
  worker processes and caches results on disk keyed by config + code version;
* the per-figure modules — :mod:`~repro.experiments.figure6`,
  :mod:`~repro.experiments.figure7`, :mod:`~repro.experiments.figure8` and
  :mod:`~repro.experiments.table1` — which hold what a figure shows: Figure
  6's scaling curves, Table I, and the panel tables that
  :func:`~repro.experiments.figure7.six_panel_report` renders for Figures 7
  and 8 (the ablations render as summary tables);
* :mod:`repro.experiments.setup` — the shared single-run machinery;
* :mod:`repro.experiments.cli` — the ``repro-cli`` command-line tool
  (``list`` / ``run`` / ``sweep`` / ``custom`` and more).

The package re-exports nothing: import each name from the module that
defines it, so that importing :mod:`repro.experiments.cli` loads no
simulator.
"""
