"""Command-line entry point: ``repro-cli``.

Every figure, table and ablation of the paper is a *scenario* in the
declarative registry (:mod:`repro.experiments.scenarios`); the CLI is a thin
shell over the sweep engine that runs them.  Each command imports only what
it runs, so ``--help`` and the daemon client load no simulator and no numpy.

Examples
--------
See what can be run::

    repro-cli list scenarios

Reproduce Figure 7 on 4 worker processes (cached: a second invocation after
only plotting-layer edits is near-instant)::

    repro-cli run figure7 --jobs 4

Run a reduced Figure 8 (60 jobs instead of 300, fresh seed, no cache)::

    repro-cli run figure8 --job-count 60 --seed 1 --no-cache

Sweep a scenario and print the merged summary table only::

    repro-cli sweep ablation-placement --jobs 4

Run one custom configuration outside any scenario::

    repro-cli custom --workload Wmr --policy EGS --approach PRA --job-count 120

See every registered policy of every axis, with parameters::

    repro-cli list policies

Run a parameterised policy (``--policy-arg`` repeats; values are Python
literals)::

    repro-cli custom --policy AVERAGE_STEAL --policy-arg balance=absolute \\
        --placement EASY --placement-arg reserve_depth=2

Policies registered in your own module are available to every command after
``--policy-module``::

    repro-cli --policy-module my_policies list policies

Trace-driven workloads: list the available traces (the bundled deterministic
DAS-3-style synthetic trace plus any ``.swf`` files in ``traces/`` or
``$REPRO_TRACES_DIR``), replay one through the trace scenarios, or point any
run at a trace with transformations::

    repro-cli list traces
    repro-cli run trace-replay --job-count 60
    repro-cli run --scenario trace-load-sweep --jobs 4
    repro-cli run trace-replay --trace das3-synthetic --load-factor 2 \\
        --trace-malleable 0.5 --trace-max-procs 85
    repro-cli custom --trace path/to/archive.swf --policy EGS --job-count 200

Fault injection: list the registered fault models, run the fault scenarios,
or strike any run with node churn / an availability trace::

    repro-cli list faults
    repro-cli run fault-sweep --jobs 4
    repro-cli run churn-replay --job-count 40
    repro-cli custom --policy EGS --mtbf 3600 --mttr 600 --job-count 60
    repro-cli custom --fault 'fault:outage?cluster=delft&at=1800&duration=900'
    repro-cli sweep figure7 --fault-trace outages.flt

The experiment service: start a long-running daemon owning a worker pool
and the content-addressed result store, then submit work to it from any
number of concurrent clients (identical configs deduplicate and coalesce)::

    repro-cli serve --workers 4 --store-budget 512M &
    repro-cli client status
    repro-cli client run-and-wait --workload Wm --policy EGS --job-count 40
    repro-cli client submit --workload Wmr --seeds 0 1 2 3
    repro-cli client shutdown

Observability: write a structured trace of any run (every kernel event,
queue snapshot and scheduler hook), then inspect it; ``--quiet`` and
``$REPRO_LOG_LEVEL`` control the stderr log level::

    repro-cli run figure7 --trace-out traces/
    repro-cli trace summary traces/figure7-*.jsonl
    repro-cli trace timeline traces/figure7-*.jsonl
    repro-cli trace diff traces/a.jsonl traces/b.jsonl
    repro-cli client metrics

Runs that hit the simulation time limit before every job finished log a
WARNING to stderr and carry ``"truncated": true`` in their result JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.log import get_logger, setup_logging, survive_closed_stdout


def _policy_arg(text: str) -> tuple:
    """Parse one ``key=value`` policy parameter (value as a Python literal)."""
    key, separator, value = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    from repro.policies.registry import parse_literal

    return key.strip(), parse_literal(value.strip())


def _import_policy_modules(modules: Sequence[str]) -> None:
    """Import user modules so their ``@register`` decorators run.

    Accepts dotted module names and plain ``.py`` file paths, so
    ``repro-cli --policy-module my_policies.py list policies`` works without
    packaging anything.  The resolved references are also exported via
    :data:`~repro.policies.registry.POLICY_MODULES_ENV` so the worker
    processes of a parallel sweep (which re-import ``repro`` from scratch
    under spawn/forkserver start methods) register the same policies.
    """
    from repro.policies.registry import POLICY_MODULES_ENV, load_policy_modules

    resolved = [
        str(Path(name).resolve()) if Path(name).suffix == ".py" else name
        for name in modules
    ]
    load_policy_modules(resolved)
    merged = [
        part
        for part in os.environ.get(POLICY_MODULES_ENV, "").split(os.pathsep)
        if part
    ]
    for name in resolved:
        if name not in merged:
            merged.append(name)
    os.environ[POLICY_MODULES_ENV] = os.pathsep.join(merged)


def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    """Options selecting a trace-driven workload and its transformations."""
    parser.add_argument(
        "--trace",
        default=None,
        metavar="NAME_OR_PATH",
        help="replay this trace (see 'list traces'; a .swf path also works) "
        "instead of the configured workload",
    )
    parser.add_argument(
        "--load-factor",
        type=float,
        default=None,
        metavar="X",
        help="rescale the trace's inter-arrival gaps by 1/X (2 = double load)",
    )
    parser.add_argument(
        "--trace-window",
        default=None,
        metavar="START:END",
        help="replay only the records submitted in [START, END) seconds "
        "of the trace's own clock (either side may be empty)",
    )
    parser.add_argument(
        "--trace-max-procs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="shrink per-job processor requests to at most N",
    )
    parser.add_argument(
        "--trace-malleable",
        type=float,
        default=None,
        metavar="F",
        help="fraction of replayed jobs tagged malleable (default 1.0)",
    )


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    """Options striking the run with a fault model."""
    parser.add_argument(
        "--fault",
        default=None,
        metavar="REF",
        help="inject faults from this model reference, e.g. "
        "'fault:exp?mtbf=3600&mttr=600' (see 'list faults')",
    )
    parser.add_argument(
        "--mtbf",
        type=float,
        default=None,
        metavar="SECONDS",
        help="shorthand for --fault 'fault:exp?mtbf=SECONDS': exponential "
        "per-node churn with this mean time between failures",
    )
    parser.add_argument(
        "--mttr",
        type=float,
        default=None,
        metavar="SECONDS",
        help="mean time to repair for --mtbf (default 600)",
    )
    parser.add_argument(
        "--fault-trace",
        default=None,
        metavar="PATH",
        help="replay this availability trace file "
        "(shorthand for --fault 'fault:trace?path=PATH')",
    )


def _fault_reference(args: argparse.Namespace) -> Optional[str]:
    """The canonical ``fault:`` reference the fault options ask for."""
    fault = getattr(args, "fault", None)
    mtbf = getattr(args, "mtbf", None)
    mttr = getattr(args, "mttr", None)
    fault_trace = getattr(args, "fault_trace", None)
    chosen = [option for option in (fault, mtbf, fault_trace) if option is not None]
    if len(chosen) > 1:
        raise ValueError("--fault, --mtbf and --fault-trace are mutually exclusive")
    if mttr is not None and mtbf is None:
        raise ValueError("--mttr requires --mtbf")
    if not chosen:
        return None
    from repro.faults.models import FaultRef

    if mtbf is not None:
        params = {"mtbf": f"{mtbf:g}"}
        if mttr is not None:
            params["mttr"] = f"{mttr:g}"
        reference = "fault:exp?" + "&".join(f"{k}={v}" for k, v in params.items())
    elif fault_trace is not None:
        reference = f"fault:trace?path={fault_trace}"
    else:
        reference = fault
    # Validate now: a bad reference must surface as an argument error, not a
    # traceback mid-sweep.
    return FaultRef.parse(reference).validate().canonical()


def _warn_truncated(results, *, stream=None) -> None:
    """Warn visibly for every run that hit the time limit.

    Routed through the :mod:`repro.obs.log` logger (so ``--quiet`` and
    ``$REPRO_LOG_LEVEL`` apply); an explicit *stream* bypasses logging and
    prints directly, which tests use to capture the message.
    """
    truncated = [label for label, result in results.items() if result.truncated]
    if not truncated:
        return
    message = (
        f"{len(truncated)} run(s) hit the simulation time limit before "
        f"every job finished; their metrics are partial (truncated=true in the "
        f"result JSON): {', '.join(truncated)}"
    )
    if stream is not None:
        print(f"WARNING: {message}", file=stream)
        return
    get_logger("cli").warning(message)


def _trace_reference(args: argparse.Namespace) -> Optional[str]:
    """The canonical ``trace:`` workload reference the trace options ask for."""
    trace_options = {
        "load_factor": getattr(args, "load_factor", None),
        "window": getattr(args, "trace_window", None),
        "max_procs": getattr(args, "trace_max_procs", None),
        "malleable": getattr(args, "trace_malleable", None),
    }
    trace = getattr(args, "trace", None)
    if trace is None:
        if any(value is not None for value in trace_options.values()):
            raise ValueError(
                "--load-factor/--trace-window/--trace-max-procs/--trace-malleable "
                "require --trace"
            )
        return None
    from repro.workloads.traces import TraceRef

    ref = TraceRef.parse(trace)
    params = dict(ref.params)
    for key, value in trace_options.items():
        if value is not None:
            params[key] = value
    # Validate now (trace exists, parameters well-formed): a bad reference
    # must surface as an argument error, not a traceback mid-sweep.
    return TraceRef(trace=ref.trace, params=params).validate().canonical()


def _seed_list(text: str) -> tuple:
    """Parse a comma-separated seed grid (``"0,1,2"``)."""
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("at least one seed is required")
    if any(seed < 0 for seed in seeds):
        raise argparse.ArgumentTypeError(f"seeds must be non-negative, got {text!r}")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"seeds must be distinct, got {text!r}")
    return seeds


def _name_list(text: str) -> tuple:
    """Parse a comma-separated name list; ``none`` entries become ``None``."""
    names = tuple(
        None if part.strip().lower() in ("none", "off") else part.strip()
        for part in text.split(",")
        if part.strip()
    )
    if not names:
        raise argparse.ArgumentTypeError("at least one entry is required")
    return names


def _float_list(text: str) -> tuple:
    """Parse a comma-separated list of floats."""
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("at least one entry is required")
    return values


def _confidence(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"confidence must lie strictly in (0, 1), got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_scenario_selector(parser: argparse.ArgumentParser) -> None:
    """Scenario selection, positionally or via ``--scenario``."""
    parser.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario name (see 'list scenarios')",
    )
    parser.add_argument(
        "--scenario",
        dest="scenario_option",
        default=None,
        help="scenario name (alternative to the positional argument)",
    )


def _selected_scenario(args: argparse.Namespace) -> str:
    """The scenario both spellings agree on; raises ValueError otherwise."""
    if not args.scenario and not args.scenario_option:
        raise ValueError("a scenario is required (positional or --scenario)")
    if args.scenario and args.scenario_option and args.scenario != args.scenario_option:
        raise ValueError(
            f"conflicting scenarios: {args.scenario!r} and --scenario "
            f"{args.scenario_option!r}"
        )
    return args.scenario or args.scenario_option


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every command that executes experiment runs."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes to fan the runs out over (default 1: serial)",
    )
    parser.add_argument(
        "--job-count",
        type=_positive_int,
        default=None,
        help="jobs per workload (default: scenario's)",
    )
    parser.add_argument(
        "--seed", type=_non_negative_int, default=None, help="root random seed"
    )
    parser.add_argument(
        "--threshold",
        type=_non_negative_int,
        default=None,
        help="idle processors reserved for local users when growing",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="simulated-time safety bound per run (default: config's); runs "
        "cut off by it warn and are flagged truncated",
    )
    _add_cache_options(parser)
    _add_trace_out_option(parser)


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    """The result-cache options of every command that runs scenario configs."""
    from repro.service.store import default_cache_dir

    parser.add_argument(
        "--no-cache", action="store_true", help="do not read or write the result cache"
    )
    parser.add_argument(
        "--refresh", action="store_true", help="ignore cached results but store fresh ones"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result cache directory (default: $REPRO_CACHE_DIR or {default_cache_dir()})",
    )


def _add_trace_out_option(parser: argparse.ArgumentParser) -> None:
    """The structured-tracing activation flag (see :mod:`repro.obs.trace`)."""
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        metavar="FILE_OR_DIR",
        help="write a structured trace of every run (kernel events, queue "
        "snapshots, scheduler hooks) to this .jsonl/.gz file or directory; "
        "$REPRO_TRACE sets a default target. Tracing participates in the "
        "cache key, so traced runs never alias untraced cached results",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of ``repro-cli``."""
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Reproduce the experiments of 'Scheduling Malleable Applications "
        "in Multicluster Systems' (CLUSTER 2007).",
    )
    parser.add_argument("--output", help="write the report to this file instead of stdout")
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress WARNING/INFO log output (errors still print); "
        "$REPRO_LOG_LEVEL sets an explicit level instead",
    )
    parser.add_argument(
        "--policy-module",
        action="append",
        default=[],
        metavar="MODULE",
        help="import this module (dotted name or .py path) first, so policies "
        "it @registers become available; may be repeated",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    listing = subparsers.add_parser(
        "list", help="list the registered scenarios, policies, traces or fault models"
    )
    listing.add_argument(
        "kind",
        choices=tuple(_LIST_REPORTS),
        help="scenarios (with run counts), policies (all kinds, with parameters), "
        "traces (registry + traces/ + $REPRO_TRACES_DIR) or faults (with parameters)",
    )

    run = subparsers.add_parser(
        "run", help="run a scenario and print its full figure/table report"
    )
    _add_scenario_selector(run)
    _add_sweep_options(run)
    _add_trace_options(run)
    _add_fault_options(run)

    sweep = subparsers.add_parser(
        "sweep", help="run a scenario's config grid and print the merged summary"
    )
    _add_scenario_selector(sweep)
    _add_sweep_options(sweep)
    _add_trace_options(sweep)
    _add_fault_options(sweep)
    sweep.add_argument(
        "--csv", action="store_true", help="emit per-job CSV (all runs concatenated)"
    )

    from repro.service.cli import add_client_parser, add_serve_parser

    add_serve_parser(subparsers)
    add_client_parser(subparsers)

    from repro.obs.cli import add_trace_parser

    add_trace_parser(subparsers)

    custom = subparsers.add_parser(
        "custom", help="run a single custom configuration outside any scenario"
    )
    custom.add_argument(
        "--workload",
        default="Wm",
        help="Wm, Wmr, W'm, W'mr or a trace reference ('trace:das3-synthetic?load_factor=2')",
    )
    custom.add_argument(
        "--policy", default="FPSMA", help="FPSMA, EGS, EQUIPARTITION, FOLDING or none"
    )
    custom.add_argument("--approach", default="PRA", help="PRA or PWA")
    custom.add_argument(
        "--placement", default="WF", help="WF, CF, CM, FCM or EASY (see 'list policies')"
    )
    custom.add_argument(
        "--policy-arg",
        action="append",
        type=_policy_arg,
        default=[],
        metavar="KEY=VALUE",
        help="parameter for --policy (repeatable; values are Python literals)",
    )
    custom.add_argument(
        "--placement-arg",
        action="append",
        type=_policy_arg,
        default=[],
        metavar="KEY=VALUE",
        help="parameter for --placement (repeatable)",
    )
    custom.add_argument("--job-count", type=_positive_int, default=300)
    custom.add_argument("--seed", type=_non_negative_int, default=0)
    custom.add_argument("--threshold", type=_non_negative_int, default=0)
    custom.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="simulated-time safety bound (default: config's)",
    )
    custom.add_argument("--csv", action="store_true", help="emit per-job CSV instead of a summary")
    _add_trace_options(custom)
    _add_fault_options(custom)
    _add_trace_out_option(custom)

    tournament = subparsers.add_parser(
        "tournament",
        help="replicate a scenario across a seed grid and rank its variants "
        "with bootstrap confidence intervals and a Pareto frontier",
    )
    _add_scenario_selector(tournament)
    tournament.add_argument(
        "--seeds",
        type=_seed_list,
        default=(0, 1, 2),
        metavar="S0,S1,...",
        help="comma-separated root seeds, one replica per seed (default 0,1,2)",
    )
    tournament.add_argument(
        "--confidence",
        type=_confidence,
        default=0.95,
        metavar="LEVEL",
        help="two-sided bootstrap confidence level (default 0.95)",
    )
    tournament.add_argument(
        "--resamples",
        type=_positive_int,
        default=1000,
        metavar="N",
        help="bootstrap resamples per interval (default 1000)",
    )
    tournament.add_argument(
        "--metric",
        default="mean_response_time",
        help="summary metric the ranking orders by (default mean_response_time)",
    )
    tournament.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes to fan the replicas out over (default 1: serial)",
    )
    tournament.add_argument(
        "--job-count",
        type=_positive_int,
        default=None,
        help="jobs per workload (default: scenario's)",
    )
    _add_cache_options(tournament)
    tournament.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="run the grid on the experiment daemon listening on this Unix "
        "socket (batch submission; --jobs/--cache-dir do not apply)",
    )
    tournament.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="daemon-side wait bound per replica (with --socket)",
    )
    grid = tournament.add_argument_group(
        "grid flags (build a custom policy x load x fault grid instead of a "
        "registered scenario; only valid without --scenario or with "
        "--scenario tournament)"
    )
    grid.add_argument(
        "--policies",
        type=_name_list,
        default=None,
        metavar="P0,P1,...",
        help="malleability policies to enter ('none' = no malleability)",
    )
    grid.add_argument(
        "--trace",
        default=None,
        metavar="NAME",
        help="trace the grid replays (default das3-synthetic)",
    )
    grid.add_argument(
        "--load-factors",
        type=_float_list,
        default=None,
        metavar="X0,X1,...",
        help="arrival load factors to sweep (default 1,2)",
    )
    grid.add_argument(
        "--faults",
        type=_name_list,
        default=None,
        metavar="REF0,REF1,...",
        help="fault-model references to sweep ('none' = fault-free)",
    )

    shard = subparsers.add_parser(
        "shard-replay",
        help="replay the shard-replay scenario in parallel time shards "
        "(exact: stitched metrics equal a serial run's)",
    )
    shard.add_argument("--job-count", type=_positive_int, default=100_000)
    shard.add_argument("--seed", type=_non_negative_int, default=0)
    shard.add_argument(
        "--min-gap",
        type=float,
        default=None,
        metavar="SECONDS",
        help="minimum arrival gap at which the workload is cut (default 600)",
    )
    shard.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes (default: min(4, CPU count))",
    )
    shard.add_argument(
        "--sequential",
        action="store_true",
        help="replay the windows in-process, one by one (debugging aid)",
    )

    ckpt = subparsers.add_parser(
        "checkpointed",
        help="run a scenario's first variant with periodic checkpoints and "
        "streaming metrics; resumable via --resume",
    )
    _add_scenario_selector(ckpt)
    ckpt.add_argument("--job-count", type=_positive_int, default=None)
    ckpt.add_argument("--seed", type=_non_negative_int, default=0)
    ckpt.add_argument(
        "--every",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="simulated seconds between checkpoints (default 3600)",
    )
    ckpt.add_argument(
        "--checkpoint-path",
        metavar="FILE",
        help="write numbered checkpoint files derived from FILE "
        "(FILE's stem gains -NNNN per boundary)",
    )
    ckpt.add_argument(
        "--resume",
        metavar="FILE",
        help="restore this checkpoint file first and continue from it",
    )
    return parser


def _cache_from(args: argparse.Namespace):
    if args.no_cache:
        return None
    from repro.experiments.engine import ResultCache

    return ResultCache(args.cache_dir)


def _overrides_from(args: argparse.Namespace) -> Optional[dict]:
    overrides: dict = {}
    if args.threshold is not None:
        overrides["grow_threshold"] = args.threshold
    if getattr(args, "time_limit", None) is not None:
        overrides["time_limit"] = float(args.time_limit)
    workload = _trace_reference(args)
    if workload is not None:
        overrides["workload"] = workload
    fault = _fault_reference(args)
    if fault is not None:
        overrides["fault_model"] = fault
    if getattr(args, "trace_out", None) is not None:
        overrides["trace"] = args.trace_out
    return overrides or None


def _list_policies_report() -> str:
    from repro.policies.registry import iter_registered, policy_doc, policy_signature

    lines = ["Registered policies:", ""]
    current_kind = None
    for kind, name, cls in iter_registered():
        if kind != current_kind:
            if current_kind is not None:
                lines.append("")
            lines.append(f"{kind}:")
            current_kind = kind
        signature = policy_signature(cls) or "(no parameters)"
        doc = policy_doc(cls)
        lines.append(f"  {name:<16} {signature}")
        if doc:
            lines.append(f"  {'':<16} {doc}")
    lines.append("")
    lines.append(
        "Use a policy by name ('EGS'), with parameters ('EASY?reserve_depth=2'\n"
        "or --policy-arg reserve_depth=2), in configs, scenarios and this CLI.\n"
        "Register your own with @repro.policies.register and --policy-module."
    )
    return "\n".join(lines)


def _list_traces_report() -> str:
    from repro.workloads.traces import TRACES_DIR_ENV, known_traces, trace_directories

    lines = ["Available traces:", ""]
    for name, description in known_traces():
        lines.append(f"  {name:<24} {description}")
    searched = ", ".join(str(path) for path in trace_directories())
    lines.append("")
    lines.append(f"(.swf files are discovered in: {searched}; set ${TRACES_DIR_ENV} to add a directory)")
    lines.append(
        "Replay one with: repro-cli run trace-replay --trace <name> "
        "[--load-factor X] [--trace-window A:B] [--trace-max-procs N] "
        "[--trace-malleable F]\n"
        "or as a workload anywhere: --workload 'trace:<name>?load_factor=2'"
    )
    return "\n".join(lines)


def _list_faults_report() -> str:
    from repro.faults.models import known_fault_models

    lines = ["Registered fault models:", ""]
    for name, description in known_fault_models():
        lines.append(f"  {name:<12} {description}")
    lines.append("")
    lines.append(
        "Strike a run with: repro-cli run <scenario> --fault 'fault:<model>?key=value&...'\n"
        "Shorthands: --mtbf SECONDS [--mttr SECONDS] (exponential churn), "
        "--fault-trace PATH (availability trace file).\n"
        "The reference also works as the fault_model field of any "
        "ExperimentConfig; add retries=N to cap resubmissions of killed jobs.\n"
        "Built-in fault scenarios: fault-sweep (MTBF x policy grid) and "
        "churn-replay (malleable vs rigid under identical churn)."
    )
    return "\n".join(lines)


def _list_scenarios_report() -> str:
    from repro.experiments.scenarios import iter_scenarios

    lines = ["Registered scenarios:", ""]
    for spec in iter_scenarios():
        runs = "static report" if spec.is_static else f"{spec.run_count()} runs"
        lines.append(f"  {spec.name:<24} {runs:<14} {spec.title}")
    lines.append("")
    lines.append("Run one with: repro-cli run <name> [--jobs N] [--job-count N] [--seed N]")
    return "\n".join(lines)


#: The report each kind of ``repro-cli list`` prints, in the order of its choices.
_LIST_REPORTS = {
    "scenarios": _list_scenarios_report,
    "policies": _list_policies_report,
    "traces": _list_traces_report,
    "faults": _list_faults_report,
}


@survive_closed_stdout
def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    setup_logging(quiet=args.quiet)

    if args.policy_module:
        try:
            _import_policy_modules(args.policy_module)
        except Exception as error:  # registration errors included, not just ImportError
            parser.error(f"cannot import policy module: {error}")
            return 2  # pragma: no cover - parser.error raises

    if args.command in ("serve", "client"):
        from repro.service.cli import cmd_client, cmd_serve

        return cmd_serve(args) if args.command == "serve" else cmd_client(args)

    if args.command == "trace":
        from repro.obs.cli import cmd_trace

        return cmd_trace(args)

    if args.command == "list":
        report = _LIST_REPORTS[args.kind]()
    elif args.command in ("run", "sweep"):
        from repro.experiments.scenarios import get_scenario, run_scenario, scenario_report
        from repro.metrics.reports import metrics_to_csv, summary_table

        try:
            spec = get_scenario(_selected_scenario(args))
        except ValueError as error:
            parser.error(str(error))
            return 2  # pragma: no cover - parser.error raises
        if spec.is_static:
            if args.command == "sweep":
                parser.error(f"scenario {spec.name!r} is static; use 'run' instead")
                return 2  # pragma: no cover
            report = scenario_report(spec)
        else:
            try:
                overrides = _overrides_from(args)
            except ValueError as error:
                parser.error(str(error))
                return 2  # pragma: no cover - parser.error raises
            results = run_scenario(
                spec,
                job_count=args.job_count,
                seed=args.seed,
                jobs=args.jobs,
                cache=_cache_from(args),
                refresh=args.refresh,
                overrides=overrides,
            )
            _warn_truncated(results)
            if args.command == "run":
                report = scenario_report(spec, results)
            elif getattr(args, "csv", False):
                report = "\n".join(
                    metrics_to_csv(result.metrics) for result in results.values()
                )
            else:
                report = summary_table(
                    {label: r.metrics for label, r in results.items()},
                    title=f"Sweep {spec.name} ({len(results)} runs)",
                )
    elif args.command == "tournament":
        from repro.experiments.scenarios import get_scenario, tournament_scenario
        from repro.stats import run_tournament, tournament_report

        grid_flags = (
            args.policies is not None
            or args.trace is not None
            or args.load_factors is not None
            or args.faults is not None
        )
        try:
            name = args.scenario or args.scenario_option
            if grid_flags:
                if name is not None and name != "tournament":
                    raise ValueError(
                        "grid flags (--policies/--trace/--load-factors/--faults) "
                        f"build a custom grid and cannot be combined with "
                        f"scenario {name!r}"
                    )
                grid_kwargs: dict = {"name": "tournament-custom"}
                if args.policies is not None:
                    grid_kwargs["policies"] = args.policies
                if args.trace is not None:
                    grid_kwargs["trace"] = args.trace
                if args.load_factors is not None:
                    grid_kwargs["load_factors"] = args.load_factors
                if args.faults is not None:
                    grid_kwargs["fault_models"] = args.faults
                spec = tournament_scenario(**grid_kwargs)
            else:
                spec = get_scenario(name or "tournament")
        except ValueError as error:
            parser.error(str(error))
            return 2  # pragma: no cover - parser.error raises
        client = None
        if args.socket:
            from repro.service.client import ServiceClient

            client = ServiceClient(socket_path=args.socket)
        try:
            if client is not None and (
                args.jobs != 1 or args.no_cache or args.refresh or args.cache_dir
            ):
                raise ValueError(
                    "--socket delegates execution to the daemon; "
                    "--jobs/--no-cache/--refresh/--cache-dir do not apply"
                )
            result = run_tournament(
                spec,
                seeds=args.seeds,
                rank_metric=args.metric,
                confidence=args.confidence,
                resamples=args.resamples,
                job_count=args.job_count,
                jobs=args.jobs,
                cache=None if client is not None else _cache_from(args),
                refresh=args.refresh,
                client=client,
                timeout=args.timeout,
            )
        except (KeyError, ValueError, ConnectionError, OSError) as error:
            parser.error(str(error))
            return 2  # pragma: no cover - parser.error raises
        finally:
            if client is not None:
                client.close()
        if result.truncated_entrants:
            print(
                "warning: truncated replicas (metrics partial): "
                + ", ".join(result.truncated_entrants),
                file=sys.stderr,
            )
        report = tournament_report(result)
    elif args.command == "shard-replay":
        from repro.checkpoint import CheckpointUnsupported
        from repro.checkpoint.shard import DEFAULT_MIN_GAP, shard_bench_config, shard_replay

        config = shard_bench_config(args.job_count, args.seed)
        try:
            result = shard_replay(
                config,
                min_gap=args.min_gap if args.min_gap is not None else DEFAULT_MIN_GAP,
                workers=args.workers,
                force_sequential=args.sequential,
            )
        except CheckpointUnsupported as error:
            parser.error(str(error))
            return 2  # pragma: no cover - parser.error raises
        lines = [
            f"Sharded replay: {args.job_count} jobs, seed {args.seed}",
            f"  windows:        {len(result.windows)} "
            f"({result.valid_windows} valid, workers={result.workers})",
            f"  fallback:       "
            + (
                "none"
                if result.fallback_from is None
                else f"serial tail from window {result.fallback_from}"
            ),
            f"  completed:      {result.metrics.jobs} jobs "
            f"(all done: {result.all_done})",
            f"  events:         {result.events_processed}",
            f"  metrics digest: {result.metrics.digest}",
        ]
        report = "\n".join(lines)
    elif args.command == "checkpointed":
        from repro.checkpoint import CheckpointError, resume_run, run_checkpointed
        from repro.experiments.scenarios import get_scenario

        try:
            spec = get_scenario(_selected_scenario(args))
        except ValueError as error:
            parser.error(str(error))
            return 2  # pragma: no cover - parser.error raises
        if spec.is_static:
            parser.error(f"scenario {spec.name!r} is static and cannot be run")
            return 2  # pragma: no cover - parser.error raises
        _label, config = spec.expand(job_count=args.job_count, seed=args.seed)[0]
        try:
            resumed = resume_run(args.resume) if args.resume else None
            if resumed is not None and resumed.config.to_dict() != config.to_dict():
                parser.error(
                    f"checkpoint {args.resume} was captured from a different "
                    "configuration than the selected scenario/--job-count/--seed"
                )
                return 2  # pragma: no cover - parser.error raises
            out = run_checkpointed(
                config,
                checkpoint_every=args.every,
                path=args.checkpoint_path,
                run=resumed,
            )
        except (CheckpointError, OSError, ValueError) as error:
            parser.error(str(error))
            return 2  # pragma: no cover - parser.error raises
        window = out["window"]
        lines = [
            f"Checkpointed run: {spec.name}, seed {args.seed}",
            f"  completed:      {window.jobs} jobs (all done: {out['all_done']})",
            f"  simulated time: {out['simulated_time']:.0f}s",
            f"  events:         {out['events_processed']}",
            f"  checkpoints:    {out['checkpoints']}",
            f"  metrics digest: {window.digest}",
        ]
        for target in out["checkpoint_paths"]:
            lines.append(f"  wrote {target}")
        report = "\n".join(lines)
    elif args.command == "custom":
        from repro.experiments.setup import ExperimentConfig, run_experiment
        from repro.metrics.reports import metrics_to_csv, summary_table

        policy = None if args.policy.lower() in ("none", "off") else args.policy
        if policy is None and args.policy_arg:
            parser.error("--policy-arg requires a --policy other than 'none'")
            return 2  # pragma: no cover - parser.error raises
        if policy is not None and args.policy_arg:
            policy = {"name": policy, "params": dict(args.policy_arg)}
        placement = args.placement
        if args.placement_arg:
            placement = {"name": placement, "params": dict(args.placement_arg)}
        try:
            workload = _trace_reference(args) or args.workload
            extra: dict = {}
            if args.time_limit is not None:
                extra["time_limit"] = float(args.time_limit)
            if args.trace_out is not None:
                extra["trace"] = args.trace_out
            # The validated builder is the single override surface: a bad
            # field or reference fails as an argument error, not a traceback.
            config = ExperimentConfig(name="cli-custom").with_overrides(
                workload=workload,
                job_count=args.job_count,
                malleability_policy=policy,
                approach=args.approach,
                placement_policy=placement,
                grow_threshold=args.threshold,
                seed=args.seed,
                fault_model=_fault_reference(args),
                **extra,
            )
        except (TypeError, ValueError) as error:
            parser.error(str(error))
            return 2  # pragma: no cover - parser.error raises
        result = run_experiment(config)
        _warn_truncated({result.label: result})
        if args.csv:
            report = metrics_to_csv(result.metrics)
        else:
            report = summary_table(
                {result.label: result.metrics}, title=f"Run {result.label} (seed {args.seed})"
            )
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command!r}")
        return 2

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        sys.stdout.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
