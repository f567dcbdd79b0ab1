"""The ``repro-cli trace`` subcommand: summary, timeline, diff, validate.

Post-processing for the trace files of :mod:`repro.obs.trace`:

``summary``
    Per-kind and per-event-type counts, sim-time span, event rates and the
    run's start/end metadata — the first thing to look at.
``timeline``
    An ASCII gantt of the jobs (queued/running over sim-time, from the hook
    records) plus a running-count curve via the report layer's
    :func:`~repro.metrics.asciiplot.ascii_plot`.
``diff``
    The first divergent record between two traces.  Byte-identical runs
    diff empty (exit 0); the first differing record of two seed-variant
    runs *is* the first point their simulations diverged (exit 1) — the
    one-command replacement for golden-digest archaeology.
``validate``
    Schema-check a trace (exit 1 on problems).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import TRACE_SCHEMA, load_trace, validate_trace

#: Record kinds carrying run *metadata* rather than simulated behaviour;
#: ``diff`` skips them by default (two runs differing only in seed differ
#: trivially in their headers).
META_KINDS = ("header", "run_start")


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


# -- summary -------------------------------------------------------------------


def summarize_trace(records: List[Dict[str, Any]]) -> str:
    """The plain-text summary report of one trace."""
    lines: List[str] = []
    kinds: Dict[str, int] = {}
    fired: Dict[str, int] = {}
    scheduled: Dict[str, int] = {}
    hooks: Dict[str, int] = {}
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    max_pending = 0
    for record in records:
        kind = record.get("k", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "ev":
            fired[record.get("e", "?")] = fired.get(record.get("e", "?"), 0) + 1
        elif kind == "sched":
            scheduled[record.get("e", "?")] = scheduled.get(record.get("e", "?"), 0) + 1
        elif kind == "hook":
            hooks[record.get("e", "?")] = hooks.get(record.get("e", "?"), 0) + 1
        elif kind == "queue":
            max_pending = max(max_pending, int(record.get("pending", 0)))
        time = record.get("t")
        if isinstance(time, (int, float)):
            t_min = time if t_min is None else min(t_min, time)
            t_max = time if t_max is None else max(t_max, time)

    header = records[0] if records and records[0].get("k") == "header" else {}
    meta = ", ".join(
        f"{key}={header[key]}"
        for key in ("label", "seed", "workload", "job_count")
        if key in header
    )
    lines.append(f"trace: {len(records)} records, schema {header.get('schema', '?')}")
    if meta:
        lines.append(f"  run:  {meta}")
    if t_min is not None and t_max is not None:
        lines.append(f"  span: t={t_min:.1f} .. t={t_max:.1f} simulated seconds")

    lines.append("  records by kind:")
    for kind, count in sorted(kinds.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {kind:<10} {count:>9}")
    if max_pending:
        lines.append(f"  peak pending events: {max_pending}")

    def _table(title: str, counts: Dict[str, int], span: Optional[float]) -> None:
        if not counts:
            return
        lines.append(f"  {title}:")
        total = sum(counts.values())
        for name, count in sorted(counts.items(), key=lambda kv: -kv[1]):
            rate = f" {count / span:>10.2f}/s" if span else ""
            lines.append(f"    {name:<22} {count:>9}{rate}")
        if span:
            lines.append(f"    {'total':<22} {total:>9} {total / span:>10.2f}/s")

    span = (t_max - t_min) if (t_min is not None and t_max is not None and t_max > t_min) else None
    _table("fired events (sim-time rate)", fired, span)
    _table("scheduled events", scheduled, None)
    _table("scheduler hook events", hooks, span)

    for record in records:
        if record.get("k") == "run_end":
            lines.append(
                f"  run end: t={record.get('t', 0.0):.1f}, "
                f"events={record.get('events', '?')}, "
                f"all_done={record.get('all_done', '?')}, "
                f"metrics digest {str(record.get('digest', ''))[:16]}..."
            )
    return "\n".join(lines)


# -- timeline ------------------------------------------------------------------


def timeline_report(records: List[Dict[str, Any]], *, width: int = 72, jobs: int = 30) -> str:
    """ASCII gantt of the traced jobs plus a running-count curve."""
    submitted: Dict[str, float] = {}
    started: Dict[str, float] = {}
    ended: Dict[str, float] = {}
    order: List[str] = []
    transitions: List[Tuple[float, int]] = []
    for record in records:
        if record.get("k") != "hook":
            continue
        event, job, time = record.get("e"), record.get("job"), record.get("t")
        if not isinstance(job, str) or not isinstance(time, (int, float)):
            continue
        if event == "job_submitted" and job not in submitted:
            submitted[job] = time
            order.append(job)
        elif event == "job_started" and job not in started:
            started[job] = time
            transitions.append((time, +1))
        elif event == "job_ended" and job not in ended:
            ended[job] = time
            if job in started:
                transitions.append((time, -1))
    if not order:
        return "(no scheduler hook records in this trace — nothing to draw)"

    t0 = min(submitted.values())
    t1 = max(
        [time for series in (submitted, started, ended) for time in series.values()]
    )
    span = max(t1 - t0, 1.0)

    def column(time: float) -> int:
        return min(width - 1, int((time - t0) / span * (width - 1)))

    label_width = min(24, max(len(job) for job in order[:jobs]))
    lines = [
        f"job timeline: t={t0:.0f} .. t={t1:.0f} "
        f"('.' queued, '=' running, '|' end; {len(order)} jobs)"
    ]
    for job in order[:jobs]:
        row = [" "] * width
        sub = submitted[job]
        start = started.get(job)
        end = ended.get(job)
        run_from = column(start) if start is not None else width
        run_to = column(end) if end is not None else width - 1
        for cell in range(column(sub), min(run_from, width - 1) + 1):
            row[cell] = "."
        if start is not None:
            for cell in range(run_from, run_to + 1):
                row[cell] = "="
        if end is not None:
            row[column(end)] = "|"
        lines.append(f"  {job[:label_width]:<{label_width}} {''.join(row)}")
    if len(order) > jobs:
        lines.append(f"  ... and {len(order) - jobs} more jobs")

    if transitions:
        from repro.metrics.asciiplot import ascii_plot

        transitions.sort()
        xs: List[float] = [t0]
        ys: List[float] = [0.0]
        running = 0
        for time, delta in transitions:
            running += delta
            xs.append(time)
            ys.append(float(running))
        lines.append("")
        lines.append(
            ascii_plot(
                {"running jobs": (xs, ys)},
                width=width,
                height=10,
                title="running jobs over sim-time",
                x_label="t (s)",
            )
        )
    return "\n".join(lines)


# -- diff ----------------------------------------------------------------------


def diff_traces(
    a: List[Dict[str, Any]],
    b: List[Dict[str, Any]],
    *,
    include_meta: bool = False,
) -> Optional[Tuple[int, Optional[Dict[str, Any]], Optional[Dict[str, Any]]]]:
    """The first divergence between two record streams, or ``None``.

    Metadata records (:data:`META_KINDS`) are skipped unless *include_meta*
    — two runs differing only in seed always differ in their headers, and
    the interesting question is where the *simulations* diverged.  Returns
    ``(index, record_a, record_b)`` over the compared stream; a missing
    side (one trace is a prefix of the other) is ``None``.
    """
    if not include_meta:
        a = [record for record in a if record.get("k") not in META_KINDS]
        b = [record for record in b if record.get("k") not in META_KINDS]
    for index, (ra, rb) in enumerate(zip(a, b)):
        if _canonical(ra) != _canonical(rb):
            return index, ra, rb
    if len(a) != len(b):
        index = min(len(a), len(b))
        return (
            index,
            a[index] if index < len(a) else None,
            b[index] if index < len(b) else None,
        )
    return None


def diff_report(
    path_a: str,
    path_b: str,
    divergence: Optional[Tuple[int, Optional[Dict[str, Any]], Optional[Dict[str, Any]]]],
) -> str:
    if divergence is None:
        return f"traces are identical (metadata records excluded)\n  a: {path_a}\n  b: {path_b}"
    index, ra, rb = divergence
    lines = [f"first divergence at record {index} (metadata records excluded):"]
    lines.append(f"  a ({path_a}):")
    lines.append(f"    {_canonical(ra) if ra is not None else '(trace ended)'}")
    lines.append(f"  b ({path_b}):")
    lines.append(f"    {_canonical(rb) if rb is not None else '(trace ended)'}")
    if ra is not None and rb is not None:
        time_a, time_b = ra.get("t"), rb.get("t")
        if isinstance(time_a, (int, float)) and isinstance(time_b, (int, float)):
            lines.append(
                f"  simulations diverged by sim-time t={min(time_a, time_b):.3f}"
            )
    return "\n".join(lines)


# -- parser wiring and command ------------------------------------------------


def add_trace_parser(subparsers: Any) -> argparse.ArgumentParser:
    """Register the ``trace`` subcommand (with its operation tree)."""
    trace = subparsers.add_parser(
        "trace",
        help="inspect trace files written via --trace-out / $REPRO_TRACE",
    )
    ops = trace.add_subparsers(dest="trace_op", required=True, metavar="OPERATION")
    summary = ops.add_parser(
        "summary", help="per-event-type counts, rates and run metadata"
    )
    summary.add_argument("trace_file", help="trace file (.jsonl or .gz)")
    timeline = ops.add_parser(
        "timeline", help="ASCII gantt of the traced jobs over sim-time"
    )
    timeline.add_argument("trace_file", help="trace file (.jsonl or .gz)")
    timeline.add_argument(
        "--width", type=int, default=72, help="timeline width in characters"
    )
    timeline.add_argument(
        "--max-jobs", type=int, default=30, help="gantt rows before eliding"
    )
    diff = ops.add_parser(
        "diff",
        help="first divergent record of two traces (exit 1 when they diverge)",
    )
    diff.add_argument("trace_a", help="first trace file")
    diff.add_argument("trace_b", help="second trace file")
    diff.add_argument(
        "--include-meta",
        action="store_true",
        help="also compare header/run_start metadata records",
    )
    validate = ops.add_parser(
        "validate",
        help=f"schema-check a trace (schema {TRACE_SCHEMA}; exit 1 on problems)",
    )
    validate.add_argument("trace_file", help="trace file (.jsonl or .gz)")
    return trace


def cmd_trace(args: argparse.Namespace) -> int:
    """Execute one ``trace`` operation; returns a process exit code."""
    try:
        if args.trace_op == "diff":
            divergence = diff_traces(
                load_trace(args.trace_a),
                load_trace(args.trace_b),
                include_meta=args.include_meta,
            )
            print(diff_report(args.trace_a, args.trace_b, divergence))
            return 1 if divergence is not None else 0
        records = load_trace(args.trace_file)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.trace_op == "summary":
        print(summarize_trace(records))
        return 0
    if args.trace_op == "timeline":
        print(timeline_report(records, width=args.width, jobs=args.max_jobs))
        return 0
    if args.trace_op == "validate":
        problems = validate_trace(records)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return 1
        print(f"valid: {len(records)} records, schema {TRACE_SCHEMA}")
        return 0
    print(f"error: unknown trace operation {args.trace_op!r}", file=sys.stderr)
    return 2  # pragma: no cover - argparse enforces the choices
