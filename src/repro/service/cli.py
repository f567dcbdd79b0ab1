"""The ``repro-cli serve`` and ``repro-cli client`` subcommands.

Kept in the service package so :mod:`repro.experiments.cli` stays a thin
shell: it calls :func:`add_serve_parser` / :func:`add_client_parser` while
building its parser and routes the parsed namespaces to :func:`cmd_serve` /
:func:`cmd_client`.

Examples
--------
Start a daemon on the default per-user socket with four workers and a
512 MiB store budget::

    repro-cli serve --workers 4 --store-budget 512M

Talk to it::

    repro-cli client status
    repro-cli client metrics
    repro-cli client run-and-wait --workload Wm --policy EGS --job-count 40
    repro-cli client submit --workload Wmr --policy FPSMA --seeds 0 1 2 3
    repro-cli client list --format detailed
    repro-cli client cancel <key>
    repro-cli client shutdown
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.service.client import ServiceClient, ServiceError, default_socket_path

#: client operations that take the experiment-config flags.
_CONFIG_OPS = ("submit", "run-and-wait")


def _add_endpoint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help=f"Unix socket of the daemon (default: $REPRO_SERVICE_SOCKET or "
        f"{default_socket_path()})",
    )
    parser.add_argument(
        "--host", default=None, help="serve/connect over localhost TCP instead"
    )
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (with --host; 0 picks one)"
    )


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    """Experiment-config flags shared by ``submit`` and ``run-and-wait``."""
    parser.add_argument("--name", default="service-run", help="configuration name")
    parser.add_argument(
        "--workload",
        default="Wm",
        help="Wm, Wmr, W'm, W'mr or a trace reference ('trace:das3-synthetic?load_factor=2')",
    )
    parser.add_argument("--policy", default="FPSMA", help="malleability policy, or 'none'")
    parser.add_argument("--approach", default="PRA", help="PRA or PWA")
    parser.add_argument("--placement", default="WF", help="placement policy (see 'list policies')")
    parser.add_argument("--job-count", type=int, default=300)
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0],
        metavar="SEED",
        help="one submission per seed (a one-flag sweep); run-and-wait requires exactly one",
    )
    parser.add_argument("--threshold", type=int, default=0, help="grow threshold")
    parser.add_argument(
        "--time-limit", type=float, default=None, help="simulated-time safety bound"
    )
    parser.add_argument(
        "--fault", default=None, help="fault-model reference ('fault:churn?mtbf=3600')"
    )


def _configs_from(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """The experiment-config mappings a client namespace describes."""
    policy: Optional[str] = args.policy
    if policy is not None and policy.lower() in ("none", "off"):
        policy = None
    configs: List[Dict[str, Any]] = []
    for seed in args.seeds:
        config: Dict[str, Any] = {
            "name": args.name,
            "workload": args.workload,
            "job_count": args.job_count,
            "malleability_policy": policy,
            "approach": args.approach,
            "placement_policy": args.placement,
            "grow_threshold": args.threshold,
            "seed": seed,
        }
        if args.time_limit is not None:
            config["time_limit"] = float(args.time_limit)
        if args.fault is not None:
            config["fault_model"] = args.fault
        configs.append(config)
    return configs


# -- parser wiring -----------------------------------------------------------


def add_serve_parser(subparsers: Any) -> argparse.ArgumentParser:
    """Register the ``serve`` subcommand on *subparsers*."""
    serve = subparsers.add_parser(
        "serve",
        help="run the experiment daemon (submit/get/list/cancel/batch/run_and_wait)",
    )
    _add_endpoint_options(serve)
    serve.add_argument(
        "--workers", type=int, default=2, help="concurrent simulation workers"
    )
    serve.add_argument(
        "--store-dir",
        metavar="DIR",
        default=None,
        help="result-store directory (default: the repro result cache)",
    )
    serve.add_argument(
        "--store-budget",
        metavar="SIZE",
        default=None,
        help="LRU-evict the store beyond this size ('512M', '2G'; "
        "default $REPRO_STORE_BUDGET or unbounded)",
    )
    return serve


def add_client_parser(subparsers: Any) -> argparse.ArgumentParser:
    """Register the ``client`` subcommand (with its operation tree)."""
    client = subparsers.add_parser(
        "client", help="talk to a running experiment daemon"
    )
    _add_endpoint_options(client)
    client.add_argument(
        "--format",
        choices=("concise", "detailed"),
        default="concise",
        help="response format for read operations",
    )
    ops = client.add_subparsers(dest="client_op", required=True, metavar="OPERATION")
    ops.add_parser("status", help="daemon, pool and store statistics")
    ops.add_parser(
        "metrics", help="full metrics snapshots (counters, latency histograms)"
    )
    ops.add_parser("list", help="every job the daemon knows about")
    get = ops.add_parser("get", help="look one result up by key")
    get.add_argument("key", help="content key (as printed by submit/list)")
    cancel = ops.add_parser("cancel", help="cancel a queued job")
    cancel.add_argument("key", help="content key of the job")
    ops.add_parser("shutdown", help="stop the daemon cleanly")
    submit = ops.add_parser(
        "submit", help="submit configuration(s) without waiting (one per --seeds value)"
    )
    _add_config_options(submit)
    wait = ops.add_parser(
        "run-and-wait", help="submit one configuration and block for its result"
    )
    _add_config_options(wait)
    wait.add_argument(
        "--timeout", type=float, default=None, help="give up after this many seconds"
    )
    return client


# -- command implementations --------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the daemon until shutdown; returns a process exit code."""
    from repro.obs.log import setup_logging
    from repro.service.daemon import ExperimentService
    from repro.service.store import ResultStore, default_cache_dir

    setup_logging(quiet=getattr(args, "quiet", False))
    try:
        store = ResultStore(
            args.store_dir if args.store_dir else default_cache_dir(),
            budget_bytes=args.store_budget,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = ExperimentService(store, workers=args.workers)

    def announce(address: str) -> None:
        print(
            f"repro service listening on {address} "
            f"(workers={args.workers}, store={store.directory})",
            flush=True,
        )

    if args.host is not None:
        service.run(host=args.host, port=args.port, on_ready=announce)
    else:
        service.run(socket_path=args.socket, on_ready=announce)
    print("repro service stopped", flush=True)
    return 0


def _client_from(args: argparse.Namespace) -> ServiceClient:
    if args.host is not None:
        return ServiceClient(host=args.host, port=args.port)
    return ServiceClient(socket_path=args.socket)


def cmd_client(args: argparse.Namespace) -> int:
    """Execute one client operation; prints the JSON response(s)."""
    if args.host is not None and not args.port:
        # Port 0 means "pick one" for serve; for a client it is never a
        # daemon to connect to.
        print(
            "error: client --host requires --port (the port 'repro-cli serve' printed)",
            file=sys.stderr,
        )
        return 2
    try:
        with _client_from(args) as client:
            if args.client_op == "status":
                response: Any = client.status()
            elif args.client_op == "metrics":
                response = client.metrics()
            elif args.client_op == "list":
                response = client.list(response_format=args.format)
            elif args.client_op == "get":
                response = client.get(args.key, response_format=args.format)
            elif args.client_op == "cancel":
                response = client.cancel(args.key)
            elif args.client_op == "shutdown":
                response = client.shutdown()
            elif args.client_op == "submit":
                configs = _configs_from(args)
                if len(configs) == 1:
                    response = client.submit(configs[0], response_format=args.format)
                else:
                    response = client.batch(configs, response_format=args.format)
            elif args.client_op == "run-and-wait":
                configs = _configs_from(args)
                if len(configs) != 1:
                    print("error: run-and-wait takes exactly one seed", file=sys.stderr)
                    return 2
                response = client.run_and_wait(
                    configs[0], timeout=args.timeout, response_format=args.format
                )
            else:  # pragma: no cover - argparse enforces the choices
                print(f"error: unknown operation {args.client_op!r}", file=sys.stderr)
                return 2
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (OSError, ConnectionError) as error:
        print(
            f"error: cannot reach the daemon ({error}); is 'repro-cli serve' running?",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0
