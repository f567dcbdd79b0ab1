#!/usr/bin/env python
"""Drive the experiment daemon: submit, coalesce, wait, read the store.

This example starts a daemon in-process (so it is self-contained and leaves
nothing behind), then exercises the client workflow a notebook or dashboard
would use:

1. ``batch``-submit a small policy sweep without waiting;
2. ``run_and_wait`` one config — and submit it a *second* time to show the
   submission coalescing onto the already-finished run (``via: session``);
3. read concise results (digest + headline metrics) off the daemon, and
   show the store serving a restarted daemon without re-simulating.

Run it with::

    PYTHONPATH=src python examples/service_client.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

from repro.service import ResultStore, ServiceClient
from repro.service.daemon import ExperimentService


def start_daemon(store: ResultStore, socket_path: Path) -> threading.Thread:
    """Run an ExperimentService in a background thread; returns when ready."""
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: ExperimentService(store, workers=2).run(
            socket_path=socket_path, on_ready=lambda _address: ready.set()
        ),
        daemon=True,
    )
    thread.start()
    ready.wait(30)
    return thread


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        store_dir = Path(scratch) / "store"
        socket_path = Path(scratch) / "repro.sock"
        daemon = start_daemon(ResultStore(store_dir), socket_path)

        sweep = [
            {
                "name": "service-demo",
                "workload": workload,
                "malleability_policy": policy,
                "job_count": 12,
                "seed": 0,
            }
            for policy in ("FPSMA", "EGS")
            for workload in ("Wm", "Wmr")
        ]

        with ServiceClient(socket_path=socket_path) as client:
            # 1. Fire-and-forget a 4-config sweep in one round-trip.
            batch = client.batch(sweep)
            print(f"submitted {batch['count']} configs:")
            for job in batch["jobs"]:
                print(f"  {job['key'][:12]}…  {job['state']:8s} via {job['via']}")

            # 2. run_and_wait blocks for one of them; resubmitting the same
            #    config afterwards is answered without a second simulation.
            first = client.run_and_wait(sweep[0], timeout=300)
            again = client.submit(sweep[0])
            print(f"\nrun_and_wait: digest {first['digest'][:12]}… via {first['via']}")
            print(f"resubmit:     digest {again['digest'][:12]}… via {again['via']}")

            # 3. Concise results for the whole sweep (every run has finished
            #    or will finish; run_and_wait attaches rather than re-runs).
            print("\nsweep results (concise):")
            for config in sweep:
                response = client.run_and_wait(config, timeout=300)
                metrics = response["metrics"]
                print(
                    f"  {config['malleability_policy']:5s}/{config['workload']:4s}"
                    f"  mean_response={metrics['mean_response_time']:8.2f}"
                    f"  grows={metrics['grow_messages']:.0f}"
                )

            status = client.status()
            print(
                f"\ndaemon ran {status['executions']} simulations for "
                f"{status['requests']} requests "
                f"({status['store']['entries']} records in the store)"
            )
            client.shutdown()
        daemon.join(30)

        # A fresh daemon over the same store needs zero executions: results
        # are content-addressed on disk, not tied to a daemon lifetime.
        daemon = start_daemon(ResultStore(store_dir), socket_path)
        with ServiceClient(socket_path=socket_path) as client:
            response = client.run_and_wait(sweep[0], timeout=30)
            status = client.status()
            print(
                f"after restart: via {response['via']}, "
                f"executions={status['executions']}"
            )
            client.shutdown()
        daemon.join(30)


if __name__ == "__main__":
    main()
