"""The ``daemon-mixed`` workload: a fixed request mix against ``repro-cli serve``.

One daemon lifetime is one pass.  The daemon starts on a copy of a store
that set-up filled in-process, and two client connections, each driven by
its own thread of this process, work through a fixed script in a closed
loop (each waits for its reply before sending the next request):

* reads: configurations already in the store;
* misses: new configurations, each simulated by a worker and written back;
* pairs: one new configuration sent by both clients at once, which the
  daemon must run once and hand to both.

Every configuration has about 60 jobs and is one of the 13 variants of the
``figure7``, ``figure8``, ``churn-replay`` and ``trace-replay`` scenarios,
with a seed drawn from the benchmark seed.  Both kinds of request are
stratified, so that two benchmark seeds compare the same work: the reads
cycle through the variants in order, 28 reads of each, and each lifetime
simulates every variant exactly once, the same variants as misses and as
pairs and at the same places in the script.  In-process the variants take
45 to 95 ms apiece and their records differ in size, so a random draw of
variants would change the work from one seed to the next.  A run's
lifetimes cycle through :data:`SETS` sets of seeds for the simulated
requests, each lifetime on a fresh copy of the filled store.

The counts are sized so that the service, the store and the protocol do
most of the work.  One 60-job simulation costs about as much as a dozen
store-served replies (about 100 ms against 8 ms on a 2-core Intel Xeon), so
364 reads stand beside 9 misses and 4 pairs, and the reads take the larger
share of the clients' request time.  The timed run prints that share beside
``req_per_s`` and the traced run reports it as ``service.read_share``.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

import measure
import procs

MIX_JOBS = 60
READS = 364
WORKERS = 2
SCENARIOS = ("figure7", "figure8", "churn-replay", "trace-replay")

#: Which of the 13 scenario variants, in expansion order, are sent as
#: pairs: one of each scenario (figure7 FPSMA/Wmr, figure8 EGS/W'm,
#: churn-replay rigid, trace-replay EGS).  The other 9 are misses.
PAIR_VARIANTS = (1, 6, 9, 11)

#: Sets of seeds for the simulated requests that a run's lifetimes cycle
#: through, one set per lifetime, as the simulation passes cycle through
#: their input seeds.
SETS = 5

#: How long one request, daemon start-up or shutdown may take.
REQUEST_TIMEOUT = 30.0


@dataclass(frozen=True)
class Request:
    kind: str  # "read", "miss" or "pair"
    label: str
    config: Any


@dataclass
class Mix:
    reads: List[Request]
    misses: List[Request]
    pairs: List[Request]

    @property
    def requests(self) -> List[Request]:
        return self.reads + self.misses + self.pairs

    def scripts(self) -> Tuple[List[Request], List[Request]]:
        """The two clients' request sequences.

        The reads are dealt alternately to the clients, and each client's
        reads are cut into one segment more than there are pairs, a pair
        request after every segment but the last, at the same position in
        both scripts.  The misses are dealt alternately too, one to each
        segment: a quarter of the way into it for the first client and three
        quarters for the second, so that a simulation is served beside the
        other client's reads rather than beside its simulation.
        """
        scripts: Tuple[List[Request], List[Request]] = ([], [])
        for client in (0, 1):
            segments = _split(self.reads[client::2], len(self.pairs) + 1)
            for index, miss in enumerate(self.misses[client::2]):
                segment = segments[index % len(segments)]
                segment.insert(len(segment) * (1 + 2 * client) // 4, miss)
            for index, segment in enumerate(segments):
                scripts[client].extend(segment)
                if index < len(self.pairs):
                    scripts[client].append(self.pairs[index])
        return scripts


def _split(items: List[Request], parts: int) -> List[List[Request]]:
    return [items[len(items) * i // parts: len(items) * (i + 1) // parts] for i in range(parts)]


def build_mixes(seed: int) -> List[Mix]:
    """The :data:`SETS` request mixes of *seed*: the same reads, fresh simulations.

    Every configuration has a seed of its own, so no two requests share a
    result.  The reads cycle through the scenario variants in order; each
    mix simulates every variant once, those of :data:`PAIR_VARIANTS` as
    pairs and the rest as misses, in variant order.
    """
    from repro.experiments.scenarios import get_scenario

    variants = [
        (name, label, config)
        for name in SCENARIOS
        for label, config in get_scenario(name).expand(job_count=MIX_JOBS, seed=0)
    ]
    rng = random.Random(seed)
    seeds = iter(rng.sample(range(1, 1_000_000), READS + SETS * len(variants)))

    def request(kind: str, index: int, variant) -> Request:
        name, label, config = variant
        config_seed = next(seeds)
        return Request(kind, f"{kind}{index:03d} {name}:{label} seed={config_seed}",
                       config.with_overrides(seed=config_seed))

    reads = [request("read", index, variants[index % len(variants)]) for index in range(READS)]
    mixes = []
    for number in range(SETS):
        first = READS + number * len(variants)
        simulated = [
            request("pair" if position in PAIR_VARIANTS else "miss", first + position, variant)
            for position, variant in enumerate(variants)
        ]
        mixes.append(Mix(
            reads=reads,
            misses=[r for r in simulated if r.kind == "miss"],
            pairs=[r for r in simulated if r.kind == "pair"],
        ))
    return mixes


def fill_store(mix: Mix, directory: Path) -> Dict[str, str]:
    """Run the read configurations into a store; returns their digests."""
    from repro.experiments.engine import ResultCache, run_configs
    from repro.service.protocol import metrics_digest

    results = run_configs(
        [request.config for request in mix.reads], jobs=WORKERS, cache=ResultCache(directory)
    )
    return {
        request.label: metrics_digest({"metrics": result.metrics.to_dict()})
        for request, result in zip(mix.reads, results)
    }


@dataclass
class Reply:
    request: Request
    seconds: float
    ok: bool
    via: str = ""
    digest: str = ""
    problem: str = ""


@dataclass
class Lifetime:
    """One daemon lifetime: its clock readings, replies and counters."""

    spawned: float = 0.0
    ready: float = 0.0
    loop_start: float = 0.0
    loop_end: float = 0.0
    verified: float = 0.0
    peak_rss_mb: float = 0.0
    replies: List[Reply] = field(default_factory=list)
    status: Dict[str, Any] = field(default_factory=dict)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def _check_reply(request: Request, response: Dict[str, Any]) -> str:
    """Why a successful response is still wrong, or ``""``."""
    if response.get("truncated"):
        return "truncated run"
    summary = response.get("metrics") or {}
    if summary.get("unfinished", 0) != 0 or summary.get("jobs") != request.config.job_count:
        return f"finished {summary.get('jobs')} of {request.config.job_count} jobs"
    return ""


def _client(client, script: List[Request], barrier: threading.Barrier, replies: List[Reply]) -> None:
    from repro.service.client import ServiceError

    for request in script:
        started = time.perf_counter()
        try:
            if request.kind == "pair":
                barrier.wait(timeout=REQUEST_TIMEOUT)
                started = time.perf_counter()
            response = client.run_and_wait(request.config, timeout=REQUEST_TIMEOUT)
        except (ServiceError, OSError, ValueError, threading.BrokenBarrierError) as error:
            replies.append(Reply(request, time.perf_counter() - started, False, problem=str(error)))
            continue
        seconds = time.perf_counter() - started
        problem = _check_reply(request, response)
        replies.append(
            Reply(request, seconds, not problem, response.get("via", ""), response.get("digest", ""), problem)
        )


def run_script(socket: str, scripts, replies: List[Reply]) -> None:
    """Drive both clients through their scripts, in a closed loop each."""
    from repro.service.client import ServiceClient

    barrier = threading.Barrier(2)
    clients = [ServiceClient(socket_path=socket, timeout=REQUEST_TIMEOUT) for _ in scripts]
    threads = [
        threading.Thread(target=_client, args=(client, script, barrier, replies))
        for client, script in zip(clients, scripts)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=REQUEST_TIMEOUT * (len(scripts[0]) + 1))
    finally:
        barrier.abort()
        for client in clients:
            client.close()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish")


def daemon_lifetime(
    root: Path,
    template: Path,
    workdir: Path,
    phases: List[Tuple[List[Request], List[Request]]],
    *,
    snapshot_metrics: bool = False,
) -> Lifetime:
    """Start ``repro-cli serve`` on a copy of *template* and run *phases*.

    Each phase is a pair of client scripts.  With *snapshot_metrics* the
    daemon's ``metrics`` op is read after every phase.
    """
    from repro.service.client import ServiceClient

    store = workdir / "store"
    shutil.copytree(template, store)
    # A relative socket path keeps clear of the 108-byte limit on Unix
    # socket paths whatever the checkout's location; both sides share cwd.
    socket = os.path.relpath(workdir / "d.sock", root)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    life = Lifetime()
    with open(workdir / "daemon.log", "wb") as log:
        life.spawned = time.perf_counter()
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.cli", "serve",
                "--workers", str(WORKERS), "--socket", socket, "--store-dir", str(store),
            ],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        control = ServiceClient(socket_path=socket, timeout=REQUEST_TIMEOUT)
        try:
            control.wait_until_ready(timeout=REQUEST_TIMEOUT)
            control.status()
            life.ready = time.perf_counter()
            life.loop_start = time.perf_counter()
            for scripts in phases:
                run_script(socket, scripts, life.replies)
                if snapshot_metrics:
                    life.metrics.append(control.metrics())
            life.loop_end = time.perf_counter()
            life.status = control.status()
            life.verified = time.perf_counter()
            # Read while the pool's workers still run: the daemon and every
            # worker, each a process of its own.
            life.peak_rss_mb = procs.tree_high_water_mb(process.pid)
            control.shutdown()
            process.wait(timeout=REQUEST_TIMEOUT)
        finally:
            control.close()
            if process.poll() is None:
                process.kill()
                process.wait(timeout=REQUEST_TIMEOUT)
                life.problems.append("daemon killed: it had not stopped")
    return life


def verify_lifetime(life: Lifetime, mix: Mix, expected: Dict[str, str], ok) -> None:
    """Check every reply, every pair and the daemon's counters with ``ok.check``.

    *expected* maps request labels to the digests their results must
    reproduce; the two replies of a pair must also agree, and the counters
    must equal the mix's design.
    """
    for problem in life.problems:
        ok.check(problem)
    pair_digests: Dict[str, set] = {}
    for reply in life.replies:
        label = reply.request.label
        if reply.ok and label in expected and reply.digest != expected[label]:
            reply.ok, reply.problem = False, "digest differs from the expected one"
        if reply.ok and reply.request.kind == "read" and reply.via != "store":
            reply.ok, reply.problem = False, f"read served via {reply.via!r}"
        if reply.request.kind == "pair":
            pair_digests.setdefault(label, set()).add(reply.digest)
        ok.check("" if reply.ok else f"{label}: {reply.problem}")
    for label, digests in pair_digests.items():
        ok.check("" if len(digests) == 1 else f"{label}: the two clients got different results")
    design = {
        "store_served": len(mix.reads),
        "executions": len(mix.misses) + len(mix.pairs),
        "coalesced": len(mix.pairs),
    }
    counters = {name: life.status.get(name) for name in design}
    ok.check("" if counters == design else f"daemon counters {counters} differ from the mix's {design}")


def reply_latencies(life: Lifetime) -> Tuple[List[float], List[float]]:
    """Hit and miss latencies in ms; a failed request misses every limit."""
    hits: List[float] = []
    misses: List[float] = []
    for reply in life.replies:
        latency = measure.request_latency(reply.seconds, reply.ok)
        (hits if reply.request.kind == "read" else misses).append(latency)
    return hits, misses


def read_share(life: Lifetime) -> float:
    """Share of the clients' request time spent on store-served reads."""
    hits, misses = reply_latencies(life)
    return sum(hits) / (sum(hits) + sum(misses))


def simulated_jobs(mix: Mix) -> int:
    """KOALA jobs the daemon simulates in one lifetime."""
    return sum(request.config.job_count for request in mix.misses + mix.pairs)


def request_count(mix: Mix) -> int:
    return len(mix.reads) + len(mix.misses) + 2 * len(mix.pairs)
