"""The four benchmark workloads: inputs, set-up and the timed phase.

Every workload drives the program only through entry points users call
-- ``BatchRunner.run_stream``, ``repro serve`` over HTTP and
``RemoteDispatcher`` -- from one client process with at most ``JOBS``
threads and connections, on the default LP/MILP backend.  Inputs derive
from ``--seed`` alone, on seed streams disjoint from the warm-up inputs:
``repro serve --no-cache`` still keeps a memory cache and
``BatchRunner`` dedupes by digest, so a warm-up task equal to a timed
one would be a free hit.

Batch workloads submit *rounds* (one fresh task list per
``run_stream`` call) back to back until the run's time is up, so every
round is a real solve of new digests and the timed work scales with
``--seconds``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

import repro.serve.client as serve_client
from repro.engine import (
    BatchRunner,
    ResultCache,
    SweepGrid,
    Task,
    TaskResult,
    backend_task_params,
    build_sweep_tasks,
    make_task,
)
from repro.fabric import RemoteDispatcher, task_payload
from repro.instances import SWEEP_GENERATORS
from repro.obs import REGISTRY as OBS

from perfbench.harness import (
    Gate,
    Server,
    metric_sum,
    reap_local_workers,
    sub_seed,
)

#: Worker processes, client threads and connections: the ``nproc`` of
#: the two-core box the workloads were sized on.  Fixed, not read from
#: the machine, so a workload means the same thing everywhere.
JOBS = 2

# Seed streams (see harness.sub_seed).
_WARM, _ROUNDS, _SOLVES, _BATCHES = 1, 2, 3, 4

BUSY_GENERATORS = ("interval", "flexible", "proper", "clique")
BUSY_PACKERS = ("greedy_tracking", "first_fit", "chain_peeling", "kumar_rudra")
BUSY_G = (2, 4)
#: Share of a busy round whose digest repeats an earlier task's.
REPEAT_FRAC = 0.2


@dataclass
class Context:
    """What one run's set-up needs to know."""

    seed: int
    seconds: float
    tiny: bool
    work: Path
    traced: bool
    cache_logs: list[Path] = field(default_factory=list)

    def cache_log(self, label: str) -> Path | None:
        """Where a traced server logs its cache operations (else None)."""
        if not self.traced:
            return None
        path = self.work / f"cache-ops-{label}-{len(self.cache_logs)}.json"
        self.cache_logs.append(path)
        return path


@dataclass
class Measure:
    """Raw observations of one timed phase."""

    #: ``time.monotonic()`` when the timed phase began (servers share
    #: the clock, so their logs can be cut at this instant).
    start_mono: float = 0.0
    wall: float = 0.0
    #: Worker slots that solved the results (for utilisation).
    capacity: int = JOBS
    #: ``/solve`` latency from its due time (serve-mixed only).
    latencies_ms: list[float] = field(default_factory=list)
    #: Results delivered by rounds (``run_stream`` calls or ``/batch``).
    bulk_results: int = 0
    #: Time to the first result of each round or ``/batch``.
    ttfr_ms: list[float] = field(default_factory=list)
    #: How late the open-loop generator sent each ``/solve``.
    lag_ms: list[float] = field(default_factory=list)
    #: Every result delivered, in arrival order.
    results: list[TaskResult] = field(default_factory=list)
    #: The fixed, seed-determined subset ``cost_vs_lb`` is taken over.
    cost_results: list[TaskResult] = field(default_factory=list)
    #: Engine counter deltas over the timed phase (steals, leases, ...).
    counters: dict[str, float] = field(default_factory=dict)
    #: Fabric only: tasks dispatched per host, total window, re-queues.
    host_dispatched: dict[str, int] = field(default_factory=dict)
    windows: int = 0
    retried: int = 0


class Rounds:
    """Task rounds made during set-up: as many as ``seconds`` at about
    ``rate`` tasks/s will use, plus two; more are made on demand if a
    run outpaces the estimate."""

    def __init__(
        self,
        make: Callable[[int], Any],
        seconds: float,
        rate: float,
        size: Callable[[Any], int] = len,
    ) -> None:
        self._make = make
        self._made = [make(0)]
        count = 2 + math.ceil(seconds * rate / max(1, size(self._made[0])))
        self._made.extend(make(r) for r in range(1, count))

    def __getitem__(self, r: int) -> Any:
        while r >= len(self._made):
            self._made.append(self._make(len(self._made)))
        return self._made[r]


def unique_tasks(tasks: Iterable[Task]) -> list[Task]:
    """First occurrence of every digest, in order."""
    seen: set[str] = set()
    out = []
    for task in tasks:
        if task.digest not in seen:
            seen.add(task.digest)
            out.append(task)
    return out


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def active_grid(tiny: bool) -> SweepGrid:
    """{active, tight} x {minimal, rounding} x g in {12, 16}, n=300.

    g=8 and g=10 are infeasible for some seeds at this density; an
    infeasible task would count as a failed operation.
    """
    return SweepGrid(
        problem="active",
        generators=("active", "tight"),
        algorithms=("minimal", "rounding"),
        g_values=(12, 16),
        instances_per_cell=1 if tiny else 3,
        n=40 if tiny else 300,
        horizon=24 if tiny else 120,
    )


def busy_tasks(
    seed: int,
    *,
    n: int,
    horizon: int,
    reps: int,
    repeat_frac: float = REPEAT_FRAC,
    generators: Sequence[str] = BUSY_GENERATORS,
    packers: Sequence[str] = BUSY_PACKERS,
    g_values: Sequence[int] = BUSY_G,
) -> list[Task]:
    """Busy-time tasks built with ``make_task`` (no structure group, no
    timeout), shuffled, with ``repeat_frac`` of the list repeating an
    earlier task's digest.  Each instance is shared by every packer."""
    rng = np.random.default_rng(seed)
    params = backend_task_params("busy", packers[0], None)
    unique: list[Task] = []
    for generator in generators:
        for g in g_values:
            for _ in range(reps):
                inst_seed = int(rng.integers(2**31))
                instance = SWEEP_GENERATORS[generator](n, horizon, g, inst_seed)
                for packer in packers:
                    unique.append(
                        make_task(
                            0,
                            "busy",
                            packer,
                            g,
                            instance,
                            params=params,
                            meta={"generator": generator, "seed": inst_seed},
                        )
                    )
    order = [unique[i] for i in rng.permutation(len(unique))]
    # The cheapest kind of task goes first, so time to first result
    # measures dispatch and delivery rather than which packer the
    # shuffle happened to put at the head.
    head = min(
        range(len(order)),
        key=lambda i: (order[i].algorithm, order[i].meta["generator"]) != (
            packers[0], generators[0]
        ),
    )
    order.insert(0, order.pop(head))
    repeats = round(len(unique) * repeat_frac / (1.0 - repeat_frac))
    for _ in range(repeats):
        src = int(rng.integers(len(order)))
        order.insert(int(rng.integers(src + 1, len(order) + 1)), order[src])
    return [replace(task, index=i) for i, task in enumerate(order)]


def busy_round(seed: int, r: int, tiny: bool) -> list[Task]:
    """Round ``r`` of busy-batch (and of fabric-sweep: same list)."""
    if tiny:
        return busy_tasks(sub_seed(seed, _ROUNDS, r), n=20, horizon=20, reps=1)
    return busy_tasks(sub_seed(seed, _ROUNDS, r), n=80, horizon=60, reps=5)


def warm_busy(seed: int, count: int) -> list[Task]:
    """Small flexible tasks: each reaches the OPT_inf MILP (lazy scipy
    import, first HiGHS solve) wherever it runs."""
    return busy_tasks(
        sub_seed(seed, _WARM, 1),
        n=20,
        horizon=20,
        reps=count,
        repeat_frac=0.0,
        generators=("flexible",),
        packers=("greedy_tracking",),
        g_values=(2,),
    )


def solve_requests(seed: int, count: int) -> list[Task]:
    """The ``/solve`` mix: half small active-time tasks (n=40, horizon=24,
    g=10, minimal or rounding), half small busy-time greedy_tracking
    tasks (interval or flexible); a quarter repeat an earlier request."""
    rng = np.random.default_rng(sub_seed(seed, _SOLVES))
    kinds = (
        ("active", "minimal", "active"),
        ("active", "rounding", "active"),
        ("busy", "greedy_tracking", "interval"),
        ("busy", "greedy_tracking", "flexible"),
    )
    tasks: list[Task] = []
    for k in range(count):
        if k >= 4 and rng.random() < 0.25:
            tasks.append(tasks[int(rng.integers(k))])
            continue
        problem, algorithm, generator = kinds[int(rng.integers(len(kinds)))]
        inst_seed = int(rng.integers(2**31))
        if problem == "active":
            g, instance = 10, SWEEP_GENERATORS[generator](40, 24, 10, inst_seed)
        else:
            g, instance = 3, SWEEP_GENERATORS[generator](40, 30, 3, inst_seed)
        tasks.append(
            make_task(
                k,
                problem,
                algorithm,
                g,
                instance,
                params=backend_task_params(problem, algorithm, None),
                meta={"generator": generator, "seed": inst_seed},
            )
        )
    return tasks


def wire_request(task: Task) -> dict[str, Any]:
    """``POST /solve`` / ``/batch`` body object for ``task``.

    No backend is named: the server resolves its default, which pins
    the same params -- and so the same digest -- as the local task.
    The module attribute is looked up per call so a traced run can time
    the encoder.
    """
    return serve_client.task_request(
        task.instance,
        task.problem,
        task.g,
        algorithm=task.algorithm,
        meta=task.meta,
    )


# ----------------------------------------------------------------------
# Timed loops
# ----------------------------------------------------------------------
def run_rounds(
    submit: Callable[[list[Task]], Iterable[TaskResult]],
    rounds: Rounds,
    seconds: float,
    gate: Gate,
    path: str,
    m: Measure,
    after_round: Callable[[Any], None] | None = None,
) -> None:
    """Submit rounds back to back until ``seconds`` have passed; the
    wall clock runs to the end of the last round."""
    m.start_mono = time.monotonic()
    start = time.perf_counter()
    r = 0
    while True:
        tasks = rounds[r]
        submitted = time.perf_counter()
        stream = submit(tasks)
        take_round(tasks, stream, submitted, gate, path, m, r == 0)
        if after_round is not None:
            after_round(stream)
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    m.wall = time.perf_counter() - start


def take_round(
    tasks: Sequence[Task],
    stream: Iterable[TaskResult],
    submitted: float,
    gate: Gate,
    path: str,
    m: Measure,
    cost: bool,
) -> None:
    """Consume one round's results in task order: check each, record
    the time from ``submitted`` to the first, and count every task left
    without a result -- the stream may raise -- as failed.  ``cost``
    adds the results to the ``cost_vs_lb`` subset."""
    delivered = 0
    try:
        for task, result in zip(tasks, stream):
            if delivered == 0:
                m.ttfr_ms.append((time.perf_counter() - submitted) * 1e3)
            delivered += 1
            gate.check(result, path, expect_digest=task.digest)
            m.results.append(result)
            if cost:
                m.cost_results.append(result)
    finally:
        for task in tasks[delivered:]:
            gate.fail(task.digest, task.seed, f"{path} delivered no result")
        m.bulk_results += delivered


def _local_counters() -> dict[str, float]:
    return {
        "steals": OBS.value("repro_pool_steals_total"),
        "leases": OBS.value("repro_pool_leases_total"),
    }


def _server_counters(clients: Sequence[Any]) -> dict[str, float]:
    totals = {"steals": 0.0, "leases": 0.0, "stalls": 0.0}
    for client in clients:
        text = client.metrics()
        totals["steals"] += metric_sum(text, "repro_pool_steals_total")
        totals["leases"] += metric_sum(text, "repro_pool_leases_total")
        totals["stalls"] += metric_sum(
            text, "repro_serve_backpressure_stalls_total"
        )
    return totals


def _delta(before: dict[str, float], after: dict[str, float]) -> dict:
    return {key: after[key] - before[key] for key in after}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Rig:
    """A set-up workload: live pools/servers plus generated inputs."""

    rounds: Rounds
    runner: BatchRunner | None = None
    servers: list[Server] = field(default_factory=list)
    clients: list[Any] = field(default_factory=list)
    dispatcher: RemoteDispatcher | None = None
    solves: list[tuple[Task, dict]] = field(default_factory=list)


class Workload:
    name = ""
    why = ""
    #: Label the correctness gate gives results from this workload.
    path = ""

    def setup(self, ctx: Context) -> Rig:
        raise NotImplementedError

    def run(self, rig: Rig, seconds: float, gate: Gate) -> Measure:
        raise NotImplementedError

    def teardown(self, rig: Rig) -> None:
        if rig.runner is not None:
            rig.runner.close()
            reap_local_workers()
        for client in rig.clients:
            client.close()
        for server in rig.servers:
            server.stop()

    def replay_tasks(self, rig: Rig) -> list[Task]:
        """The tasks the traced run replays serially (distinct digests)."""
        return unique_tasks(rig.rounds[0])

    def wire_payloads(self, rig: Rig) -> list[dict]:
        """Request objects this workload sends over HTTP (for io.*)."""
        return []


class LocalPool(Workload):
    """A workload whose rounds go to ``BatchRunner.run_stream``."""

    path = "pool"

    def run(self, rig: Rig, seconds: float, gate: Gate) -> Measure:
        m = Measure(capacity=JOBS)
        before = _local_counters()
        run_rounds(rig.runner.run_stream, rig.rounds, seconds, gate,
                   self.path, m)
        m.counters = _delta(before, _local_counters())
        return m


class ActiveSweep(LocalPool):
    name = "active-sweep"
    why = (
        "paper hot path: minimal + LP rounding at n=300 through "
        "BatchRunner(jobs=2); repro.flow dominates; sweep structure "
        "groups take the sticky watchdog pool"
    )

    def setup(self, ctx: Context) -> Rig:
        grid = active_grid(ctx.tiny)
        rounds = Rounds(
            lambda r: build_sweep_tasks(
                [grid], base_seed=sub_seed(ctx.seed, _ROUNDS, r)
            ),
            ctx.seconds,
            12.0,
        )
        runner = BatchRunner(jobs=JOBS)
        # One small LP-rounding task per worker: both watchdog workers
        # spawn and pay their first LP solve before the clock starts.
        warm = build_sweep_tasks(
            [
                SweepGrid(
                    problem="active",
                    generators=("active",),
                    algorithms=("rounding",),
                    g_values=(12,),
                    instances_per_cell=JOBS,
                    n=40,
                    horizon=24,
                )
            ],
            base_seed=sub_seed(ctx.seed, _WARM),
        )
        _warm_stream(runner.run_stream(warm))
        return Rig(rounds=rounds, runner=runner)


class BusyBatch(LocalPool):
    name = "busy-batch"
    why = (
        "busy-time packers on 4 generators, n=80, 20% repeated digests, "
        "BatchRunner(jobs=2) + fresh disk ResultCache: dispatch, IPC, "
        "dedupe and cache writes show"
    )

    def setup(self, ctx: Context) -> Rig:
        rounds = Rounds(
            lambda r: busy_round(ctx.seed, r, ctx.tiny), ctx.seconds, 150.0
        )
        cache_dir = ctx.work / f"cache-{time.monotonic_ns()}"
        runner = BatchRunner(jobs=JOBS, cache=ResultCache(directory=cache_dir))
        _warm_stream(runner.run_stream(warm_busy(ctx.seed, 2 * JOBS)))
        return Rig(rounds=rounds, runner=runner)


class ServeMixed(Workload):
    name = "serve-mixed"
    why = (
        "one repro serve --jobs 2: open-loop /solve at 20/s (25% repeats) "
        "beside back-to-back /batch of 120 busy tasks: serve parsing, "
        "backpressure, cache reads, urgent vs bulk"
    )
    path = "serve"
    #: Open-loop ``/solve`` rate, requests per second.
    RATE = 20.0

    def setup(self, ctx: Context) -> Rig:
        server = Server(
            ["--jobs", str(JOBS), "--no-cache"], ctx.work,
            ctx.cache_log("serve"),
        )
        try:
            url = server.wait_ready()
            count = max(1, round(self.RATE * ctx.seconds))
            solves = [(t, wire_request(t)) for t in
                      solve_requests(ctx.seed, count)]
            reps = 1 if ctx.tiny else 3

            def batch(b: int) -> tuple[list[Task], list[dict]]:
                tasks = busy_tasks(
                    sub_seed(ctx.seed, _BATCHES, b),
                    n=20 if ctx.tiny else 80,
                    horizon=20 if ctx.tiny else 60,
                    reps=reps,
                )
                return tasks, [wire_request(t) for t in tasks]

            rounds = Rounds(batch, ctx.seconds, 90.0,
                            size=lambda made: len(made[0]))
            solve_client = serve_client.ServeClient(url, http_timeout=120.0)
            batch_client = serve_client.ServeClient(url, http_timeout=300.0)
            # Warm-up: one /batch spawns the server's process pool and its
            # workers' first MILP; a few /solve pay the server's own lazy
            # imports and first solves.
            warm = warm_busy(ctx.seed, 2 * JOBS)
            _warm_stream(batch_client.batch([wire_request(t) for t in warm]))
            batch_client.close()
            extra = solve_requests(sub_seed(ctx.seed, _WARM, 2), 4)
            for task in extra:
                solve_client.solve_payload(wire_request(task))
        except BaseException:
            server.stop()
            raise
        return Rig(
            rounds=rounds,
            servers=[server],
            clients=[solve_client, batch_client],
            solves=solves,
        )

    def run(self, rig: Rig, seconds: float, gate: Gate) -> Measure:
        m = Measure(capacity=JOBS)
        solve_client, batch_client = rig.clients
        before = _server_counters([solve_client])
        stop = threading.Event()
        m.start_mono = time.monotonic()
        start = time.perf_counter()

        def bulk() -> None:
            # Closed loop: the next /batch goes out when the last ends.
            b = 0
            try:
                while not stop.is_set():
                    tasks, payloads = rig.rounds[b]
                    submitted = time.perf_counter()
                    try:
                        take_round(tasks, batch_client.batch(payloads),
                                   submitted, gate, self.path, m, b == 0)
                    except serve_client.ServeClientError as exc:
                        gate.fail(f"batch-{b}", None, f"/batch failed: {exc}")
                    b += 1
            finally:
                batch_client.close()

        thread = threading.Thread(target=bulk, name="perfbench-bulk")
        thread.start()
        try:
            # Open loop: request k is due at start + k / RATE and is
            # timed from that instant, so a stall delays later requests
            # and shows in their latency.
            for k, (task, payload) in enumerate(rig.solves):
                due = start + k / self.RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                m.lag_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
                try:
                    result = solve_client.solve_payload(payload)
                except serve_client.ServeClientError as exc:
                    gate.fail(task.digest, task.seed, f"/solve failed: {exc}")
                    continue
                m.latencies_ms.append((time.perf_counter() - due) * 1e3)
                gate.check(result, self.path, expect_digest=task.digest)
                m.results.append(result)
                m.cost_results.append(result)
        finally:
            stop.set()
            thread.join()
        m.wall = time.perf_counter() - start
        m.counters = _delta(before, _server_counters([solve_client]))
        return m

    def replay_tasks(self, rig: Rig) -> list[Task]:
        solves = unique_tasks(task for task, _ in rig.solves)[:100]
        return unique_tasks(solves + rig.rounds[0][0])

    def wire_payloads(self, rig: Rig) -> list[dict]:
        return [payload for _, payload in rig.solves] + rig.rounds[0][1]


class FabricSweep(Workload):
    name = "fabric-sweep"
    why = (
        "busy-batch's exact task list through RemoteDispatcher to two "
        "repro serve --jobs 1 hosts, windows from /healthz: the fabric's "
        "cost against the local pool"
    )
    path = "fabric"
    HOSTS = 2

    def setup(self, ctx: Context) -> Rig:
        servers = [
            Server(["--jobs", "1", "--no-cache"], ctx.work,
                   ctx.cache_log(f"host{i}"))
            for i in range(self.HOSTS)
        ]
        try:
            urls = [server.wait_ready() for server in servers]
            rounds = Rounds(
                lambda r: busy_round(ctx.seed, r, ctx.tiny),
                ctx.seconds,
                100.0,
            )
            # Each host solves in-process (--jobs 1): two small flexible
            # solves pay its lazy imports and first MILP.
            warm = warm_busy(ctx.seed, 2 * self.HOSTS)
            for i, url in enumerate(urls):
                client = serve_client.ServeClient(url)
                for task in warm[i::self.HOSTS]:
                    client.solve_payload(task_payload(task))
                client.close()
            dispatcher = RemoteDispatcher(urls, http_timeout=300.0)
            clients = [serve_client.ServeClient(url) for url in urls]
        except BaseException:
            for server in servers:
                server.stop()
            raise
        return Rig(rounds=rounds, servers=servers, clients=clients,
                   dispatcher=dispatcher)

    def run(self, rig: Rig, seconds: float, gate: Gate) -> Measure:
        m = Measure(capacity=self.HOSTS)
        before = _server_counters(rig.clients)

        def after_round(stream: Any) -> None:
            stats = rig.dispatcher.last_stats
            m.retried += stats.retried
            m.windows = sum(h.window for h in stats.hosts.values())
            for label, host in stats.hosts.items():
                m.host_dispatched[label] = (
                    m.host_dispatched.get(label, 0) + host.dispatched
                )

        run_rounds(rig.dispatcher.run_stream, rig.rounds, seconds, gate,
                   self.path, m, after_round)
        m.counters = _delta(before, _server_counters(rig.clients))
        for client in rig.clients:
            client.close()
        return m

    def wire_payloads(self, rig: Rig) -> list[dict]:
        return [task_payload(task) for task in rig.rounds[0]]


def _warm_stream(results: Iterable[TaskResult]) -> None:
    """Consume a warm-up stream; a failed warm-up aborts the run."""
    for result in results:
        if not result.ok:
            raise RuntimeError(f"warm-up task failed: {result.error}")


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ActiveSweep(), BusyBatch(), ServeMixed(), FabricSweep())
}
