"""The traced run: spans around each layer's public functions, from outside.

Only ``run.py --trace 1`` imports this module, so untraced runs carry no
wrapper.  Nothing under ``src/`` changes: each wrapper replaces a name
where its caller looks it up (a module global, a class attribute or an
``INTERVAL_ALGORITHMS`` entry) and is removed again afterwards.

* Solver layers (``repro.flow``, ``repro.lp``/``repro.solvers``,
  ``repro.activetime``, ``repro.busytime``) are measured by replaying
  the workload's task list in this process, one task at a time, each
  solved untraced and traced back to back; the difference is
  ``trace.overhead_frac``.
* Engine, serve and fabric layers are measured on the workload's normal
  multi-process timed phase, from parent-side wrappers (result cache,
  request encoder, fabric round trips), the spans and counters the
  program already returns, and -- for ``repro serve`` -- cache timings
  logged by ``perfbench/serve_traced.py`` in the server process.

Each span records name, start, end, parent span and task digest; spans
stay in memory and are written to ``.perfbench-spans/`` when the run
ends.  A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable

import repro.activetime as activetime
import repro.activetime.rightshift as rightshift
import repro.busytime as busytime
import repro.busytime.flexible as flexible
import repro.fabric.dispatcher as dispatcher
import repro.lp.milp as lp_milp
import repro.lp.solve as lp_solve
import repro.serve.client as serve_client
from repro.activetime.schedule import ActiveTimeSchedule
from repro.busytime.schedule import BusyTimeSchedule
from repro.engine import REGISTRY, ResultCache, TaskResult
from repro.flow.feasibility import ActiveTimeFeasibility
from repro.lp.model import ActiveTimeModel
from repro.obs import trace_spans
from repro.solvers.registry import capture_solves

from perfbench.harness import SPANS_ROOT, Gate, percentile
from perfbench.workloads import BUSY_PACKERS, FabricSweep

#: Solver-side wrap points: (owner, attribute, span name).
SOLVER_POINTS = (
    (ActiveTimeFeasibility, "__init__", "flow.build"),
    (ActiveTimeFeasibility, "max_flow_value", "flow.probe"),
    (ActiveTimeFeasibility, "is_feasible", "flow.probe"),
    (ActiveTimeFeasibility, "assignment", "flow.probe"),
    (lp_solve, "build_active_time_model", "lp.build"),
    (lp_milp, "build_active_time_model", "lp.build"),
    (rightshift, "build_active_time_model", "lp.build"),
    (ActiveTimeModel, "to_linear_program", "lp.build"),
    (lp_solve, "solve_ir", "solvers.solve"),
    (lp_milp, "solve_ir", "solvers.solve"),
    (rightshift, "solve_ir", "solvers.solve"),
    # The registry adapters import these from the packages at call time.
    (activetime, "round_active_time", "activetime.algorithm"),
    (activetime, "minimal_feasible_schedule", "activetime.algorithm"),
    (ActiveTimeSchedule, "verify", "activetime.verify"),
    (busytime, "schedule_flexible", "busytime.pipeline"),
    (flexible, "opt_infinity", "busytime.pin"),
    (busytime, "best_lower_bound", "busytime.bounds"),
    (BusyTimeSchedule, "verify", "busytime.verify"),
) + tuple(
    (flexible.INTERVAL_ALGORITHMS, name, f"busytime.pack.{name}")
    for name in BUSY_PACKERS
)

#: Units of the per-layer metrics, in the order they are printed
#: (BENCHMARK.json lists the same names and units).
LAYER_UNITS = {
    "flow.probes_per_task": "count",
    "flow.probe_ms_per_task": "ms",
    "flow.build_ms_per_task": "ms",
    "lp.build_ms_per_task": "ms",
    "solvers.solves_per_task": "count",
    "solvers.solve_ms_per_task": "ms",
    "solvers.warm_hit_frac": "ratio",
    "activetime.self_ms_per_task": "ms",
    "activetime.verify_ms_per_task": "ms",
    "busytime.pin_self_ms_per_task": "ms",
    **{f"busytime.pack_ms.{name}": "ms" for name in BUSY_PACKERS},
    "busytime.bounds_ms_per_task": "ms",
    "busytime.verify_ms_per_task": "ms",
    "engine.util": "ratio",
    "engine.queue_wait_ms_p50": "ms",
    "engine.queue_wait_ms_p95": "ms",
    "engine.dedupe_hits": "count",
    "engine.task_bytes": "bytes",
    "engine.steals": "count",
    "engine.leases": "count",
    "cache.get_ms_per_task": "ms",
    "cache.put_ms_per_task": "ms",
    "cache.hit_frac": "ratio",
    "serve.wire_ms_p50": "ms",
    "serve.wire_ms_p95": "ms",
    "serve.solving_ms_p50": "ms",
    "serve.queued_ms_p95": "ms",
    "serve.backpressure_stalls": "count",
    "io.request_bytes": "bytes",
    "io.encode_ms_per_task": "ms",
    "fabric.wire_ms_p50": "ms",
    "fabric.host_util": "ratio",
    "fabric.dispatch_skew": "ratio",
    "fabric.retried": "count",
    "loadgen.lag_p95_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    digest: str | None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Digest of the task the replay is solving (labels its spans).
        self.digest: str | None = None
        #: ``(round trip, server-side seconds)`` per remote ``/solve``.
        self.wire: list[tuple[float, float]] = []
        #: Hit flag of every parent-side ``ResultCache.get``.
        self.cache_hits: list[bool] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # -- recording ------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, tracer.digest)
                )

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- patching -------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (module global, class attribute or dict
        entry) in a span named ``name`` until :meth:`restore`."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original)
            self._undo.append(lambda: owner.__setitem__(attr, original))
        else:
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            self._undo.append(lambda: setattr(owner, attr, original))

    def _replace(self, owner: Any, attr: str, new: Callable) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install_parent_side(self) -> None:
        """Wrappers for the multi-process phase, installed before set-up."""
        tracer = self
        get = self.wrap("cache.get", ResultCache.get)

        def cache_get(cache: ResultCache, key: str) -> Any:
            record = get(cache, key)
            tracer.cache_hits.append(record is not None)
            return record

        self._replace(ResultCache, "get", cache_get)
        self.patch(ResultCache, "put", "cache.put")
        self.patch(serve_client, "task_request", "io.encode")
        self.patch(dispatcher, "task_payload", "io.encode")
        solve_payload = serve_client.ServeClient.solve_payload

        def timed_solve_payload(client: Any, payload: Any) -> TaskResult:
            start = time.perf_counter()
            result = solve_payload(client, payload)
            tracer.wire.append(
                (time.perf_counter() - start, _server_seconds(result))
            )
            return result

        self._replace(serve_client.ServeClient, "solve_payload",
                      timed_solve_payload)

    def start_timed_phase(self) -> None:
        """Forget set-up's cache operations and round trips (the request
        encoding done in set-up stays: it is the encoder's work)."""
        self.spans = [s for s in self.spans if s.name == "io.encode"]
        self.wire.clear()
        self.cache_hits.clear()

    def install_solver_side(self) -> None:
        for owner, attr, name in SOLVER_POINTS:
            self.patch(owner, attr, name)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _server_seconds(result: TaskResult) -> float:
    """Server-side time of one remote result: its ``total`` span, or the
    cache lookup alone for a cache hit."""
    spans = trace_spans(result.metrics)
    return spans.get("total", sum(spans.values()))


# ----------------------------------------------------------------------
# Serial replay
# ----------------------------------------------------------------------
def replay(tasks, gate: Gate, tracer: Tracer):
    """Solve every task in this process twice, as a jobs=1 runner does:
    once plain and once with the solver-side wrappers installed.

    The two solves of a task run back to back, in alternating order, so
    the machine's speed drifting during the replay reaches both sides
    alike.  Answers ``(untraced seconds, traced seconds, solver events
    of the traced solves)``.
    """
    # Lazy imports and each kind's first solve, off the clock.
    for task in {(t.problem, t.algorithm): t for t in tasks}.values():
        _solve_once(task, Gate(), REGISTRY.solve)
    traced_solve = tracer.wrap("task", REGISTRY.solve)
    events: list[dict] = []

    def plain(task) -> float:
        return _solve_once(task, gate, REGISTRY.solve)[0]

    def traced(task) -> float:
        tracer.install_solver_side()
        tracer.digest = task.digest
        try:
            seconds, solves = _solve_once(task, gate, traced_solve)
        finally:
            tracer.restore()
            tracer.digest = None
        events.extend(solves)
        return seconds

    untraced_s = traced_s = 0.0
    for k, task in enumerate(tasks):
        if k % 2:
            untraced_s += plain(task)
            traced_s += traced(task)
        else:
            traced_s += traced(task)
            untraced_s += plain(task)
    return untraced_s, traced_s, events


def _solve_once(task, gate: Gate, solve) -> tuple[float, list[dict]]:
    """Solve ``task`` with ``solve`` and check the result; answers the
    solve's seconds and its captured solver events."""
    start = time.perf_counter()
    try:
        with capture_solves() as solves:
            outcome = solve(
                task.problem, task.algorithm, task.instance, task.g,
                **task.params,
            )
    except Exception as exc:  # a failed solve is a counted failure
        gate.fail(task.digest, task.seed,
                  f"serial replay raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, []
    seconds = time.perf_counter() - start
    gate.check(
        TaskResult(
            index=task.index,
            digest=task.digest,
            problem=task.problem,
            algorithm=task.algorithm,
            g=task.g,
            n=task.instance.n,
            ok=True,
            objective=float(outcome.objective),
            metrics=dict(outcome.metrics),
            meta=task.meta,
        ),
        "serial replay",
    )
    return seconds, solves


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_run(workload, ctx, gate: Gate) -> dict:
    """Run ``workload`` once with every wrapper; ``{metric: (value, unit)}``."""
    tracer = Tracer()
    tracer.install_parent_side()
    try:
        rig = workload.setup(ctx)
        try:
            tracer.start_timed_phase()
            m = workload.run(rig, ctx.seconds, gate)
        finally:
            workload.teardown(rig)
    finally:
        tracer.restore()
    cache_ops = [
        op
        for path in ctx.cache_logs
        for op in json.loads(path.read_text())
        if op[1] >= m.start_mono
    ]

    tasks = workload.replay_tasks(rig)
    untraced_wall, traced_wall, events = replay(tasks, gate, tracer)
    _write_spans(tracer, workload.name, ctx.seed)
    return layer_metrics(
        workload, rig, m, tracer, tasks, events, cache_ops,
        untraced_wall, traced_wall,
    )


def layer_metrics(
    workload, rig, m, tracer, tasks, events, cache_ops,
    untraced_wall: float, traced_wall: float,
) -> dict:
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.dur

    def outermost(name: str) -> list[Span]:
        # is_feasible calls max_flow_value: count that probe once.
        return [
            s for s in spans
            if s.name == name
            and (s.parent is None or by_id[s.parent].name != name)
        ]

    def total(name: str) -> float:
        return sum(s.dur for s in outermost(name))

    def self_time(name: str) -> float:
        return sum(s.dur - covered[s.id] for s in spans if s.name == name)

    n = max(1, len(tasks))
    per_task_ms = lambda seconds: seconds / n * 1e3  # noqa: E731

    fresh = [r for r in m.results if not r.cached]
    solving = [trace_spans(r.metrics).get("solving", 0.0) for r in fresh]
    queued = [trace_spans(r.metrics).get("queued", 0.0) for r in fresh]
    remote = bool(rig.servers)
    fabric = isinstance(workload, FabricSweep)
    wire_ms = [(rtt - server) * 1e3 for rtt, server in tracer.wire]

    gets = [op for op in cache_ops if op[0] == "get"]
    puts = [op for op in cache_ops if op[0] == "put"]
    get_s = sum(s.dur for s in spans if s.name == "cache.get") + sum(
        op[2] for op in gets
    )
    put_s = sum(s.dur for s in spans if s.name == "cache.put") + sum(
        op[2] for op in puts
    )
    hits = sum(tracer.cache_hits) + sum(1 for op in gets if op[3])
    lookups = len(tracer.cache_hits) + len(gets)
    delivered = max(1, len(m.results))

    encodes = [s.dur for s in spans if s.name == "io.encode"]
    payloads = workload.wire_payloads(rig)
    dispatched = list(m.host_dispatched.values())
    task_spans = total("task")

    values = {
        "flow.probes_per_task": len(outermost("flow.probe")) / n,
        "flow.probe_ms_per_task": per_task_ms(total("flow.probe")),
        "flow.build_ms_per_task": per_task_ms(total("flow.build")),
        "lp.build_ms_per_task": per_task_ms(total("lp.build")),
        "solvers.solves_per_task": len(outermost("solvers.solve")) / n,
        "solvers.solve_ms_per_task": per_task_ms(total("solvers.solve")),
        "solvers.warm_hit_frac": (
            sum(1 for e in events
                if e["warm_start_used"] or e["structure_hit"])
            / len(events) if events else 0.0
        ),
        "activetime.self_ms_per_task": per_task_ms(
            self_time("activetime.algorithm")
        ),
        "activetime.verify_ms_per_task": per_task_ms(
            total("activetime.verify")
        ),
        "busytime.pin_self_ms_per_task": per_task_ms(self_time("busytime.pin")),
        **{
            f"busytime.pack_ms.{name}": (
                total(f"busytime.pack.{name}")
                / max(1, len(outermost(f"busytime.pack.{name}"))) * 1e3
            )
            for name in BUSY_PACKERS
        },
        "busytime.bounds_ms_per_task": per_task_ms(total("busytime.bounds")),
        "busytime.verify_ms_per_task": per_task_ms(total("busytime.verify")),
        "engine.util": sum(solving) / (m.capacity * m.wall),
        "engine.queue_wait_ms_p50": percentile(queued, 50) * 1e3,
        "engine.queue_wait_ms_p95": percentile(queued, 95) * 1e3,
        "engine.dedupe_hits": sum(1 for r in m.results if r.cached),
        "engine.task_bytes": (
            sum(len(pickle.dumps(t)) for t in tasks) / n
        ),
        "engine.steals": m.counters.get("steals", 0.0),
        "engine.leases": m.counters.get("leases", 0.0),
        "cache.get_ms_per_task": get_s / delivered * 1e3,
        "cache.put_ms_per_task": put_s / delivered * 1e3,
        "cache.hit_frac": hits / lookups if lookups else 0.0,
        "serve.wire_ms_p50": percentile(wire_ms, 50),
        "serve.wire_ms_p95": percentile(wire_ms, 95),
        "serve.solving_ms_p50": (
            percentile(solving, 50) * 1e3 if remote else 0.0
        ),
        "serve.queued_ms_p95": percentile(queued, 95) * 1e3 if remote else 0.0,
        "serve.backpressure_stalls": m.counters.get("stalls", 0.0),
        "io.request_bytes": (
            sum(len(json.dumps(p)) for p in payloads) / len(payloads)
            if payloads else 0.0
        ),
        "io.encode_ms_per_task": (
            sum(encodes) / len(encodes) * 1e3 if encodes else 0.0
        ),
        "fabric.wire_ms_p50": percentile(wire_ms, 50) if fabric else 0.0,
        "fabric.host_util": (
            sum(solving) / (m.windows * m.wall) if fabric and m.windows else 0.0
        ),
        "fabric.dispatch_skew": (
            max(dispatched) / min(dispatched)
            if fabric and dispatched and min(dispatched) else 0.0
        ),
        "fabric.retried": float(m.retried),
        "loadgen.lag_p95_ms": percentile(m.lag_ms, 95),
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.unattributed_frac": (
            self_time("task") / task_spans if task_spans else 0.0
        ),
    }
    return {name: (float(values[name]), LAYER_UNITS[name]) for name in LAYER_UNITS}


def _write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    SPANS_ROOT.mkdir(exist_ok=True)
    path = SPANS_ROOT / f"{workload}-seed{seed}-{os.getpid()}.jsonl"
    with path.open("w") as fh:
        for span in sorted(tracer.spans, key=lambda s: s.start):
            fh.write(json.dumps(asdict(span)) + "\n")
