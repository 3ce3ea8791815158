"""Tests for the watchdog pool lifecycle: warm-up, idle-TTL reaping,
and the two-level priority lease queue.

The pool itself (persistence, recovery) is covered by
``test_engine_stream.py``; here we exercise the serving-tier additions:
``BatchRunner.warm_up``, ``idle_ttl`` reaping, and urgent
(:data:`~repro.engine.PRIORITY_URGENT`) acquires jumping the bulk lease
queue.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.core import Instance
from repro.engine import BatchRunner, PRIORITY_URGENT, make_task
from repro.engine.registry import REGISTRY, SolveOutcome, SolverSpec
from repro.obs import REGISTRY as OBS

_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="test registers a solver that only fork-children inherit",
)


def _tasks(instances, problem="active", algorithm="minimal", g=2, **kw):
    return [
        make_task(
            index=i, problem=problem, algorithm=algorithm, g=g,
            instance=inst, **kw
        )
        for i, inst in enumerate(instances)
    ]


def _instances(count, seed=0):
    """Distinct small instances (solver cost grows with the horizon, so
    distinctness comes from modular offsets, not growing coordinates)."""
    return [
        Instance.from_tuples([
            (0, 4 + (seed + i) % 7, 2),
            (1, 9 + (seed + i) % 11, 3),
            (2, 6 + (seed + i) % 5, 1),
        ])
        for i in range(count)
    ]


def _register_temp_solver(name, fn, description="test-only"):
    if ("active", name) not in REGISTRY:
        REGISTRY.register(
            SolverSpec(
                problem="active",
                name=name,
                solve=fn,
                exact=False,
                guarantee="-",
                complexity="-",
                description=description,
            )
        )
    yield name
    REGISTRY._specs.pop(("active", name), None)


def _pool_sleepy_solver(instance, g, **params):
    time.sleep(0.6)
    return SolveOutcome(objective=float(g))


@pytest.fixture
def pool_sleepy_solver():
    yield from _register_temp_solver("pool-sleepy-test", _pool_sleepy_solver)


def _pool_gated_solver(instance, g, gate, delay, **params):
    """Block until the file ``gate`` exists, then sleep ``delay`` s.

    The gate is a file, not an event, because the solver runs in a
    forked worker process.
    """
    deadline = time.monotonic() + 30.0
    while not os.path.exists(gate):
        if time.monotonic() > deadline:
            raise RuntimeError(f"gate {gate} never opened")
        time.sleep(0.01)
    time.sleep(delay)
    return SolveOutcome(objective=float(g))


@pytest.fixture
def pool_gated_solver():
    yield from _register_temp_solver("pool-gated-test", _pool_gated_solver)


def _wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestWarmUp:
    def test_warm_up_spawns_jobs_workers(self):
        runner = BatchRunner(jobs=2)
        try:
            before = OBS.value("repro_pool_warmups_total")
            assert runner.warm_up() == 2
            assert runner._wd_total == 2
            assert len(runner._wd_idle) == 2
            assert OBS.value("repro_pool_warmups_total") == before + 2
        finally:
            runner.close()

    def test_warm_up_is_idempotent(self):
        runner = BatchRunner(jobs=2)
        try:
            assert runner.warm_up() == 2
            assert runner.warm_up() == 0
            assert runner._wd_total == 2
        finally:
            runner.close()

    def test_warm_up_tops_up_the_pool(self):
        runner = BatchRunner(jobs=3)
        try:
            # one deadlined task leases one worker, which stays pooled
            runner.run(_tasks(_instances(1), timeout=30.0))
            assert runner._wd_total == 1
            # topping up spawns only the remainder
            assert runner.warm_up() == 2
            assert runner._wd_total == 3
        finally:
            runner.close()

    def test_warm_up_noop_for_serial_runner(self):
        runner = BatchRunner(jobs=1)
        try:
            assert runner.warm_up() == 0
            assert runner._wd_total == 0
        finally:
            runner.close()

    def test_warmed_workers_serve_deadlined_run(self):
        runner = BatchRunner(jobs=2)
        try:
            runner.warm_up()
            results = runner.run(_tasks(_instances(4), timeout=30.0))
            assert [r.error for r in results] == [None] * 4
            # the run leased the warmed workers, it did not grow the pool
            assert runner._wd_total == 2
        finally:
            runner.close()


class TestIdleTtl:
    def test_idle_ttl_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BatchRunner(jobs=2, idle_ttl=0.0)
        with pytest.raises(ValueError):
            BatchRunner(jobs=2, idle_ttl=-1.0)

    def test_idle_workers_reaped_after_ttl(self):
        runner = BatchRunner(jobs=2, idle_ttl=0.2)
        try:
            before = OBS.value("repro_pool_reaped_total")
            assert runner.warm_up() == 2
            assert _wait_until(lambda: runner._wd_total == 0, timeout=10.0)
            assert runner._wd_idle == []
            # the counter is bumped after the reaped processes are
            # joined, a beat after the pool count reaches zero
            assert _wait_until(
                lambda: OBS.value("repro_pool_reaped_total") >= before + 2,
                timeout=5.0,
            )
        finally:
            runner.close()

    def test_pool_rebuilds_after_reap(self):
        runner = BatchRunner(jobs=2, idle_ttl=0.2)
        try:
            runner.warm_up()
            assert _wait_until(lambda: runner._wd_total == 0, timeout=10.0)
            results = runner.run(_tasks(_instances(3, seed=20), timeout=30.0))
            assert [r.error for r in results] == [None] * 3
        finally:
            runner.close()

    def test_no_ttl_keeps_workers_warm(self):
        runner = BatchRunner(jobs=2)
        try:
            runner.warm_up()
            time.sleep(0.5)
            assert runner._wd_total == 2
            assert len(runner._wd_idle) == 2
        finally:
            runner.close()


@_FORK_ONLY
class TestPriorityLeases:
    def test_urgent_acquire_beats_earlier_bulk_waiter(
        self, pool_gated_solver, tmp_path
    ):
        """An urgent single solve overtakes a bulk waiter that queued first.

        A bulk stream holds both workers; a second bulk request then an
        urgent request queue up behind it.  The worker shed at the bulk
        stream's next completion must go to the urgent request even
        though the bulk waiter registered earlier.

        Every task blocks on a gate file that opens only once both
        requests are registered, so the order does not depend on how
        fast the machine is.  After the gate the bulk stream's first
        task returns at once and every other task sleeps 0.6 s: that
        first completion is the only shed, and the urgent solve ends
        about 0.6 s before the waiter's.
        """
        runner = BatchRunner(jobs=2)
        gate = tmp_path / "gate"
        done = {}
        errors = []

        def _gated(instances, first_delay=0.6):
            return [
                make_task(
                    index=i, problem="active", algorithm=pool_gated_solver,
                    g=2, instance=inst, timeout=30.0,
                    params={
                        "gate": str(gate),
                        "delay": first_delay if i == 0 else 0.6,
                    },
                )
                for i, inst in enumerate(instances)
            ]

        def _run(label, tasks, priority):
            try:
                results = runner.run(tasks, priority=priority)
                done[label] = time.monotonic()
                assert [r.error for r in results] == [None] * len(tasks)
            except Exception as exc:  # pragma: no cover - debug aid
                errors.append((label, exc))

        bulk_tasks = _gated(_instances(6, seed=100), first_delay=0.0)
        waiter_task = _gated(_instances(1, seed=200))
        urgent_task = _gated(_instances(1, seed=300))
        try:
            # Warm the pool so the bulk stream leases both workers
            # instantly; both hold gated tasks until the gate opens.
            runner.warm_up()
            t_bulk = threading.Thread(
                target=_run, args=("bulk", bulk_tasks, 0), daemon=True
            )
            t_bulk.start()
            assert _wait_until(
                lambda: runner._wd_total == 2 and not runner._wd_idle
            ), "bulk stream never leased both workers"

            t_waiter = threading.Thread(
                target=_run, args=("waiter", waiter_task, 0), daemon=True
            )
            t_waiter.start()
            assert _wait_until(lambda: runner._wd_waiters >= 1, timeout=5.0)

            t_urgent = threading.Thread(
                target=_run,
                args=("urgent", urgent_task, PRIORITY_URGENT),
                daemon=True,
            )
            t_urgent.start()
            assert _wait_until(
                lambda: runner._wd_urgent_waiters >= 1, timeout=5.0
            )
            assert runner._wd_waiters == 2
            gate.touch()

            for t in (t_urgent, t_waiter, t_bulk):
                t.join(timeout=30.0)
                assert not t.is_alive()
            assert not errors, errors
            assert done["urgent"] < done["waiter"], (
                "urgent solve finished after the earlier bulk waiter: "
                f"urgent={done['urgent']:.3f} waiter={done['waiter']:.3f}"
            )
        finally:
            gate.touch()
            runner.close()

    def test_lease_counter_grows(self, pool_sleepy_solver):
        before = OBS.value("repro_pool_leases_total")
        runner = BatchRunner(jobs=2)
        try:
            runner.run(
                _tasks(
                    _instances(2, seed=400),
                    algorithm=pool_sleepy_solver,
                    timeout=30.0,
                )
            )
        finally:
            runner.close()
        assert OBS.value("repro_pool_leases_total") >= before + 1


def _backend_counts():
    """Parent-side backend solve counts: verdicts and latency samples."""
    solves = OBS.get("repro_backend_solves_total")
    seconds = OBS.get("repro_backend_solve_seconds")
    counts = {}
    if solves is not None:
        for labels, child in solves.children():
            counts[("solves", *labels.values())] = child.value
    if seconds is not None:
        for labels, child in seconds.children():
            counts[("seconds", *labels.values())] = child.count
    return counts


class TestWorkerSolveMetrics:
    def test_pool_solves_count_in_the_parent(self):
        # A pool worker records its backend solves in its own registry;
        # the events riding home in each result must count in the
        # parent exactly as an in-process run counts them.
        tasks = _tasks(_instances(6, seed=500), algorithm="rounding")
        deltas = []
        for jobs in (1, 2):
            before = _backend_counts()
            with BatchRunner(jobs=jobs) as runner:
                results = runner.run(tasks)
            assert all(r.ok for r in results), [r.error for r in results]
            after = _backend_counts()
            deltas.append({
                key: value - before.get(key, 0)
                for key, value in after.items()
                if value != before.get(key, 0)
            })
        serial, pooled = deltas
        assert serial == pooled
        assert serial[("solves", "scipy-highs", "optimal")] == 6
        assert serial[("seconds", "scipy-highs", "lp")] == 6
