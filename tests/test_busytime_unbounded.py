"""Tests for the unbounded-capacity placement (OPT_inf, Theorem 4 substitute)."""

import sys
import threading

import pytest

import repro.busytime.unbounded as unbounded
from repro.busytime import INTERVAL_ALGORITHMS, opt_infinity, pin_instance
from repro.core import Instance, span
from repro.engine import REGISTRY, execute_task, make_task
from repro.instances import (
    SWEEP_GENERATORS,
    random_flexible_instance,
    random_interval_instance,
)
from repro.solvers import BACKEND_ENV_VAR
from repro.solvers.registry import capture_solves


class TestOptInfinity:
    def test_interval_instance_is_span(self, interval_instance):
        placement = opt_infinity(interval_instance)
        assert placement.busy_time == pytest.approx(
            span(j.window for j in interval_instance.jobs)
        )
        for j in interval_instance.jobs:
            assert placement.starts[j.id] == j.release

    def test_flexible_consolidation(self):
        inst = Instance.from_tuples([(0, 5, 2), (0, 5, 2), (1, 6, 2)])
        placement = opt_infinity(inst)
        assert placement.busy_time == pytest.approx(2.0)

    def test_empty(self):
        placement = opt_infinity(Instance(tuple()))
        assert placement.busy_time == 0.0
        assert placement.starts == {}

    def test_rejects_non_integral_flexible(self):
        from repro.core import Job

        inst = Instance((Job(0.0, 2.5, 1.0, id=0),))
        with pytest.raises(ValueError, match="pin_instance"):
            opt_infinity(inst)

    def test_placement_lower_bounds_interval_span(self, rng):
        """OPT_inf never exceeds the span of any specific placement."""
        for _ in range(8):
            inst = random_flexible_instance(6, 10, rng=rng)
            placement = opt_infinity(inst)
            # pin everything as early as possible, compare spans
            early = pin_instance(
                inst, {j.id: j.release for j in inst.jobs}
            )
            assert placement.busy_time <= span(
                j.window for j in early.jobs
            ) + 1e-6

    def test_busy_time_matches_pinned_span(self, rng):
        for _ in range(8):
            inst = random_flexible_instance(6, 10, rng=rng)
            placement = opt_infinity(inst)
            pinned = pin_instance(inst, placement.starts)
            assert span(j.window for j in pinned.jobs) == pytest.approx(
                placement.busy_time, abs=1e-6
            )


def _milp_backends(solves):
    return [event["backend"] for event in solves if event["kind"] == "milp"]


class TestOptInfinityMemo:
    """OPT_inf is solved once per instance and backend in a process."""

    @pytest.fixture
    def instance(self):
        return SWEEP_GENERATORS["flexible"](30, 20, 2, 11)

    def test_four_packers_make_one_solve(self, instance):
        with capture_solves() as solves:
            outcomes = [
                REGISTRY.solve("busy", name, instance, 2)
                for name in INTERVAL_ALGORITHMS
            ]
        assert _milp_backends(solves) == ["scipy-highs"]
        assert {o.schedule.starts == outcomes[0].schedule.starts
                for o in outcomes} == {True}

    def test_hit_gives_the_same_placement_as_a_solve(self, instance):
        solved = opt_infinity(instance)
        with capture_solves() as solves:
            hit = opt_infinity(instance)
        assert solves == []
        assert hit == solved
        assert list(hit.starts) == [j.id for j in instance.jobs]

    def test_equal_instances_share_an_entry(self):
        ints = Instance.from_tuples([(0, 5, 2), (0, 5, 2), (1, 6, 2)])
        floats = Instance.from_tuples([(0.0, 5.0, 2.0), (0, 5, 2), (1, 6, 2)])
        with capture_solves() as solves:
            assert opt_infinity(ints) == opt_infinity(floats)
        assert len(_milp_backends(solves)) == 1

    def test_another_backend_solves_again(self, instance, monkeypatch):
        with capture_solves() as solves:
            opt_infinity(instance)
            opt_infinity(instance, backend="reference")
            monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
            opt_infinity(instance)
            opt_infinity(instance, backend="scipy-highs")
        assert _milp_backends(solves) == ["scipy-highs", "reference"]

    def test_environment_backend_solves_again(self, instance, monkeypatch):
        opt_infinity(instance)
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        with capture_solves() as solves:
            opt_infinity(instance)
        assert _milp_backends(solves) == ["reference"]

    def test_mutating_returned_starts_leaves_the_memo(self, instance):
        first = opt_infinity(instance)
        expected = dict(first.starts)
        first.starts.clear()
        again = opt_infinity(instance)
        assert again.starts == expected
        again.starts[instance.jobs[0].id] = -1.0
        assert opt_infinity(instance).starts == expected

    def test_a_solve_that_raises_is_not_memoized(self, instance, monkeypatch):
        calls = []
        solve = unbounded.solve_unbounded_span_exact

        def flaky(inst, *, backend=None):
            calls.append(backend)
            if len(calls) == 1:
                raise RuntimeError("solver crashed")
            return solve(inst, backend=backend)

        monkeypatch.setattr(unbounded, "solve_unbounded_span_exact", flaky)
        with pytest.raises(RuntimeError, match="solver crashed"):
            opt_infinity(instance)
        placement = opt_infinity(instance)
        assert opt_infinity(instance) == placement
        assert calls == ["scipy-highs", "scipy-highs"]

    def test_threads_sharing_the_memo_get_the_serial_placements(self):
        """The server's executor threads share one memo: under rapid
        thread switching every call still answers the serial placement."""
        instances = [SWEEP_GENERATORS["flexible"](12, 10, 2, seed)
                     for seed in range(3)]
        serial = [opt_infinity(inst) for inst in instances]
        unbounded._solved_placement.cache_clear()
        answers, errors = [], []

        def work(offset):
            try:
                for k in range(12):
                    inst = instances[(k + offset) % len(instances)]
                    answers.append((inst, opt_infinity(inst)))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(answers) == 8 * 12
        for inst, placement in answers:
            assert placement == serial[instances.index(inst)]
        assert unbounded._solved_placement.cache_info().currsize == 3

    def test_a_hit_keeps_the_task_record(self, instance):
        tasks = [
            make_task(k, "busy", name, 2, instance)
            for k, name in enumerate(INTERVAL_ALGORITHMS)
        ]
        first, *rest = [execute_task(task) for task in tasks]
        assert _milp_backends(first.solves) == ["scipy-highs"]
        assert all(result.solves == () for result in rest)
        assert {r.metrics["backend"] for r in [first, *rest]} == {
            "scipy-highs"
        }
        assert list(first.metrics) == list(rest[0].metrics)

    def test_interval_tasks_stay_unlabelled(self, interval_instance):
        result = execute_task(make_task(0, "busy", "first_fit", 2,
                                        interval_instance))
        assert result.ok
        assert "backend" not in result.metrics


class TestPinInstance:
    def test_pins_to_intervals(self, rng):
        inst = random_flexible_instance(6, 10, rng=rng)
        pinned = pin_instance(inst, {j.id: j.release for j in inst.jobs})
        assert pinned.all_interval
        for orig, new in zip(inst.jobs, pinned.jobs):
            assert new.id == orig.id
            assert new.length == orig.length

    def test_missing_start_raises(self, tiny_instance):
        with pytest.raises(KeyError, match="no start time supplied for job 1"):
            pin_instance(tiny_instance, {0: 0})

    def test_invalid_start_raises(self, tiny_instance):
        starts = {j.id: float(j.deadline) for j in tiny_instance.jobs}
        with pytest.raises(ValueError):
            pin_instance(tiny_instance, starts)

    def test_interval_jobs_roundtrip(self, rng):
        inst = random_interval_instance(6, 10.0, rng=rng)
        pinned = pin_instance(inst, {j.id: j.release for j in inst.jobs})
        assert pinned == inst
