"""Tests for the batch runner, workers and sweep driver."""

import json
import multiprocessing
import signal
import time

import pytest

from repro.core import Instance
from repro.engine import (
    BatchRunner,
    ResultCache,
    SweepGrid,
    TaskResult,
    build_sweep_tasks,
    default_grid,
    execute_task,
    make_task,
    run_sweep,
    write_results,
    aggregate,
    aggregate_table,
)
from repro.engine import runner as runner_module
from repro.engine.dispatch import reanchor


def _tasks(instances, problem="active", algorithm="minimal", g=2, **kw):
    return [
        make_task(
            index=i, problem=problem, algorithm=algorithm, g=g, instance=inst, **kw
        )
        for i, inst in enumerate(instances)
    ]


@pytest.fixture
def small_instances():
    return [
        Instance.from_tuples([(0, 4, 2), (1, 5, 3)]),
        Instance.from_tuples([(0, 3, 1), (2, 6, 2), (1, 4, 2)]),
        Instance.from_tuples([(0, 2, 1)]),
    ]


class TestExecuteTask:
    def test_success(self, small_instances):
        result = execute_task(_tasks(small_instances)[0])
        assert result.ok
        assert result.objective is not None
        assert result.elapsed >= 0
        assert result.n == 2

    def test_error_capture_mentions_digest_and_seed(self):
        # Two unit jobs forced into one slot with g=1 is infeasible.
        bad = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        task = make_task(
            index=0,
            problem="active",
            algorithm="minimal",
            g=1,
            instance=bad,
            meta={"seed": 12345},
        )
        result = execute_task(task)
        assert not result.ok
        assert task.digest[:12] in result.error
        assert "seed=12345" in result.error

    def test_timeout_is_captured(self, monkeypatch, small_instances):
        import repro.engine.workers as workers

        def slow_solve(problem, name, instance, g, **params):
            import time

            time.sleep(5.0)

        monkeypatch.setattr(workers.REGISTRY, "solve", slow_solve)
        task = _tasks(small_instances[:1], timeout=0.2)[0]
        result = execute_task(task)
        assert not result.ok
        assert "timed out" in result.error
        assert result.elapsed < 2.0

    def test_record_roundtrip(self, small_instances):
        result = execute_task(_tasks(small_instances)[0])
        # ``to_record`` rounds elapsed; everything else must roundtrip.
        restored = TaskResult.from_record(result.to_record())
        assert restored.to_record() == result.to_record()


class TestBatchRunner:
    def test_serial_matches_parallel(self, small_instances):
        tasks = _tasks(small_instances * 2)
        # re-index the duplicated tasks
        tasks = [
            make_task(index=i, problem=t.problem, algorithm=t.algorithm,
                      g=t.g, instance=t.instance)
            for i, t in enumerate(tasks)
        ]
        serial = BatchRunner(jobs=1).run(tasks)
        with BatchRunner(jobs=2) as runner:
            parallel = runner.run(tasks)
        def strip(r):
            record = {**r.to_record(), "elapsed": 0.0}
            # trace spans are timings; parity holds "modulo timings"
            metrics = dict(record["metrics"])
            metrics.pop("trace", None)
            record["metrics"] = metrics
            return record
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]
        assert [r.index for r in parallel] == list(range(len(tasks)))

    def test_cache_second_run_hits_every_task(self, small_instances, tmp_path):
        tasks = _tasks(small_instances)
        cache = ResultCache(directory=tmp_path)
        runner = BatchRunner(jobs=1, cache=cache)
        assert not any(r.cached for r in runner.run(tasks))
        second = BatchRunner(jobs=1, cache=ResultCache(directory=tmp_path))
        results = second.run(tasks)
        assert all(r.cached for r in results)

    def test_failures_are_not_cached(self, tmp_path):
        bad = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        tasks = _tasks([bad], g=1)
        cache = ResultCache(directory=tmp_path)
        runner = BatchRunner(jobs=1, cache=cache)
        assert not runner.run(tasks)[0].ok
        rerun = BatchRunner(jobs=1, cache=cache)
        assert not any(r.cached for r in rerun.run(tasks))

    def test_duplicate_digests_solved_once_per_run(self, small_instances):
        # Same instance submitted twice without any cache: the second
        # occurrence must reuse the first result, not re-solve.
        inst = small_instances[0]
        tasks = [
            make_task(index=i, problem="active", algorithm="minimal", g=2,
                      instance=inst, meta={"copy": i})
            for i in range(3)
        ]
        runner = BatchRunner(jobs=1)
        stream = runner.run_stream(tasks)
        results = list(stream)
        assert [r.cached for r in results] == [False, True, True]
        assert stream.stats.cache_hits == 2
        assert results[1].objective == results[0].objective
        assert results[2].meta == {"copy": 2}  # provenance preserved

    def test_failed_duplicates_are_retried_not_reused(self):
        # Failure reuse would pin a possibly-transient error (e.g. a
        # timeout) onto every duplicate; each must be re-executed.
        bad = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        tasks = [
            make_task(index=i, problem="active", algorithm="minimal", g=1,
                      instance=bad)
            for i in range(2)
        ]
        runner = BatchRunner(jobs=1)
        stream = runner.run_stream(tasks)
        results = list(stream)
        assert [r.ok for r in results] == [False, False]
        assert [r.cached for r in results] == [False, False]
        assert stream.stats.cache_hits == 0

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            BatchRunner(jobs=0)


class TestExecuteLengthInvariant:
    """The stream must carry exactly one result per pending task.

    Regression: the execution strategies used to end with
    ``[r for r in results if r is not None]`` — a dropped slot silently
    shifted every later result onto the wrong task when ``run`` zipped
    them against positions.  Completion events are now position-tagged,
    so a lost event becomes a positioned failure and a duplicated event
    is a hard error — never a silent shift.
    """

    def test_strategy_dropping_an_event_seals_a_positioned_failure(
        self, small_instances, monkeypatch
    ):
        with BatchRunner(jobs=2) as runner:
            real = runner._stream_watchdog

            def dropping(work, stats, priority=0):
                events = list(real(work, stats))
                yield from events[:-1]

            monkeypatch.setattr(runner, "_stream_watchdog", dropping)
            tasks = _tasks(small_instances)
            results = runner.run(tasks)
        assert len(results) == len(tasks)
        bad = [r for r in results if not r.ok]
        assert len(bad) == 1
        assert "no result" in bad[0].error
        # the failure sits at its own position: digests still line up
        for task, result in zip(tasks, results):
            assert result.digest == task.digest

    def test_strategy_repeating_an_event_is_an_error(
        self, small_instances, monkeypatch
    ):
        with BatchRunner(jobs=2) as runner:
            real = runner._stream_watchdog

            def repeating(work, stats, priority=0):
                events = list(real(work, stats))
                yield from events
                yield events[0]

            monkeypatch.setattr(runner, "_stream_watchdog", repeating)
            with pytest.raises(RuntimeError, match="misaligned"):
                runner.run(_tasks(small_instances))

    def test_sealed_fills_gaps_with_positioned_failures(
        self, small_instances
    ):
        from repro.engine.dispatch import DedupePlan

        tasks = _tasks(small_instances)
        results = [execute_task(t) for t in tasks]
        plan = DedupePlan(tasks)
        for pos in (0, 2):  # slot 1 was lost
            plan.store(pos, results[pos])
        sealed = plan.seal()
        assert len(sealed) == len(tasks)
        assert sealed[0] is results[0] and sealed[2] is results[2]
        assert not sealed[1].ok
        assert sealed[1].digest == tasks[1].digest
        assert "no result" in sealed[1].error

    def test_watchdog_returns_one_result_per_task(self, small_instances):
        # All-success path through the watchdog pool: exact length, no
        # filtering, deterministic order.
        tasks = _tasks(small_instances, timeout=30.0)
        with BatchRunner(jobs=2) as runner:
            results = runner.run(tasks)
        assert [r.index for r in results] == [0, 1, 2]
        assert all(r.ok for r in results)


def _stuck_solver(instance, g):
    """Simulate a solver wedged in native code: SIGALRM cannot fire."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(60.0)


def _dying_solver(instance, g):
    """Simulate a worker killed mid-task (OOM killer, segfault, ...)."""
    import os

    os._exit(13)


_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="test registers a solver that only fork-children inherit",
)


@_FORK_ONLY
class TestWatchdog:
    """Parent-side watchdog: kill and replace workers stuck past deadline."""

    @pytest.fixture(autouse=True)
    def stuck_solver(self):
        yield from self._temp_solver(
            "stuck-watchdog-test",
            _stuck_solver,
            "blocks SIGALRM then sleeps (test only)",
        )

    @pytest.fixture
    def dying_solver(self):
        yield from self._temp_solver(
            "dying-watchdog-test",
            _dying_solver,
            "kills its own worker process (test only)",
        )

    @staticmethod
    def _temp_solver(name, fn, description):
        from repro.engine.registry import REGISTRY, SolverSpec

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
        # keep the global registry pristine for registry-completeness tests
        REGISTRY._specs.pop(("active", name), None)

    def test_stuck_worker_is_killed_and_replaced(
        self, stuck_solver, small_instances, monkeypatch
    ):
        # Tasks 0 and 2 wedge their workers; task 1 must still succeed
        # and the batch must finish in ~timeout, not ~60s.
        tasks = [
            make_task(
                index=i,
                problem="active",
                algorithm=stuck_solver if i != 1 else "minimal",
                g=2,
                instance=inst,
                timeout=0.4,
            )
            for i, inst in enumerate(small_instances)
        ]
        monkeypatch.setattr(runner_module, "_WATCHDOG_GRACE", 0.2)
        with BatchRunner(jobs=2) as runner:
            start = time.perf_counter()
            stream = runner.run_stream(tasks)
            results = list(stream)
            elapsed = time.perf_counter() - start
        assert [r.ok for r in results] == [False, True, False]
        assert "watchdog" in results[0].error
        assert "timed out" in results[2].error
        assert stream.stats.watchdog_kills == 2
        assert elapsed < 15.0

    def test_timeouts_from_watchdog_are_not_cached(
        self, stuck_solver, small_instances, tmp_path, monkeypatch
    ):
        cache = ResultCache(directory=tmp_path)
        tasks = [
            make_task(
                index=i,
                problem="active",
                algorithm=stuck_solver,
                g=2,
                instance=inst,
                timeout=0.3,
            )
            for i, inst in enumerate(small_instances[:2])
        ]
        monkeypatch.setattr(runner_module, "_WATCHDOG_GRACE", 0.1)
        with BatchRunner(jobs=2, cache=cache) as runner:
            runner.run(tasks)
        assert cache.disk_usage() == (0, 0)

    def test_failed_duplicate_retry_keeps_watchdog(
        self, stuck_solver, small_instances, monkeypatch
    ):
        # Both tasks share a digest; the dup retry of the failed first
        # occurrence must also run under the watchdog, not inline in
        # the parent (which would hang on a natively-wedged solver).
        inst = small_instances[0]
        tasks = [
            make_task(index=i, problem="active", algorithm=stuck_solver,
                      g=2, instance=inst, timeout=0.3)
            for i in range(2)
        ]
        monkeypatch.setattr(runner_module, "_WATCHDOG_GRACE", 0.2)
        with BatchRunner(jobs=2) as runner:
            start = time.perf_counter()
            results = runner.run(tasks)
            elapsed = time.perf_counter() - start
        assert [r.ok for r in results] == [False, False]
        assert all("watchdog" in r.error for r in results)
        assert elapsed < 15.0

    def test_worker_death_mid_task_is_replaced_and_positioned(
        self, dying_solver, small_instances
    ):
        # Tasks 0 and 2 kill their worker processes outright; each must
        # get a fresh replacement worker and an ok=False record at its
        # own position, and task 1 must still succeed.
        tasks = [
            make_task(
                index=i,
                problem="active",
                algorithm=dying_solver if i != 1 else "minimal",
                g=2,
                instance=inst,
                timeout=20.0,
            )
            for i, inst in enumerate(small_instances)
        ]
        with BatchRunner(jobs=2) as runner:
            stream = runner.run_stream(tasks)
            results = list(stream)
        assert len(results) == len(tasks)
        assert [r.ok for r in results] == [False, True, False]
        assert [r.index for r in results] == [0, 1, 2]
        for pos in (0, 2):
            assert results[pos].digest == tasks[pos].digest
            assert "died" in results[pos].error
        # deaths are not timeouts: the watchdog never had to fire
        assert stream.stats.watchdog_kills == 0

    def test_dead_duplicates_are_retried_through_the_watchdog(
        self, dying_solver, small_instances
    ):
        # Duplicate of a task whose worker died: the retry must go back
        # through the watchdog pool (an inline retry would kill the
        # parent-side guarantees for wedged solvers) and must also come
        # back as a positioned failure.
        inst = small_instances[0]
        tasks = [
            make_task(index=i, problem="active", algorithm=dying_solver,
                      g=2, instance=inst, timeout=20.0)
            for i in range(2)
        ]
        with BatchRunner(jobs=2) as runner:
            results = runner.run(tasks)
        assert [r.ok for r in results] == [False, False]
        assert [r.index for r in results] == [0, 1]
        assert all("died" in r.error for r in results)

    def test_python_level_timeout_still_uses_sigalrm(self, small_instances):
        # A sleeping (not wedged) solver is interrupted by SIGALRM inside
        # the grace window, so the watchdog never has to kill anything.
        tasks = _tasks(small_instances[:2], timeout=30.0)
        with BatchRunner(jobs=2) as runner:
            stream = runner.run_stream(tasks)
            results = list(stream)
        assert all(r.ok for r in results)
        assert stream.stats.watchdog_kills == 0


class TestSweep:
    def test_grid_is_deterministic(self):
        grids = [default_grid("active")]
        a = build_sweep_tasks(grids, base_seed=7)
        b = build_sweep_tasks(grids, base_seed=7)
        assert [t.digest for t in a] == [t.digest for t in b]

    def test_seed_shared_across_algorithms_within_cell(self):
        grid = SweepGrid(
            problem="active",
            generators=("active",),
            algorithms=("minimal", "rounding"),
            g_values=(3,),
            instances_per_cell=1,
        )
        tasks = build_sweep_tasks([grid])
        assert len(tasks) == 2
        assert tasks[0].instance == tasks[1].instance

    def test_limit_caps_tasks(self):
        tasks = build_sweep_tasks([default_grid("active")], limit=4)
        assert len(tasks) == 4

    def test_validate_rejects_mismatched_generator(self):
        grid = SweepGrid(
            problem="active", generators=("interval",), algorithms=("minimal",)
        )
        with pytest.raises(ValueError, match="does not produce"):
            grid.validate()

    def test_instance_seeds_distinct_across_registered_generators(self):
        # Regression: the seed mix used to fold the generator hash
        # through ``% 97``, so two generator names could collide and
        # silently share instances (and digests) across families.
        from repro.engine.sweep import _instance_seed
        from repro.instances import SWEEP_GENERATORS

        for g in (1, 2, 3):
            for rep in range(3):
                seeds = {
                    gen: _instance_seed(2014, gen, g, rep)
                    for gen in SWEEP_GENERATORS
                }
                assert len(set(seeds.values())) == len(seeds), seeds

    def test_seed_uses_full_hash_not_mod_97(self):
        # Construct two names that collide under the old ``% 97`` fold
        # but have different full hashes: they must get distinct seeds.
        from repro.engine.sweep import _instance_seed, hash_str

        by_residue = {}
        collision = None
        for i in range(10_000):
            name = f"gen-{i}"
            residue = hash_str(name) % 97
            other = by_residue.setdefault(residue, name)
            if other != name and hash_str(other) != hash_str(name):
                collision = (other, name)
                break
        assert collision is not None
        a, b = collision
        assert hash_str(a) % 97 == hash_str(b) % 97
        assert _instance_seed(2014, a, 2, 0) != _instance_seed(2014, b, 2, 0)

    def test_run_sweep_aggregates(self, tmp_path):
        outcome = run_sweep(
            [default_grid("active")], jobs=1, limit=6,
            cache=ResultCache(directory=tmp_path),
        )
        assert len(outcome.results) == 6
        assert "active/minimal" in outcome.table
        assert "tasks: 6" in outcome.summary


class TestResultsStore:
    def test_jsonl_roundtrip(self, small_instances, tmp_path):
        results = BatchRunner(jobs=1).run(_tasks(small_instances))
        path = tmp_path / "r.jsonl"
        assert write_results(results, path) == len(results)
        restored = [
            TaskResult.from_record(json.loads(line))
            for line in path.read_text().splitlines()
        ]
        assert [r.to_record() for r in restored] == [
            r.to_record() for r in results
        ]

    def test_rewrite_replaces_the_file(self, small_instances, tmp_path):
        results = BatchRunner(jobs=1).run(_tasks(small_instances[:1]))
        path = tmp_path / "r.jsonl"
        write_results(results, path)
        write_results(results, path)
        assert len(path.read_text().splitlines()) == 1

    def test_aggregate_counts_errors_and_hits(self, small_instances):
        ok = BatchRunner(jobs=1).run(_tasks(small_instances))
        bad = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        err = BatchRunner(jobs=1).run(_tasks([bad], g=1, algorithm="unit"))
        rows = aggregate(ok + err)
        by_cell = {r["cell"]: r for r in rows}
        assert by_cell["active/minimal g=2"]["errors"] == 0
        assert by_cell["active/unit g=1"]["errors"] == 1

    def test_aggregate_table_has_one_row_per_cell(self, small_instances):
        results = BatchRunner(jobs=1).run(
            _tasks(small_instances) + _tasks(small_instances, g=3)
        )
        lines = aggregate_table(results, "Sweep").splitlines()
        assert lines[:2] == ["Sweep", "====="]
        assert "mean r/LB" in lines[2]
        body = lines[4:]
        assert [row.split()[:2] for row in body] == [
            ["active/minimal", "g=2"], ["active/minimal", "g=3"],
        ]


class TestReanchor:
    """A reused result takes the duplicate task's position and labels."""

    def test_copy_is_cached_at_the_new_position(self, small_instances):
        tasks = _tasks(small_instances[:1])
        (original,) = BatchRunner(jobs=1).run(tasks)
        original.metrics["trace"] = {"spans": []}
        twin = make_task(
            index=7, problem="active", algorithm="minimal", g=2,
            instance=small_instances[0], meta={"label": "twin"},
        )
        copy = reanchor(original, twin)
        assert (copy.index, copy.cached) == (7, True)
        assert copy.meta == {"label": "twin"}
        assert copy.objective == original.objective
        assert "trace" not in copy.metrics and "trace" in original.metrics
        copy.metrics["x"] = 1
        assert "x" not in original.metrics

    def test_task_without_meta_keeps_the_results(self, small_instances):
        (original,) = BatchRunner(jobs=1).run(
            _tasks(small_instances[:1], meta={"source": "a"})
        )
        twin = make_task(
            index=3, problem="active", algorithm="minimal", g=2,
            instance=small_instances[0],
        )
        assert reanchor(original, twin).meta == {"source": "a"}


class TestStructureAffinity:
    """Sweep tasks come in runs of one (generator, algorithm) cell, whose
    solves share a model structure; dispatch ignores that and keeps
    task order."""

    @staticmethod
    def _sweep_tasks():
        return build_sweep_tasks(
            [
                SweepGrid(
                    problem="active",
                    generators=("active",),
                    algorithms=("minimal", "rounding"),
                    g_values=(3,),
                    instances_per_cell=2,
                )
            ]
        )

    def test_pool_dispatches_sweep_cells_in_task_order(self, monkeypatch):
        # Two free workers take the queue head in turn: the second gets
        # position 1, not the first task of the next cell.
        from repro.engine.runner import _WatchdogWorker

        tasks = self._sweep_tasks()
        assert [t.algorithm for t in tasks] == [
            "minimal", "minimal", "rounding", "rounding"
        ]
        dispatched = []
        dispatch = _WatchdogWorker.dispatch

        def recording(worker, pos, task):
            dispatched.append(pos)
            dispatch(worker, pos, task)

        monkeypatch.setattr(_WatchdogWorker, "dispatch", recording)
        with BatchRunner(jobs=2) as runner:
            results = runner.run(tasks)
        assert dispatched == [0, 1, 2, 3]
        assert [r.index for r in results] == [0, 1, 2, 3]

    def test_grouped_tasks_route_to_watchdog_when_parallel(self):
        tasks = self._sweep_tasks()
        work = [(i, t) for i, t in enumerate(tasks)]
        with BatchRunner(jobs=2) as runner:
            assert (
                runner._pick_strategy(tasks, work)
                == runner._stream_watchdog
            )
            # one undeadlined pending task is solved in-process
            assert (
                runner._pick_strategy(tasks[:1], work[:1])
                == runner._stream_serial
            )
        # jobs=1 stays serial
        with BatchRunner(jobs=1) as runner:
            assert (
                runner._pick_strategy(tasks, work)
                == runner._stream_serial
            )

    def test_grouped_sweep_results_match_serial(self):
        from repro.engine import SweepGrid, run_sweep

        grid = SweepGrid(
            problem="active",
            generators=("active",),
            algorithms=("minimal", "rounding"),
            g_values=(3,),
            instances_per_cell=2,
        )
        serial = run_sweep([grid], jobs=1)
        parallel = run_sweep([grid], jobs=2)
        assert [r.objective for r in serial.results] == [
            r.objective for r in parallel.results
        ]
        assert [r.ok for r in serial.results] == [
            r.ok for r in parallel.results
        ]
