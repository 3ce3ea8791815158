"""Tests for `BatchRunner.run_stream` and the persistent worker pool.

Covers the streaming contract (task-order yields, incremental arrival,
parity with ``run``), pool persistence across calls, worker-death
recovery and clean interrupts.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core import Instance
from repro.engine import BatchRunner, ResultCache, make_task
from repro.engine.registry import REGISTRY, SolveOutcome, SolverSpec
from repro.engine.runner import _WatchdogWorker

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


@pytest.fixture
def small_instances():
    return [
        Instance.from_tuples([(0, 4, 2), (1, 5, 3)]),
        Instance.from_tuples([(0, 3, 1), (2, 6, 2), (1, 4, 2)]),
        Instance.from_tuples([(0, 2, 1)]),
        Instance.from_tuples([(0, 6, 2), (2, 7, 3)]),
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


def _sleepy_solver(instance, g, **params):
    time.sleep(0.8)
    return SolveOutcome(objective=float(g))


def _dying_solver(instance, g, **params):
    os._exit(13)


@pytest.fixture
def sleepy_solver():
    yield from _register_temp_solver("sleepy-stream-test", _sleepy_solver)


@pytest.fixture
def dying_solver():
    yield from _register_temp_solver("dying-stream-test", _dying_solver)


def _strip(result):
    record = {**result.to_record(), "elapsed": 0.0}
    # trace spans are timings; stream/run parity holds "modulo timings"
    metrics = dict(record["metrics"])
    metrics.pop("trace", None)
    record["metrics"] = metrics
    return record


class TestStreamParity:
    """run_stream must return byte-identical records to run (mod timings)."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stream_matches_run_with_dups_and_failures(
        self, small_instances, jobs
    ):
        infeasible = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        tasks = _tasks(
            small_instances + [small_instances[0]]  # dup digest of task 0
        ) + [
            # two infeasible copies at g=1: both fail, and the failed
            # duplicate must be retried rather than reused
            make_task(index=i, problem="active", algorithm="minimal", g=1,
                      instance=infeasible)
            for i in (5, 6)
        ]
        with BatchRunner(jobs=jobs) as runner:
            ran = runner.run(tasks)
        with BatchRunner(jobs=jobs) as runner:
            streamed = list(runner.run_stream(tasks))
        assert [_strip(r) for r in streamed] == [_strip(r) for r in ran]
        assert [r.index for r in streamed] == list(range(len(tasks)))
        assert streamed[4].cached  # duplicate reused
        assert not streamed[5].ok and not streamed[6].ok
        assert not streamed[6].cached  # failed dup retried, not reused

    def test_stream_counters_match_run(self, small_instances, tmp_path):
        tasks = _tasks(small_instances)
        cache = ResultCache(directory=tmp_path)
        with BatchRunner(jobs=1, cache=cache) as warm:
            warm.run(tasks)
        with BatchRunner(jobs=1, cache=ResultCache(directory=tmp_path)) as r:
            stream = r.run_stream(tasks)
            streamed = list(stream)
            assert stream.stats.cache_hits == len(tasks)
        assert all(res.cached for res in streamed)

    def test_cache_hits_stream_before_execution(self, small_instances):
        # A head-of-list cache hit must be yielded by the very first
        # next(), before any pending solve completes.
        tasks = _tasks(small_instances)
        cache = ResultCache()
        with BatchRunner(jobs=1, cache=cache) as warm:
            warm.run(tasks[:1])
        with BatchRunner(jobs=1, cache=cache) as runner:
            stream = runner.run_stream(tasks)
            first = next(stream)
            assert first.cached and first.index == 0
            rest = list(stream)
        assert [r.index for r in rest] == [1, 2, 3]

    def test_empty_task_list(self):
        with BatchRunner(jobs=1) as runner:
            assert list(runner.run_stream([])) == []


@_FORK_ONLY
class TestIncrementalArrival:
    def test_first_result_arrives_before_slow_task_finishes(
        self, sleepy_solver, small_instances
    ):
        # Slow task last: its 0.8s sleep must not delay the fast
        # results' yields.
        tasks = _tasks(small_instances[:2]) + [
            make_task(index=2, problem="active", algorithm=sleepy_solver,
                      g=2, instance=small_instances[2])
        ]
        with BatchRunner(jobs=3) as runner:
            start = time.perf_counter()
            arrivals = [
                (r.index, time.perf_counter() - start)
                for r in runner.run_stream(tasks)
            ]
        assert [i for i, _ in arrivals] == [0, 1, 2]
        assert arrivals[0][1] < 0.6, arrivals
        assert arrivals[-1][1] >= 0.7, arrivals

    def test_slow_head_buffers_but_still_completes_in_order(
        self, sleepy_solver, small_instances
    ):
        # Slow task first: order preservation holds everything until it
        # lands, then the buffered results flush immediately.
        tasks = [
            make_task(index=0, problem="active", algorithm=sleepy_solver,
                      g=2, instance=small_instances[0])
        ] + [
            make_task(index=i, problem="active", algorithm="minimal", g=2,
                      instance=inst)
            for i, inst in enumerate(small_instances[1:3], start=1)
        ]
        with BatchRunner(jobs=3) as runner:
            start = time.perf_counter()
            arrivals = [
                (r.index, time.perf_counter() - start)
                for r in runner.run_stream(tasks)
            ]
        assert [i for i, _ in arrivals] == [0, 1, 2]
        assert arrivals[0][1] >= 0.7
        # the buffered fast results flush right behind the slow head
        assert arrivals[-1][1] - arrivals[0][1] < 0.5

    def test_abandoned_stream_leaves_runner_usable(
        self, sleepy_solver, small_instances
    ):
        tasks = _tasks(small_instances[:2]) + [
            make_task(index=2, problem="active", algorithm=sleepy_solver,
                      g=2, instance=small_instances[2])
        ]
        with BatchRunner(jobs=2) as runner:
            stream = runner.run_stream(tasks)
            assert next(stream).index == 0
            stream.close()  # client went away mid-batch
            results = runner.run(_tasks(small_instances[3:]))
        assert all(r.ok for r in results)


class TestStrategyAndCancellation:
    def test_deadlined_duplicate_retry_keeps_the_watchdog(self):
        # timeout is not part of the content digest, so a batch can pair
        # an undeadlined first occurrence with a deadlined duplicate.
        # The duplicate's failure retry joins the queue mid-stream; the
        # strategy choice must see its deadline up front and run the
        # whole stream on the worker pool, not in-process — else the
        # retry's hard timeout silently degrades to a soft one.
        bad = Instance.from_tuples([(0, 1, 1), (0, 1, 1)])
        first = make_task(index=0, problem="active", algorithm="minimal",
                          g=1, instance=bad)
        dup = make_task(index=1, problem="active", algorithm="minimal",
                        g=1, instance=bad, timeout=30.0)
        assert first.digest == dup.digest and first.timeout is None
        with BatchRunner(jobs=2) as runner:
            results = runner.run([first, dup])
            assert runner._wd_total >= 1  # the worker pool was used
        assert [r.ok for r in results] == [False, False]

    @_FORK_ONLY
    def test_ctrl_c_mid_batch_propagates_and_kills_busy_workers(
        self, sleepy_solver, small_instances, monkeypatch
    ):
        # SIGINT lands in the consuming thread while both workers are
        # mid-solve: the KeyboardInterrupt must escape run(), and no
        # worker the runner started may outlive it.
        spawned = []
        spawn = _WatchdogWorker.spawn

        def recording_spawn(ctx):
            worker = spawn(ctx)
            spawned.append(worker.proc)
            return worker

        monkeypatch.setattr(
            _WatchdogWorker, "spawn", staticmethod(recording_spawn)
        )
        tasks = [
            make_task(index=i, problem="active", algorithm=sleepy_solver,
                      g=2, instance=small_instances[i % 4],
                      meta={"copy": i})
            for i in range(6)
        ]
        main = threading.main_thread().ident
        timer = threading.Timer(
            0.4, signal.pthread_kill, args=(main, signal.SIGINT)
        )
        runner = BatchRunner(jobs=2)
        try:
            timer.start()
            start = time.perf_counter()
            with pytest.raises(KeyboardInterrupt):
                runner.run(tasks)
            elapsed = time.perf_counter() - start
            assert len(spawned) == 2
            assert not any(proc.is_alive() for proc in spawned)
            # uninterrupted, the batch would take 3 x 0.8 s
            assert elapsed < 1.6
        finally:
            timer.cancel()
            timer.join(timeout=5)
            runner.close()


@_FORK_ONLY
class TestWatchdogLeasing:
    def test_starved_stream_is_fed_a_worker_mid_batch(
        self, sleepy_solver, small_instances
    ):
        # Stream A (a long deadlined batch) initially leases every
        # watchdog worker; stream B (one deadlined task) must be fed a
        # worker after roughly one task completion, not after A's whole
        # queue drains — i.e. B finishes while A is still running.
        runner = BatchRunner(jobs=2)
        a_tasks = [
            make_task(index=i, problem="active", algorithm=sleepy_solver,
                      g=2, instance=small_instances[i % 4], timeout=30.0,
                      meta={"copy": i})
            for i in range(6)
        ]
        b_task = make_task(index=0, problem="active", algorithm=sleepy_solver,
                           g=3, instance=small_instances[0], timeout=30.0)
        finished = {}

        def consume(label, tasks):
            results = runner.run(tasks)
            finished[label] = time.monotonic()
            assert all(r.ok for r in results)

        try:
            thread_a = threading.Thread(target=consume, args=("a", a_tasks))
            thread_a.start()
            time.sleep(0.2)  # A now holds both workers
            thread_b = threading.Thread(target=consume, args=("b", [b_task]))
            thread_b.start()
            thread_b.join(timeout=30)
            thread_a.join(timeout=30)
        finally:
            runner.close()
        assert finished["b"] < finished["a"], finished

    def test_close_during_inflight_stream_leaves_no_workers(
        self, sleepy_solver, small_instances
    ):
        # close() while a stream still holds leased workers: the
        # stream's eventual release must shut them down, not re-pool
        # them on the closed runner.
        runner = BatchRunner(jobs=2)
        tasks = [
            make_task(index=i, problem="active", algorithm=sleepy_solver,
                      g=2, instance=small_instances[i % 4], timeout=30.0,
                      meta={"copy": i})
            for i in range(3)
        ]
        done = threading.Event()

        def consume():
            runner.run(tasks)
            done.set()

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.2)  # stream is mid-solve, workers leased
        runner.close()
        assert done.wait(timeout=30)
        thread.join(timeout=5)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and runner._wd_total:
            time.sleep(0.05)
        assert runner._wd_total == 0 and runner._wd_idle == []


class TestPersistentPools:
    def test_executor_survives_across_calls(self, small_instances):
        # Undeadlined, ungrouped runs reuse the same worker processes.
        with BatchRunner(jobs=2) as runner:
            runner.run(_tasks(small_instances))
            pids = sorted(w.proc.pid for w in runner._wd_idle)
            assert pids and runner._wd_total == len(pids) <= 2
            runner.run(_tasks(small_instances, g=3))
            assert sorted(w.proc.pid for w in runner._wd_idle) == pids
        assert runner._wd_total == 0 and runner._wd_idle == []

    def test_watchdog_workers_survive_across_calls(self, small_instances):
        with BatchRunner(jobs=2) as runner:
            runner.run(_tasks(small_instances, timeout=30.0))
            pids = sorted(w.proc.pid for w in runner._wd_idle)
            assert pids and runner._wd_total == len(pids) <= 2
            runner.run(_tasks(small_instances, g=3, timeout=30.0))
            assert sorted(w.proc.pid for w in runner._wd_idle) == pids
        assert runner._wd_total == 0 and runner._wd_idle == []

    def test_close_then_reuse_rebuilds_lazily(self, small_instances):
        runner = BatchRunner(jobs=2)
        try:
            assert all(r.ok for r in runner.run(_tasks(small_instances)))
            runner.close()
            assert runner._wd_total == 0
            assert all(r.ok for r in runner.run(_tasks(small_instances)))
        finally:
            runner.close()


@_FORK_ONLY
class TestBrokenPool:
    def test_broken_pool_fails_in_place_and_batch_survives(
        self, dying_solver, small_instances
    ):
        # Task 0 (no deadline) kills its worker outright, as the OOM
        # killer would.  Only that task may fail, at its own position;
        # a fresh worker replaces the dead one for everything else.
        instances = small_instances * 2
        tasks = [
            make_task(
                index=i,
                problem="active",
                algorithm=dying_solver if i == 0 else "minimal",
                g=2,
                instance=inst,
            )
            for i, inst in enumerate(instances)
        ]
        with BatchRunner(jobs=2) as runner:
            results = runner.run(tasks)
            assert len(results) == len(tasks)
            assert [r.index for r in results] == list(range(len(tasks)))
            assert not results[0].ok
            assert "died" in results[0].error
            assert results[0].digest == tasks[0].digest
            assert all(r.ok for r in results[1:]), [
                r.error for r in results[1:] if not r.ok
            ]
            # the runner stays usable
            again = runner.run(
                _tasks(small_instances, g=3)
            )
            assert all(r.ok for r in again)


class TestPerStreamStats:
    """Satellite: counters are per-stream, not racy runner attributes."""

    def test_stream_exposes_stats_object(self, small_instances):
        tasks = _tasks(small_instances)
        with BatchRunner(jobs=1) as runner:
            stream = runner.run_stream(tasks)
            results = list(stream)
        assert all(r.ok for r in results)
        assert stream.stats.total == len(tasks)
        assert stream.stats.cache_hits == 0
        assert stream.stats.watchdog_kills == 0

    def test_concurrent_streams_keep_counts_separate(self, small_instances):
        # Two streams share one runner and one cache: stream A re-runs
        # previously cached tasks (every result a hit), stream B solves
        # fresh ones (zero hits).  Each stream's stats must count only
        # its own hits, however the two interleave.
        cache = ResultCache()
        hot = _tasks(small_instances)
        cold = _tasks(small_instances, g=3)
        with BatchRunner(jobs=1, cache=cache) as runner:
            runner.run(hot)  # prime the cache for stream A only

            streams = {}
            errors = []
            barrier = threading.Barrier(2)

            def consume(label, tasks):
                try:
                    barrier.wait(timeout=10)
                    stream = runner.run_stream(tasks)
                    list(stream)
                    streams[label] = stream
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=consume, args=("hot", hot)),
                threading.Thread(target=consume, args=("cold", cold)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            assert streams["hot"].stats.cache_hits == len(hot)
            assert streams["cold"].stats.cache_hits == 0

    def test_duplicate_reuse_counts_as_stream_hit(self, small_instances):
        tasks = _tasks(small_instances + [small_instances[0]])
        with BatchRunner(jobs=1) as runner:
            stream = runner.run_stream(tasks)
            results = list(stream)
        assert results[4].cached
        assert stream.stats.cache_hits == 1


class TestTraceSpans:
    """Traces ride home inside ``TaskResult.metrics["trace"]``."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_carry_spans_and_labels(self, small_instances, jobs):
        from repro.obs import trace_labels, trace_spans

        tasks = _tasks(small_instances)
        with BatchRunner(jobs=jobs) as runner:
            results = list(runner.run_stream(tasks))
        for result in results:
            spans = trace_spans(result.metrics)
            for name in ("queued", "solving", "total"):
                assert name in spans, (result.index, spans)
                assert spans[name] >= 0.0
            assert spans["total"] >= spans["solving"]
            labels = trace_labels(result.metrics)
            assert labels["algorithm"] == "minimal"
            assert labels["status"] == "ok"
            assert labels["watchdog_kill"] is False

    def test_cache_hit_trace_is_fresh_not_stale(self, small_instances):
        from repro.obs import trace_labels, trace_spans

        tasks = _tasks(small_instances)
        cache = ResultCache()
        with BatchRunner(jobs=1, cache=cache) as runner:
            runner.run(tasks)
            hits = list(runner.run_stream(tasks))
        for result in hits:
            assert result.cached
            spans = trace_spans(result.metrics)
            # a planning-time hit never queued or solved; its trace is
            # the lookup alone, not the original solve's spans
            assert set(spans) == {"cache_lookup"}
            assert trace_labels(result.metrics)["cached"] is True
