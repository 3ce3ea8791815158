"""E18 (engineering) — batch-engine overhead and cache win.

Not a paper claim: measures what the orchestration layer itself costs.
Dispatch through the registry must stay within noise of a direct call,
and a fully-warm cache run must beat solving by a wide margin.
"""

import pytest

from repro.busytime import greedy_tracking
from repro.engine import (
    BatchRunner,
    ResultCache,
    build_sweep_tasks,
    default_grid,
    solve,
)
from repro.instances import random_interval_instance


def test_registry_dispatch_overhead(benchmark, rng):
    inst = random_interval_instance(100, 150.0, rng=rng)
    direct = greedy_tracking(inst, 4).total_busy_time
    outcome = benchmark(solve, "busy", "greedy_tracking", inst, 4)
    assert outcome.objective == pytest.approx(direct)


def test_serial_batch_throughput(benchmark):
    tasks = build_sweep_tasks([default_grid("busy")], limit=12)
    runner = BatchRunner(jobs=1)
    results = benchmark(runner.run, tasks)
    assert all(r.ok for r in results)


def test_warm_cache_run(benchmark, tmp_path):
    tasks = build_sweep_tasks([default_grid("busy")], limit=12)
    cache = ResultCache(directory=tmp_path)
    BatchRunner(jobs=1, cache=cache).run(tasks)  # warm it

    runner = BatchRunner(jobs=1, cache=cache)
    results = benchmark(runner.run, tasks)
    assert sum(r.cached for r in results) == len(tasks)
