"""`repro.engine` — the parallel batch-solving engine.

Layers, bottom up:

* :mod:`~repro.engine.registry` — central ``(problem, name)`` solver
  registry with metadata; the single dispatch point for every consumer.
* :mod:`~repro.engine.cache` — content-addressed result cache (memory
  LRU + optional on-disk JSON store).
* :mod:`~repro.engine.workers` — picklable task/result records and the
  worker-side executor with timeouts and rich error context.
* :mod:`~repro.engine.dispatch` — one run's scheduling state (digest
  dedupe, sticky structure-group picks, the ordered merge), shared by
  the runner and the multi-host fabric.
* :mod:`~repro.engine.runner` — :class:`BatchRunner`, which shards
  tasks across a process pool with deterministic result ordering.
* :mod:`~repro.engine.results` — streaming JSONL store + aggregation
  into :mod:`repro.analysis` tables.
* :mod:`~repro.engine.sweep` — generator x algorithm x g experiment
  grids driving all of the above.
"""

from .cache import ResultCache, canonical_task, instance_digest, task_digest
from .registry import (
    REGISTRY,
    SolveOutcome,
    SolverRegistry,
    SolverSpec,
    backend_task_params,
    get_solver,
    solve,
)
from .results import (
    aggregate,
    aggregate_table,
    read_results,
    write_results,
)
from .dispatch import ResultStream
from .runner import BatchRunner, PRIORITY_URGENT, StreamStats
from .sweep import SweepGrid, build_sweep_tasks, default_grid, run_sweep
from .workers import Task, TaskResult, TaskTimeout, execute_task, make_task

__all__ = [
    "BatchRunner",
    "PRIORITY_URGENT",
    "REGISTRY",
    "ResultCache",
    "ResultStream",
    "SolveOutcome",
    "SolverRegistry",
    "SolverSpec",
    "StreamStats",
    "SweepGrid",
    "Task",
    "TaskResult",
    "TaskTimeout",
    "aggregate",
    "aggregate_table",
    "backend_task_params",
    "build_sweep_tasks",
    "canonical_task",
    "default_grid",
    "execute_task",
    "get_solver",
    "instance_digest",
    "make_task",
    "read_results",
    "run_sweep",
    "solve",
    "task_digest",
    "write_results",
]
