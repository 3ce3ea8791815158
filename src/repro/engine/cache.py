"""Content-addressed result cache for solver runs.

A task is identified by a stable SHA-256 digest of the *canonicalized*
instance (job tuples in order), the problem/algorithm pair, ``g`` and
any extra parameters.  Two layers:

* an in-memory LRU (``OrderedDict``) bounded by ``maxsize``;
* an optional on-disk JSON store (one ``<digest>.json`` file per
  digest) so repeated sweeps across process runs are near-free —
  bounded by an optional byte budget with oldest-mtime eviction
  (``repro cache --prune`` applies the same policy from the CLI).

Only JSON-serializable result records go through the cache — schedules
stay in-process.  Records are deep-copied at the ``get``/``put``
boundary, so a caller mutating a record it handed in or got back can
never corrupt the cached entry, and the memory layer is guarded by a
lock so concurrent serving threads share one cache safely.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Mapping

from ..core.jobs import Instance
from ..obs import REGISTRY as OBS

__all__ = [
    "canonical_jobs_json",
    "canonical_task",
    "instance_digest",
    "task_digest",
    "task_digest_with_jobs",
    "ResultCache",
]

_HITS = OBS.counter(
    "repro_cache_hits_total",
    "Result-cache hits, by which layer answered",
    ("layer",),
)
_MISSES = OBS.counter(
    "repro_cache_misses_total",
    "Result-cache lookups that missed both layers",
)
_EVICTIONS = OBS.counter(
    "repro_cache_evictions_total",
    "Result-cache entries evicted, by layer",
    ("layer",),
)


def _canonical_jobs(instance: Instance) -> list[list[Any]]:
    """Jobs as plain lists, in instance order (order matters to packers).

    ``Job.label`` is excluded: it is declared ``compare=False`` on the
    dataclass and no solver reads it, so label-only variants of the
    same jobs must share cache entries.
    """
    return [
        [j.release, j.deadline, j.length, j.id]
        for j in instance.jobs
    ]


def canonical_task(
    instance: Instance,
    problem: str,
    algorithm: str,
    g: int,
    params: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The canonical JSON-ready description of one solve task."""
    return {
        "jobs": _canonical_jobs(instance),
        "problem": problem,
        "algorithm": algorithm,
        "g": g,
        "params": dict(sorted((params or {}).items())),
    }


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, built once.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def instance_digest(instance: Instance) -> str:
    """Stable content hash of an instance alone."""
    return _sha256(canonical_jobs_json(instance))


def canonical_jobs_json(instance: Instance) -> str:
    """The instance's canonical jobs as the JSON text digests hash."""
    return _dumps(_canonical_jobs(instance))


def task_digest(
    instance: Instance,
    problem: str,
    algorithm: str,
    g: int,
    params: Mapping[str, Any] | None = None,
) -> str:
    """Stable content hash of a full solve task."""
    return task_digest_with_jobs(
        canonical_jobs_json(instance), problem, algorithm, g, params
    )


#: Stands in for the jobs while the rest of a canonical task serializes.
_NO_JOBS = Instance(())


def task_digest_with_jobs(
    jobs: str,
    problem: str,
    algorithm: str,
    g: int,
    params: Mapping[str, Any] | None = None,
) -> str:
    """:func:`task_digest` of a task whose jobs are already serialized.

    ``jobs`` is :func:`canonical_jobs_json` of the task's instance.  The
    hashed text is the JSON of :func:`canonical_task`, member by member
    in key order, with ``jobs`` spliced in, so a caller digesting many
    tasks of one instance serializes its jobs once.
    """
    task = canonical_task(_NO_JOBS, problem, algorithm, g, params)
    members = ",".join(
        f"{_dumps(key)}:{jobs if key == 'jobs' else _dumps(value)}"
        for key, value in sorted(task.items())
    )
    return _sha256("{" + members + "}")


#: Bound on the in-memory layer; least-recently-used entries are evicted
#: first.
_MAXSIZE = 4096


class ResultCache:
    """In-memory LRU (:data:`_MAXSIZE` entries) over an optional on-disk
    JSON store.

    Parameters
    ----------
    directory:
        When given, every ``put`` also writes ``<digest>.json`` here and
        ``get`` falls back to disk on a memory miss.
    disk_budget:
        Optional byte budget for the disk layer.  After every disk
        write, oldest-mtime entries are evicted until the store fits;
        ``None`` leaves the disk layer unbounded (the seed behavior).
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        disk_budget: int | None = None,
    ) -> None:
        if disk_budget is not None and disk_budget < 0:
            raise ValueError(
                f"disk_budget must be non-negative, got {disk_budget}"
            )
        self.directory = Path(directory) if directory is not None else None
        self.disk_budget = disk_budget
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        #: Disk entries evicted over this cache's lifetime.
        self.evictions = 0
        #: Memory-LRU entries pushed out by :data:`_MAXSIZE`.
        self.evictions_memory = 0
        # Running estimate of disk bytes, so `put` only pays a full
        # directory scan when the budget is actually threatened (the
        # estimate over-counts same-key overwrites, which merely makes
        # the next prune happen a little early).
        self._disk_estimate = (
            self.disk_usage()[1] if disk_budget is not None else 0
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def get(self, key: str) -> dict[str, Any] | None:
        """Return the cached record for ``key`` or ``None`` on a miss.

        The returned record is the caller's own deep copy: mutating it
        (including nested ``metrics``/``meta`` dicts) never touches the
        cached entry.
        """
        with self._lock:
            record = self._memory.get(key)
            if record is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                _HITS.labels(layer="memory").inc()
                return copy.deepcopy(record)
        if self.directory is not None:
            path = self.directory / f"{key}.json"
            try:
                record = json.loads(path.read_bytes())
            except (OSError, ValueError):  # ValueError: bad JSON or UTF-8
                record = None
            if isinstance(record, dict):  # else absent or unreadable: a miss
                # Refresh the entry's mtime: prune() evicts oldest-mtime
                # first, so without the touch the most frequently *read*
                # entries would be the first to go under a byte budget.
                try:
                    os.utime(path)
                except OSError:
                    pass  # e.g. concurrently pruned; the read still wins
                with self._lock:
                    self._store_memory(key, record)
                    self.hits += 1
                _HITS.labels(layer="disk").inc()
                # ``record`` came fresh off disk and _store_memory keeps
                # its own deep copy, so handing it out directly is safe.
                return record
        with self._lock:
            self.misses += 1
        _MISSES.inc()
        return None

    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Store a JSON-serializable record under ``key``.

        The cache keeps a deep copy: later mutation of ``record`` (or
        its nested dicts) by the caller does not reach the cache.
        """
        with self._lock:
            self._store_memory(key, record)
        if self.directory is not None:
            path = self.directory / f"{key}.json"
            payload = json.dumps(record, sort_keys=True).encode("utf-8")
            # Unique tmp name: concurrent runs sharing a cache directory
            # may put the same digest; a fixed tmp name would race.
            tmp = path.parent / (
                f"{path.name}.{os.getpid()}.{id(self):x}.tmp"
            )
            tmp.write_bytes(payload)
            tmp.replace(path)
            if self.disk_budget is not None:
                with self._lock:
                    self._disk_estimate += len(payload)
                    threatened = self._disk_estimate > self.disk_budget
                if threatened:
                    self.prune()

    def _store_memory(self, key: str, record: Mapping[str, Any]) -> None:
        # Deep copy at the boundary: the nested metrics/meta dicts must
        # not be aliased between the cache and any caller.
        self._memory[key] = copy.deepcopy(dict(record))
        self._memory.move_to_end(key)
        while len(self._memory) > _MAXSIZE:
            self._memory.popitem(last=False)
            self.evictions_memory += 1
            _EVICTIONS.labels(layer="memory").inc()

    # ------------------------------------------------------------------
    # Disk accounting and eviction
    # ------------------------------------------------------------------
    def disk_entries(self) -> list[tuple[Path, int, float]]:
        """``(path, size, mtime)`` per disk entry, oldest-mtime first.

        Entries racing with a concurrent eviction/write simply drop out
        of the listing.
        """
        if self.directory is None:
            return []
        entries: list[tuple[Path, int, float]] = []
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((path, stat.st_size, stat.st_mtime))
        entries.sort(key=lambda e: (e[2], e[0].name))
        return entries

    def disk_usage(self) -> tuple[int, int]:
        """``(num_entries, total_bytes)`` of the disk layer."""
        entries = self.disk_entries()
        return len(entries), sum(size for _, size, _ in entries)

    def prune(self, budget: int | None = None) -> dict[str, int]:
        """Evict oldest-mtime disk entries until the store fits ``budget``.

        ``budget`` defaults to the configured ``disk_budget``; passing an
        explicit value (e.g. ``0`` to empty the store) overrides it.
        Returns a summary: entries/bytes removed and kept.
        """
        if budget is None:
            budget = self.disk_budget
        if self.directory is None or budget is None:
            num, size = self.disk_usage()
            return {"removed": 0, "removed_bytes": 0,
                    "kept": num, "kept_bytes": size}
        entries = self.disk_entries()
        total = sum(size for _, size, _ in entries)
        removed = removed_bytes = 0
        for path, size, _ in entries:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            # The memory layer may still hold the record; that is fine —
            # eviction bounds disk, not correctness.
            total -= size
            removed += 1
            removed_bytes += size
        with self._lock:
            self.evictions += removed
            self._disk_estimate = total  # re-anchor the running estimate
        if removed:
            _EVICTIONS.labels(layer="disk").inc(removed)
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "kept": len(entries) - removed,
            "kept_bytes": total,
        }

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus the in-memory size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._memory),
                "evictions_disk": self.evictions,
                "evictions_memory": self.evictions_memory,
            }

    def clear(self) -> None:
        """Drop the in-memory layer (disk files are left alone)."""
        with self._lock:
            self._memory.clear()
