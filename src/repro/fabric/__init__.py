"""Distributed sweep fabric: work-stealing dispatch over serve hosts.

One :class:`RemoteDispatcher` turns many ``repro serve`` hosts into a
single sweep engine with the same streaming, ordered, dedupe-aware
contract as the local :class:`repro.engine.runner.BatchRunner`: both
run the engine's one scheduling core, :mod:`repro.engine.dispatch`.
"""

from .dispatcher import (
    FabricStats,
    HostStats,
    RemoteDispatcher,
    normalize_hosts,
    task_payload,
)

__all__ = [
    "FabricStats",
    "HostStats",
    "RemoteDispatcher",
    "normalize_hosts",
    "task_payload",
]
