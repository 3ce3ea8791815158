"""Thread-safe metric families with labels, behind a process registry.

The shape mirrors the Prometheus client-library data model — counter,
gauge, histogram families; each family keyed by a tuple of label values
into *children* that hold the actual numbers — without the dependency.
Everything is standard library.

Concurrency: one lock per family guards its children map and their
values.  Recording operations (``inc``/``set``/``observe``) are a dict
lookup plus a locked float update — microseconds against solve paths
measured in milliseconds; the overhead benchmark pins the total under
3% of the hot path.

Disabling: ``registry.disable()`` flips one flag every recording call
checks first, so a registry-disabled run measures the true cost of the
instrumentation (the benchmark baseline) and embedders can opt out
wholesale.  Collection-time gauge callbacks (:meth:`Gauge.set_function`)
still evaluate when the registry is disabled only if rendered
explicitly — recording is what the flag gates.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets, sized for solver latencies (seconds):
#: sub-millisecond combinatorial solves up to minute-scale MILPs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class _Child:
    """One labeled time series inside a family."""

    __slots__ = ("_family",)

    def __init__(self, family: "_MetricFamily") -> None:
        self._family = family

    @property
    def _enabled(self) -> bool:
        return self._family.registry.enabled

    @property
    def _lock(self) -> threading.Lock:
        return self._family.lock


class _CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, family: "_MetricFamily") -> None:
        super().__init__(family)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._enabled:
            return
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeChild(_Child):
    __slots__ = ("_value", "_fn")

    def __init__(self, family: "_MetricFamily") -> None:
        super().__init__(family)
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Evaluate ``fn`` at collection time instead of storing a value.

        For mirroring state owned elsewhere (pool sizes, say) without a
        write on every change.  Exceptions from ``fn`` surface at render
        time — keep callbacks trivial.
        """
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
        if fn is not None:
            return float(fn())
        with self._lock:
            return self._value


class _HistogramChild(_Child):
    __slots__ = ("_counts", "_sum", "_count")

    def __init__(self, family: "_MetricFamily") -> None:
        super().__init__(family)
        # One slot per finite bucket plus the +Inf overflow slot.
        self._counts = [0] * (len(family.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not self._enabled:
            return
        value = float(value)
        slot = bisect_left(self._family.buckets, value)
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> tuple[list[int], float, int]:
        """``(per-bucket counts, sum, count)`` under the lock."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Returns the upper edge of the bucket containing the quantile
        (the same resolution a Prometheus ``histogram_quantile`` has);
        observations in the +Inf bucket answer the largest finite edge.
        ``nan`` with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts, _, total = self.snapshot()
        if total == 0:
            return math.nan
        rank = q * total
        seen = 0
        buckets = self._family.buckets
        for slot, n in enumerate(counts):
            seen += n
            if seen >= rank and n:
                if slot < len(buckets):
                    return buckets[slot]
                return buckets[-1] if buckets else math.inf
        return buckets[-1] if buckets else math.inf

    def summary(self) -> dict[str, float]:
        """Count/mean/quantile digest for JSON surfaces (``/stats``)."""
        _, total_sum, count = self.snapshot()
        return {
            "count": count,
            "mean": (total_sum / count) if count else math.nan,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


_CHILD_TYPES = {
    "counter": _CounterChild,
    "gauge": _GaugeChild,
    "histogram": _HistogramChild,
}


class _MetricFamily:
    """Shared machinery: a named, typed, labeled set of children.

    The family itself proxies the recording API onto its *unlabeled*
    child, so ``registry.counter("x", "...")`` usable directly and
    ``registry.counter("x", "...", ("who",)).labels("me")`` both work.
    """

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(
                    f"invalid label name {label!r} for metric {name!r}"
                )
        if self.kind == "histogram":
            bucket_list = tuple(
                float(b) for b in (buckets or DEFAULT_BUCKETS)
            )
            if list(bucket_list) != sorted(set(bucket_list)):
                raise ValueError(
                    f"histogram buckets must be strictly increasing, "
                    f"got {bucket_list}"
                )
            if "le" in labelnames:
                raise ValueError(
                    "'le' is reserved for histogram buckets"
                )
            self.buckets = bucket_list
        else:
            self.buckets: tuple[float, ...] = ()
        self.registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.lock = threading.Lock()
        self._children: dict[tuple[str, ...], _Child] = {}

    # ------------------------------------------------------------------
    def labels(self, *values: Any, **kwargs: Any) -> Any:
        """The child for one label-value combination (created on first use)."""
        if kwargs:
            if values:
                raise ValueError(
                    "pass label values positionally or by name, not both"
                )
            try:
                values = tuple(kwargs[n] for n in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"metric {self.name!r} has labels "
                    f"{list(self.labelnames)}, got {sorted(kwargs)}"
                ) from exc
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.labelnames)} "
                f"label value(s) {list(self.labelnames)}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        with self.lock:
            child = self._children.get(key)
            if child is None:
                child = _CHILD_TYPES[self.kind](self)
                self._children[key] = child
        return child

    def children(self) -> Iterator[tuple[dict[str, str], Any]]:
        """``(labels-dict, child)`` per live series, label-sorted."""
        with self.lock:
            items = sorted(self._children.items())
        for key, child in items:
            yield dict(zip(self.labelnames, key)), child

    # Unlabeled convenience surface --------------------------------------
    def _solo(self) -> Any:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} has labels "
                f"{list(self.labelnames)}; use .labels(...)"
            )
        return self.labels()

    def signature(self) -> tuple:
        return (self.kind, self.labelnames, self.buckets)


class Counter(_MetricFamily):
    """Monotonically increasing count (name them ``*_total``)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    @property
    def value(self) -> float:
        return self._solo().value


class Gauge(_MetricFamily):
    """A value that can go up and down (or be computed at collect time)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._solo().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._solo().set_function(fn)

    @property
    def value(self) -> float:
        return self._solo().value


class Histogram(_MetricFamily):
    """Bucketed distribution of observations (latencies, sizes)."""

    kind = "histogram"

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def quantile(self, q: float) -> float:
        return self._solo().quantile(q)

    def summary(self) -> dict[str, float]:
        return self._solo().summary()

    @property
    def count(self) -> int:
        return self._solo().count

    @property
    def sum(self) -> float:
        return self._solo().sum


_FAMILY_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Process-wide home for metric families.

    Families are get-or-create: a second registration of the same name
    returns the existing family when kind/labels/buckets agree and
    raises otherwise, so independent modules can safely share a series.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _MetricFamily] = {}
        self.enabled = enabled

    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        """Turn every recording call on this registry into a no-op."""
        self.enabled = False

    # ------------------------------------------------------------------
    def _register(
        self,
        kind: str,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> Any:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                candidate = _FAMILY_TYPES[kind](
                    self, name, help, labelnames, buckets
                )
                if existing.signature() != candidate.signature():
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{list(existing.labelnames)}"
                    )
                return existing
            family = _FAMILY_TYPES[kind](self, name, help, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register("counter", name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register("gauge", name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        return self._register("histogram", name, help, labelnames, buckets)

    # ------------------------------------------------------------------
    def get(self, name: str) -> _MetricFamily | None:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def collect(self) -> list[_MetricFamily]:
        """Every family, name-sorted (the renderer's input)."""
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def value(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> float:
        """Shorthand: current value of one counter/gauge series.

        Missing families or label combinations answer ``0.0`` so
        readers (``/stats``) never race registration order.
        """
        family = self.get(name)
        if family is None:
            return 0.0
        try:
            child = family.labels(**dict(labels or {}))
        except ValueError:
            return 0.0
        return float(child.value)


#: The default process-wide registry all built-in instrumentation uses.
REGISTRY = MetricsRegistry()
