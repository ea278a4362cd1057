"""Process-wide metrics registry: counters, gauges, histograms.

Every quantitative signal the pipeline already produces piecemeal —
:class:`~repro.tuning.evaluator.EvalStats` cache counters, the
simulator's call count and occupancy-prescreen rejections, the
hierarchical tuner's per-stage candidate counts — feeds one registry
here, so a single ``--metrics`` flag (or a trace export) can show the
whole picture of a run.

Collection is off by default and every hot-path instrumentation site
guards with :func:`metrics_enabled`, so the disabled cost is a global
flag check.  All metric types are thread-safe (one lock per metric;
increments from an ``--eval-timeout`` watchdog thread are exact, not
last-writer-wins).

Snapshots (``as_dict``/``MetricsRegistry.snapshot``) are plain JSON
and *mergeable*: :meth:`MetricsRegistry.merge_snapshot` folds another
registry's snapshot into this one — counters summed, gauges
last-writer-wins by timestamp, histograms bucket-merged — which is how
the ``--metrics-port`` endpoint builds each scrape from the live
registry.

API::

    from repro.obs import counter, gauge, histogram, metrics_enabled

    if metrics_enabled():
        counter("eval.requests").add()
        gauge("tiling.plan_cache.size").set(plan_cache_size())
        histogram("simulate.wall_s").observe(elapsed)
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Union

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "configure_metrics",
    "counter",
    "gauge",
    "get_metrics",
    "histogram",
    "metrics_enabled",
]

Number = Union[int, float]

#: Default histogram bucket upper bounds (``le``, inclusive), log-spaced
#: to cover everything the pipeline observes in one ladder: microsecond
#: simulator calls up to multi-minute tuning walls.  A final implicit
#: +Inf bucket catches the overflow.  Shared bounds are what make
#: cross-process bucket-merging exact.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def add(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def as_dict(self) -> Dict[str, Number]:
        return {"type": "counter", "value": self._value}

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Fold another process's snapshot of this counter: values sum."""
        self.add(data.get("value", 0))


class Gauge:
    """Last-set point-in-time value.

    Each write records a wall-clock timestamp so cross-process merges
    can apply last-writer-wins semantics deterministically.
    """

    __slots__ = ("name", "_value", "_ts", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: Number = 0
        self._ts: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: Number, ts: Optional[float] = None) -> None:
        with self._lock:
            self._value = value
            self._ts = time.time() if ts is None else ts

    def add(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount
            self._ts = time.time()

    @property
    def value(self) -> Number:
        return self._value

    def as_dict(self) -> Dict[str, Number]:
        return {"type": "gauge", "value": self._value, "ts": self._ts}

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Fold a snapshot of this gauge: the newest write wins."""
        ts = float(data.get("ts", 0.0))
        with self._lock:
            if ts >= self._ts:
                self._value = data.get("value", 0)
                self._ts = ts


class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean).

    Observations are also folded into a fixed ladder of ``le`` buckets
    (:data:`DEFAULT_BUCKETS` + an implicit +Inf overflow), which is what
    makes histograms *mergeable across processes* (bucket counts sum)
    and gives :meth:`quantile` its estimate.  A fixed-size reservoir of
    the most recent observations rides along so exports can show a
    coarse distribution without unbounded memory.
    """

    __slots__ = ("name", "_count", "_sum", "_min", "_max", "_recent",
                 "_capacity", "_bounds", "_buckets", "_lock")

    def __init__(
        self,
        name: str,
        capacity: int = 64,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._recent: List[float] = []
        self._capacity = capacity
        self._bounds = tuple(sorted(bounds))
        self._buckets = [0] * (len(self._bounds) + 1)  # last = +Inf
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            # First bucket whose upper bound covers the value (le is
            # inclusive, Prometheus-style); beyond the ladder -> +Inf.
            self._buckets[bisect.bisect_left(self._bounds, value)] += 1
            if len(self._recent) >= self._capacity:
                self._recent.pop(0)
            self._recent.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket ladder.

        Linear interpolation inside the bucket that crosses the target
        rank, clamped to the observed ``min``/``max`` — so the estimate
        is exact at q=0/q=1 and never leaves the observed range.  An
        empty histogram reports 0.0.
        """
        with self._lock:
            return _bucket_quantile(
                q, self._bounds, self._buckets, self._count,
                self._min, self._max,
            )

    def as_dict(self) -> Dict[str, Number]:
        with self._lock:
            return {
                "type": "histogram",
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._min is not None else 0.0,
                "max": self._max if self._max is not None else 0.0,
                "mean": self.mean,
                "le": list(self._bounds),
                "buckets": list(self._buckets),
            }

    def merge_dict(self, data: Dict[str, Any]) -> None:
        """Fold a snapshot of this histogram: buckets merge bin-wise.

        Both sides must share bucket bounds (every registry uses
        :data:`DEFAULT_BUCKETS` unless explicitly built otherwise);
        mismatched ladders cannot be merged exactly and raise.
        """
        bounds = tuple(data.get("le", ()))
        buckets = data.get("buckets")
        count = int(data.get("count", 0))
        if count == 0:
            return
        with self._lock:
            if bounds != self._bounds:
                raise ValueError(
                    f"histogram {self.name!r}: cannot merge snapshots with "
                    f"different bucket bounds"
                )
            self._count += count
            self._sum += float(data.get("sum", 0.0))
            for side in ("min", "max"):
                value = data.get(side)
                if value is None:
                    continue
                mine = self._min if side == "min" else self._max
                fold = min if side == "min" else max
                merged = float(value) if mine is None else fold(
                    mine, float(value)
                )
                if side == "min":
                    self._min = merged
                else:
                    self._max = merged
            if buckets is not None:
                for index, extra in enumerate(buckets):
                    self._buckets[index] += int(extra)

    @staticmethod
    def quantile_from_dict(data: Dict[str, Any], q: float) -> float:
        """:meth:`quantile`, computed from an ``as_dict`` snapshot."""
        count = int(data.get("count", 0))
        return _bucket_quantile(
            q,
            tuple(data.get("le", ())),
            data.get("buckets") or [],
            count,
            data.get("min") if count else None,
            data.get("max") if count else None,
        )


def _bucket_quantile(
    q: float,
    bounds: Sequence[float],
    buckets: Sequence[int],
    count: int,
    minimum: Optional[float],
    maximum: Optional[float],
) -> float:
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile q must be within [0, 1]")
    if count == 0 or minimum is None or maximum is None:
        return 0.0
    if not buckets:
        # Legacy snapshot without a ladder: best effort from the range.
        return minimum + (maximum - minimum) * q
    target = q * count
    cumulative = 0
    for index, bucket_count in enumerate(buckets):
        if bucket_count == 0:
            continue
        lower = bounds[index - 1] if index > 0 else minimum
        upper = bounds[index] if index < len(bounds) else maximum
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= target:
            lower = max(lower, minimum)
            upper = min(upper, maximum)
            if upper <= lower:
                return max(minimum, min(maximum, upper))
            fraction = (target - previous) / bucket_count
            return max(minimum, min(maximum, lower + fraction * (upper - lower)))
    return maximum


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics, created on first use, snapshot-able as plain JSON."""

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, Dict[str, Number]]:
        """All metrics as a name-sorted plain dict (JSON-ready)."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].as_dict() for name in sorted(metrics)}

    def merge_snapshot(
        self,
        snapshot: Dict[str, Dict[str, Any]],
        exclude_prefixes: Sequence[str] = (),
    ) -> "MetricsRegistry":
        """Fold another registry's :meth:`snapshot` into this one.

        Merge semantics per type: **counters sum**, **gauges take the
        newest write** (by recorded timestamp), **histograms merge
        bucket-wise** (requiring identical bucket ladders).  The fold is
        commutative and associative, so snapshots may be folded in any
        order — as long as each is folded once.

        ``exclude_prefixes`` skips metric families the caller bills
        through another channel (e.g. ``eval.`` in the ``--metrics-port``
        collector, which publishes the engine's live EvalStats
        instead).
        """
        getters = {
            "counter": self.counter,
            "gauge": self.gauge,
            "histogram": self.histogram,
        }
        for name in sorted(snapshot):
            if any(name.startswith(prefix) for prefix in exclude_prefixes):
                continue
            data = snapshot[name]
            getter = getters.get(data.get("type"))
            if getter is None:
                continue  # unknown type: skip rather than corrupt
            getter(name).merge_dict(data)
        return self

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


# ---------------------------------------------------------------------------
# process-wide registry
# ---------------------------------------------------------------------------

_REGISTRY = MetricsRegistry()
_ENABLED = False


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def metrics_enabled() -> bool:
    return _ENABLED


def configure_metrics(enabled: bool, reset: bool = False) -> MetricsRegistry:
    """Enable/disable collection on the global registry."""
    global _ENABLED
    if reset:
        _REGISTRY.reset()
    _ENABLED = enabled
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)
