"""Thread-safe metrics primitives and the process-wide registry.

Three instrument kinds cover everything the engine reports:

* :class:`Counter` — monotonically increasing totals (flushes, fsyncs,
  records, bytes);
* :class:`Gauge` — point-in-time values that move both ways (open
  engines, delta fill);
* :class:`Histogram` — fixed-bucket latency/size distributions whose
  snapshots are never torn (bucket counts, sum, and count are updated
  and read under one lock).

A :class:`MetricsRegistry` owns one time series per (name, labels)
pair. The process-wide default registry (:func:`get_registry` /
:func:`set_registry`) is what the engine instruments against; swapping
in ``MetricsRegistry(enabled=False)`` turns every instrument handed out
into a shared no-op singleton, so disabled mode costs one no-op method
call at each instrumentation site and nothing else.

Hot paths that cannot afford a registry lookup per event cache their
instrument handles and revalidate them against :func:`generation`,
which is bumped on every :func:`set_registry` (see
``repro.obs.boundary`` for the pattern).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from typing import Optional, Sequence

# Default histogram buckets: log-spaced seconds from 10 us to 10 s,
# suitable for everything from an NVM drain to a full log replay.
DEFAULT_BUCKETS = (
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _label_str(key: tuple) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


class Counter:
    """Monotonic counter, exact under concurrency, cheap to increment.

    ``inc`` appends to a :class:`~collections.deque` — a single C-level
    call that is atomic under the GIL, so concurrent increments from
    server workers and merge threads never lose updates (a bare ``+=`` on an
    attribute is a read-modify-write that can), at a fraction of the
    cost of taking a lock per event. Reads drain the pending deque into
    ``_value`` under a lock; the NVM flush path makes increments ~1000×
    more frequent than reads, so that is the right side to pay on.
    ``inc`` self-drains past ``_DRAIN_THRESHOLD`` to bound memory when
    nothing snapshots for a long time.
    """

    kind = "counter"

    _DRAIN_THRESHOLD = 4096

    __slots__ = ("_lock", "_value", "_pending")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0
        self._pending: deque = deque()

    def inc(self, amount: int = 1) -> None:
        pending = self._pending
        pending.append(amount)
        if len(pending) > self._DRAIN_THRESHOLD:
            self._drain()

    def _drain(self) -> None:
        with self._lock:
            pending = self._pending
            # Pop exactly what was present on entry: appends that race
            # in behind us stay queued for the next drain.
            total = 0
            for _ in range(len(pending)):
                total += pending.popleft()
            self._value += total

    @property
    def value(self) -> int:
        self._drain()
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._pending.clear()
            self._value = 0

    def snapshot(self):
        return self.value


class Gauge:
    """Point-in-time value; supports absolute ``set`` and relative ``add``."""

    kind = "gauge"

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self.set(0.0)

    def snapshot(self):
        return self._value


class Histogram:
    """Fixed-bucket histogram of observed values.

    Bucket bounds are upper edges (a value lands in the first bucket
    whose bound is >= the value; larger values land in the implicit
    +Inf overflow bucket). ``observe`` and ``snapshot`` share one lock:
    a snapshot taken mid-write always satisfies
    ``sum(bucket counts) == count`` — it is never torn.
    """

    kind = "histogram"

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Optional[Sequence[float]] = None):
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0

    def snapshot(self) -> dict:
        """Consistent view: ``{"count", "sum", "mean", "buckets"}`` where
        ``buckets`` maps the upper bound — stringified, ``"+Inf"`` last,
        so snapshots JSON-serialize cleanly — to a cumulative count."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            total_sum = self._sum
        buckets: dict = {}
        running = 0
        for bound, n in zip(self.bounds, counts):
            running += n
            buckets[str(bound)] = running
        buckets["+Inf"] = running + counts[-1]
        return {
            "count": total,
            "sum": total_sum,
            "mean": (total_sum / total) if total else 0.0,
            "buckets": buckets,
        }


class _NullCounter:
    """Shared no-op counter handed out by a disabled registry."""

    kind = "counter"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def reset(self) -> None:
        pass

    def snapshot(self):
        return 0


class _NullGauge:
    kind = "gauge"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def reset(self) -> None:
        pass

    def snapshot(self):
        return 0.0


class _NullHistogram:
    kind = "histogram"
    count = 0
    sum = 0.0
    bounds = ()

    def observe(self, value: float) -> None:
        pass

    def reset(self) -> None:
        pass

    def snapshot(self) -> dict:
        return {"count": 0, "sum": 0.0, "mean": 0.0, "buckets": {}}


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Thread-safe home for every (name, labels) time series.

    Instruments are created lazily and idempotently: two threads asking
    for the same ``counter("x", kind="flush")`` get the same object.
    A disabled registry (``enabled=False``) hands out shared null
    instruments and snapshots to nothing — the zero-overhead mode.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        # family name -> {label key tuple -> instrument}
        self._families: dict[str, dict[tuple, object]] = {}
        self._kinds: dict[str, str] = {}

    # -- instrument factories ------------------------------------------

    def _instrument(self, name: str, kind: str, factory, labels: dict):
        key = _label_key(labels)
        # An existing series is served without the lock (entries are never removed).
        instrument = self._families.get(name, {}).get(key)
        if instrument is not None and instrument.kind == kind:
            return instrument
        with self._lock:
            family = self._families.setdefault(name, {})
            have = self._kinds.setdefault(name, kind)
            if have != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {have}, not {kind}"
                )
            if key not in family:
                family[key] = factory()
            return family[key]

    def counter(self, name: str, **labels) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        return self._instrument(name, "counter", Counter, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        return self._instrument(name, "gauge", Gauge, labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._instrument(name, "histogram", lambda: Histogram(buckets), labels)

    # -- introspection -------------------------------------------------

    def families(self) -> dict[str, str]:
        """Mapping of family name -> instrument kind."""
        with self._lock:
            return dict(self._kinds)

    def snapshot(self) -> dict:
        """All series as plain data: ``{name{labels}: value-or-hist}``."""
        with self._lock:
            items = [
                (name, sorted(family.items()))
                for name, family in sorted(self._families.items())
            ]
        out: dict = {}
        for name, series in items:
            for key, instrument in series:
                out[name + _label_str(key)] = instrument.snapshot()
        return out

    def counters_snapshot(self) -> dict:
        """Only the counter series (for "top counters" views)."""
        with self._lock:
            items = [
                (name, sorted(family.items()))
                for name, family in sorted(self._families.items())
                if self._kinds.get(name) == "counter"
            ]
        return {
            name + _label_str(key): instrument.snapshot()
            for name, series in items
            for key, instrument in series
        }

    def reset(self) -> None:
        """Zero every series (instruments and handles stay valid)."""
        with self._lock:
            instruments = [
                instrument
                for family in self._families.values()
                for instrument in family.values()
            ]
        for instrument in instruments:
            instrument.reset()


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------

_default_registry = MetricsRegistry(enabled=True)
_generation = 0
_swap_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (always-on engine telemetry)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default; returns the previous registry.

    Bumps :func:`generation` so hot paths holding cached instrument
    handles (see ``repro.obs.boundary``) re-resolve them.
    """
    global _default_registry, _generation
    with _swap_lock:
        previous = _default_registry
        _default_registry = registry
        _generation += 1
    return previous


def generation() -> int:
    """Monotonic counter bumped on every :func:`set_registry`."""
    return _generation
