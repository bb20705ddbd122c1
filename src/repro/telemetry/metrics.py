"""A process-wide metrics registry: counters, gauges, histograms.

Named instruments live on a shared :data:`metrics` registry whose
:meth:`~MetricsRegistry.snapshot` is surfaced by ``dist pool status
--json``; ``perfbench`` reads the steering memo counters directly.

Instruments are cheap (a lock and a few floats) and process-local: a
worker's metrics describe that worker's process and are not merged
across a fleet.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError

#: Default histogram bucket upper bounds (seconds-flavoured: from 100µs
#: to ~2 minutes, roughly 3 buckets per decade).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 120.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def to_document(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A point-in-time value; settable or backed by a callback."""

    __slots__ = ("name", "_value", "_fn", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: float = 0.0
        self._fn: Optional[Callable[[], float]] = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = value

    def set_function(self, fn: Callable[[], float]) -> None:
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            try:
                return fn()
            except Exception:  # pragma: no cover - callback died
                return self._value
        return self._value

    def to_document(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A distribution summary with fixed cumulative buckets."""

    __slots__ = (
        "name", "bounds", "_counts", "_count", "_sum", "_min", "_max",
        "_lock",
    )

    def __init__(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    ):
        self.name = name
        self.bounds = tuple(sorted(buckets))
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._counts[bisect_right(self.bounds, value)] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def to_document(self) -> dict:
        with self._lock:
            doc = {
                "type": "histogram",
                "count": self._count,
                "sum": round(self._sum, 6),
            }
            if self._count:
                doc["min"] = round(self._min, 6)
                doc["max"] = round(self._max, 6)
                doc["mean"] = round(self._sum / self._count, 6)
                buckets = {}
                running = 0
                for bound, n in zip(self.bounds, self._counts):
                    running += n
                    if n:
                        buckets[f"le_{bound:g}"] = running
                if self._counts[-1]:
                    buckets["le_inf"] = self._count
                doc["buckets"] = buckets
            return doc


class MetricsRegistry:
    """Named instruments, created on first use, snapshot on demand."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = cls(name, *args)
                    self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise ConfigError(
                f"metric {name!r} is already registered as "
                f"{type(instrument).__name__.lower()}, "
                f"not {cls.__name__.lower()}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, buckets)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, dict]:
        """Every instrument, decoded to plain JSON-ready documents."""
        with self._lock:
            items = list(self._instruments.items())
        return {
            name: instrument.to_document()
            for name, instrument in sorted(items)
        }

    def reset(self) -> None:
        """Drop every instrument (tests and bench isolation)."""
        with self._lock:
            self._instruments.clear()


#: The process-wide registry every component records into.
metrics = MetricsRegistry()
