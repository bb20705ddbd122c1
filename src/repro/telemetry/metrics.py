"""A process-wide registry of counters.

Named counters live on a shared :data:`metrics` registry.  Each has a
reader: ``perfbench`` and ``tests/test_trace_columns.py`` read the
steering memo counters (``steering.memo.hits`` / ``.misses``), and CI's
crash-once warm-pool step and ``tests/test_dist.py`` read
``dispatch.retries_total``.

Counters are process-local: a worker's counters describe that worker's
process and are not merged across a fleet.
"""

from __future__ import annotations

import threading
from typing import Dict


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


class MetricsRegistry:
    """Named counters, created on first use, snapshot on demand."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def snapshot(self) -> Dict[str, dict]:
        """Every counter, decoded to plain JSON-ready documents."""
        with self._lock:
            items = list(self._counters.items())
        return {
            name: counter.to_document() for name, counter in sorted(items)
        }

    def reset(self) -> None:
        """Drop every counter (tests and bench isolation)."""
        with self._lock:
            self._counters.clear()


#: The process-wide registry every component records into.
metrics = MetricsRegistry()
