"""Timing wrappers the benchmark installs around the layers' entry points.

Every span is recorded from outside the program: a wrapper replaces an
attribute on one object (a :class:`Processor` instance, a class, or a
module) for the duration of a traced operation and puts the original
back afterwards.  Nothing under ``src/`` is changed.  Each span keeps its
inclusive wall time in nanoseconds and its call count; a layer's self
time is its span minus the spans of its children, computed by the caller
(dispatch minus choose, export minus ensure).
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

_clock = time.perf_counter_ns

#: Pipeline stages wrapped on each traced :class:`Processor` instance,
#: as (span name, attribute).  ``step`` encloses all the others;
#: ``choose`` (the steering decision) is called from inside ``dispatch``.
PROCESSOR_SPANS = (
    ("commit", "_commit_stage"),
    ("issue", "_issue_stage"),
    ("dispatch", "_dispatch_stage"),
    ("fetch", "_fetch"),
    ("choose", "_choose_fn"),
    ("step", "step"),
)


class Spans:
    """Inclusive nanoseconds, call counts and free-form counts per name.

    Updates take a lock only when the spans are shared by threads (the
    sweep's dispatcher threads); the single-threaded core loop skips it.
    """

    def __init__(self, threaded: bool = False) -> None:
        self.ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._lock = threading.Lock() if threaded else None
        self._cells = []

    def add(self, name: str, ns: int, **counts: int) -> None:
        lock = self._lock
        if lock is not None:
            lock.acquire()
        try:
            self.ns[name] += ns
            self.calls[name] += 1
            for key, value in counts.items():
                self.counts[key] += value
        finally:
            if lock is not None:
                lock.release()

    def wrap(self, name: str, fn):
        """*fn* with its wall time charged to span *name*."""
        if self._lock is not None:
            add = self.add

            def timed(*args, **kwargs):
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    add(name, _clock() - start)

            return timed
        # Hot path (called several times per simulated cycle): a list
        # cell instead of dict updates, folded into ``ns`` by ``fold``.
        cell = [0, 0]
        self._cells.append((name, cell))

        def timed_fast(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += _clock() - start
                cell[1] += 1

        return timed_fast

    def fold(self) -> "Spans":
        """Move the single-threaded cells into ``ns`` / ``calls``."""
        for name, cell in self._cells:
            self.ns[name] += cell[0]
            self.calls[name] += cell[1]
            cell[0] = cell[1] = 0
        return self


def instrument_processor(spans: Spans, processor) -> None:
    """Wrap *processor*'s stage entry points (instance attributes only)."""
    for name, attr in PROCESSOR_SPANS:
        setattr(processor, attr, spans.wrap(name, getattr(processor, attr)))
    processor.lsq.step = spans.wrap("lsq", processor.lsq.step)


@contextlib.contextmanager
def patched(target, attr: str, replacement):
    """Set ``target.attr`` to *replacement* for the ``with`` block."""
    original = target.__dict__[attr]
    setattr(target, attr, replacement)
    try:
        yield original
    finally:
        setattr(target, attr, original)


@contextlib.contextmanager
def stats_spans(spans: Spans):
    """Time ``SimStats.on_cycle`` (the stats object is replaced per run,
    so the wrapper goes on the class)."""
    from repro.pipeline.stats import SimStats

    original = SimStats.__dict__["on_cycle"]
    with patched(SimStats, "on_cycle", spans.wrap("stats", original)):
        yield


@contextlib.contextmanager
def ensure_spans(spans: Spans):
    """Time ``SharedTrace.ensure`` and count the records it materialises."""
    from repro.workloads.trace import SharedTrace

    original = SharedTrace.__dict__["ensure"]

    def ensure(self, n):
        before = len(self)
        start = _clock()
        try:
            return original(self, n)
        finally:
            spans.add("ensure", _clock() - start, trace_records=len(self) - before)

    with patched(SharedTrace, "ensure", ensure):
        yield


@contextlib.contextmanager
def generate_spans(spans: Spans):
    """Time ``repro.workloads.generate_program`` (the program generator)."""
    import repro.workloads as workloads

    original = workloads.__dict__["generate_program"]
    with patched(workloads, "generate_program", spans.wrap("generate", original)):
        yield


@contextlib.contextmanager
def dispatcher_spans(spans: Spans):
    """The sweep's dispatcher-side spans: program generation, trace
    materialisation, ``.rtrace`` export (with payload bytes), the pool's
    payload cache and the whole preload of a trace onto a worker."""
    import repro.scenarios.rtrace as rtrace
    from repro.dist.worker import WorkerBackend, WorkerPool

    export = rtrace.__dict__["export_trace_bytes"]

    def export_trace_bytes(*args, **kwargs):
        start = _clock()
        data = None
        try:
            data, meta = export(*args, **kwargs)
            return data, meta
        finally:
            spans.add(
                "export", _clock() - start,
                payload_bytes=len(data) if data is not None else 0,
            )

    with contextlib.ExitStack() as stack:
        stack.enter_context(generate_spans(spans))
        stack.enter_context(ensure_spans(spans))
        stack.enter_context(patched(rtrace, "export_trace_bytes", export_trace_bytes))
        stack.enter_context(patched(
            WorkerPool, "trace_payload",
            spans.wrap("trace_payload", WorkerPool.__dict__["trace_payload"]),
        ))
        stack.enter_context(patched(
            WorkerBackend, "_preload",
            spans.wrap("preload", WorkerBackend.__dict__["_preload"]),
        ))
        yield
