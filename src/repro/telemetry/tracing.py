"""Distributed tracing: spans, propagation contexts, and trace trees.

A :class:`Span` names one stage of a distributed job — ``campaign``,
``dispatch``, ``batch-run``, ``worker.batch`` — with a shared ``trace_id``,
its own ``span_id``, an optional parent, a wall-clock start, a
monotonic duration, and free-form attributes.  Finished spans become
plain dicts: written through the telemetry sink as ``event: "span"``
lines, and small enough to ride protocol replies so a worker's spans
land in the dispatcher's log too.

Propagation is an optional ``trace`` field — ``{"trace_id", "span_id"}``
— on protocol requests.  Old peers ignore unknown fields and new peers
tolerate its absence, so the worker protocol version (v2) is
unchanged.

Because both ends record, the same span may appear twice in one log
file (a local worker and its dispatcher share ``REPRO_LOG_FILE``);
:func:`load_spans` deduplicates by ``span_id``.  :func:`render_trace`
reconstructs the tree for ``repro-sim trace show``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from . import log

#: Trace ids are 16 hex chars, span ids 8 — long enough to never collide
#: within one campaign, short enough to read in a log line.
_TRACE_BYTES = 8
_SPAN_BYTES = 4

#: A propagation context as it travels on the wire.
Context = Dict[str, str]


def new_trace_id() -> str:
    return os.urandom(_TRACE_BYTES).hex()


def new_span_id() -> str:
    return os.urandom(_SPAN_BYTES).hex()


class Span:
    """One timed stage of a trace.  End it exactly once."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start", "_t0", "duration", "status", "error", "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.trace_id = trace_id or new_trace_id()
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.start = time.time()
        self._t0 = time.perf_counter()
        self.duration: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None
        self.attrs: Dict[str, Any] = dict(attrs or {})

    def child(self, name: str, **attrs) -> "Span":
        return Span(
            name, trace_id=self.trace_id, parent_id=self.span_id,
            attrs=attrs,
        )

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def context(self) -> Context:
        """The wire form: what a ``trace`` protocol field carries."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def end(
        self,
        status: str = "ok",
        error: Optional[str] = None,
        record: bool = True,
    ) -> Dict[str, Any]:
        """Close the span; returns (and by default records) its record."""
        if self.duration is None:
            self.duration = time.perf_counter() - self._t0
            self.status = status
            self.error = error
        doc = self.to_record()
        if record:
            record_span(doc)
        return doc

    def to_record(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start": round(self.start, 6),
            "duration": round(
                self.duration
                if self.duration is not None
                else time.perf_counter() - self._t0,
                6,
            ),
            "status": self.status,
        }
        if self.parent_id:
            doc["parent_id"] = self.parent_id
        if self.error:
            doc["error"] = str(self.error)[:500]
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        return doc


def start_span(
    name: str,
    parent: Union[Span, Context, None] = None,
    **attrs,
) -> Span:
    """A new span under *parent* — a :class:`Span`, a wire context dict,
    or ``None`` for a fresh trace root.  Malformed contexts (an old peer
    sent something odd) silently start a fresh trace rather than fail.
    """
    if isinstance(parent, Span):
        return parent.child(name, **attrs)
    trace_id = parent_id = None
    if isinstance(parent, dict):
        trace_id = parent.get("trace_id")
        parent_id = parent.get("span_id")
        if not isinstance(trace_id, str) or not trace_id:
            trace_id = parent_id = None
        elif not isinstance(parent_id, str):
            parent_id = None
    return Span(name, trace_id=trace_id, parent_id=parent_id, attrs=attrs)


#: The span fields a sink line carries, and :func:`load_spans` reads.
_SPAN_FIELDS = (
    "name", "trace_id", "span_id", "parent_id", "start", "duration",
    "status", "error", "attrs",
)


def record_span(doc: Dict[str, Any]) -> None:
    """Write *doc* to the telemetry sink as one ``span`` line.

    Junk a peer ships in a ``spans`` reply field (not a dict, no
    ``span_id``) is dropped, never raised on.
    """
    if not isinstance(doc, dict) or not doc.get("span_id"):
        return
    log.emit("span", {key: doc.get(key) for key in _SPAN_FIELDS})


# --------------------------------------------------------------------------
# The ambient span: campaign → backend hand-off without threading a span
# argument through every execute() signature.  Thread-local on purpose —
# dispatcher threads capture the context explicitly before they fork off.

_active = threading.local()


def current_span() -> Optional[Span]:
    stack = getattr(_active, "stack", None)
    return stack[-1] if stack else None


class activate:
    """``with activate(span):`` makes *span* the ambient current span."""

    def __init__(self, span: Span):
        self.span = span

    def __enter__(self) -> Span:
        stack = getattr(_active, "stack", None)
        if stack is None:
            stack = _active.stack = []
        stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        stack = getattr(_active, "stack", None)
        if stack and stack[-1] is self.span:
            stack.pop()


def current_context() -> Optional[Context]:
    span = current_span()
    return span.context() if span is not None else None


# --------------------------------------------------------------------------
# Reading traces back: JSONL → deduplicated span records → rendered tree.


def load_spans(path: str) -> List[Dict[str, Any]]:
    """All span records in a JSONL log file, deduplicated by span_id.

    Both ends of a protocol exchange record the same worker span, so a
    shared log file legitimately contains duplicates; the last record
    wins.  Non-JSON lines and non-span events are skipped.
    """
    by_id: Dict[str, Dict[str, Any]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(doc, dict) or doc.get("event") != "span":
                    continue
                span_id = doc.get("span_id")
                if isinstance(span_id, str) and span_id:
                    by_id[span_id] = doc
    except OSError as err:
        from ..errors import ConfigError

        raise ConfigError(f"cannot read trace log {path!r}: {err}")
    spans = list(by_id.values())
    spans.sort(key=lambda s: s.get("start") or 0.0)
    return spans


def resolve_trace_id(
    spans: Iterable[Dict[str, Any]], token: str
) -> Optional[str]:
    """Find the trace a *token* names: a trace-id (prefix) or any span
    attribute value — typically a job id or a campaign label."""
    token = str(token)
    attr_hit = None
    for span in spans:
        trace_id = span.get("trace_id") or ""
        if trace_id == token or trace_id.startswith(token):
            return trace_id
        attrs = span.get("attrs") or {}
        if attr_hit is None and any(
            str(value) == token for value in attrs.values()
        ):
            attr_hit = trace_id
    return attr_hit


def span_tree(
    spans: Iterable[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], Dict[str, List[Dict[str, Any]]]]:
    """(roots, children-by-parent-id), both sorted by start time."""
    spans = sorted(spans, key=lambda s: s.get("start") or 0.0)
    ids = {s.get("span_id") for s in spans}
    roots = []
    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent and parent in ids:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    return roots, children


def _describe(span: Dict[str, Any]) -> str:
    duration = span.get("duration")
    timing = f"{duration:9.3f}s" if isinstance(duration, (int, float)) else "        ?"
    attrs = span.get("attrs") or {}
    detail = " ".join(
        f"{key}={value}" for key, value in sorted(attrs.items())
    )
    line = f"{span.get('name', '?'):<24s} {timing}"
    if span.get("status") not in (None, "ok"):
        line += f"  [{span.get('status')}: {span.get('error', '')}]"
    if detail:
        line += f"  {detail}"
    return line.rstrip()


def render_trace(spans: List[Dict[str, Any]], trace_id: str) -> str:
    """A human-readable tree of one trace with per-stage durations."""
    mine = [s for s in spans if s.get("trace_id") == trace_id]
    if not mine:
        return f"trace {trace_id}: no spans recorded"
    roots, children = span_tree(mine)
    lines = [f"trace {trace_id} — {len(mine)} span(s)"]

    def walk(span: Dict[str, Any], prefix: str, tail: bool) -> None:
        branch = "`- " if tail else "|- "
        lines.append(prefix + branch + _describe(span))
        kids = children.get(span.get("span_id"), [])
        extension = "   " if tail else "|  "
        for i, kid in enumerate(kids):
            walk(kid, prefix + extension, i == len(kids) - 1)

    for i, root in enumerate(roots):
        walk(root, "", i == len(roots) - 1)
    return "\n".join(lines)


def check_span_trees(spans: Iterable[Dict[str, Any]]) -> List[str]:
    """Structural problems in recorded traces (CI's completeness gate).

    Every successful ``dispatch`` span must contain a ``batch-run``
    child, and every successful ``batch-run`` must contain the worker's
    own ``worker.batch`` span — otherwise a chunk ran without its
    telemetry surviving the round trip.  Returns human-readable problem
    strings; empty means every dispatched chunk has a complete tree.
    """
    spans = list(spans)
    _, children = span_tree(spans)
    problems = []
    for span in spans:
        if span.get("status") != "ok":
            continue
        kids = children.get(span.get("span_id"), [])
        names = [k.get("name") for k in kids]
        if span.get("name") == "dispatch" and "batch-run" not in names:
            problems.append(
                f"dispatch span {span.get('span_id')} "
                f"(trace {span.get('trace_id')}) has no batch-run child"
            )
        if span.get("name") == "batch-run" and "worker.batch" not in names:
            problems.append(
                f"batch-run span {span.get('span_id')} "
                f"(trace {span.get('trace_id')}) has no worker.batch child"
            )
    return problems
