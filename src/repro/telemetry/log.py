"""Structured JSON-lines event logging.

Every event is one JSON object on one line: wall-clock *and* monotonic
timestamps, a severity level, the emitting component, the process id
and host, and arbitrary event fields.  One line per event means the
sink can be shared by every process in a fleet (``O_APPEND`` writes of
a single line interleave cleanly) and consumed by anything that reads
JSONL — including :mod:`repro.telemetry.tracing`, whose span records
travel through the same sink.

Silent by default: until ``REPRO_LOG_LEVEL`` or ``REPRO_LOG_FILE`` is
set (or :func:`configure` is called, e.g. by the CLI's ``-v``), every
logging call is a single integer comparison and CLI output is
unchanged.  The first event a process emits is preceded by one
``telemetry.session`` event carrying the full provenance stamp from
:mod:`repro.perf.provenance`, so a log file always says which commit,
host, and interpreter produced it.

The sink is asynchronous on purpose: :func:`write_event` only builds
the record dict and appends it to an in-process buffer (a few µs), and
a daemon writer thread serialises and writes batches while the caller
is doing something else — on the warm dispatch path that "something
else" is waiting for worker replies, so telemetry costs almost no
wall-clock (the ``worker-warm-telemetry`` benchmark datapoint guards
this).  Ordering survives because one writer drains one FIFO buffer.
Durability is tiered: ``warning``/``error`` events flush synchronously
before the caller continues, everything else lands at the next batch,
on :func:`flush`, or at interpreter exit.  Readers in the same process
call :func:`flush` before opening the file.
"""

from __future__ import annotations

import atexit
import json
import os
import socket
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, Optional, TextIO

from ..errors import ConfigError

#: Severity levels, lowest first.  ``off`` disables the sink entirely.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40, "off": 100}
_LEVEL_NAMES = {value: name for name, value in LEVELS.items()}

#: Environment knobs (the ``repro.dist`` ``*_from_env`` idiom: invalid
#: values raise :class:`ConfigError` naming the variable).
LEVEL_ENV = "REPRO_LOG_LEVEL"
FILE_ENV = "REPRO_LOG_FILE"

_lock = threading.RLock()
_cv = threading.Condition(_lock)
_HOST = socket.gethostname()

#: Events at or above this level flush synchronously — a warning must
#: be on disk before the code that hit it runs on.
FLUSH_LEVELS = 30

#: Backstop: a caller outrunning the writer this far blocks on a flush
#: instead of growing the buffer without bound.
_MAX_BUFFER = 10000

#: How often the writer thread polls the buffer.  Events are *not*
#: signalled individually — a per-event wakeup would turn the writer
#: back into a synchronous sink with context-switch overhead on top.
#: Only :func:`flush` and warning+ events notify the writer early.
_POLL_INTERVAL = 0.05

#: The writer exits after this long with nothing to do; the next event
#: starts a fresh thread.
_IDLE_EXIT = 1.0


def coerce_level(value, source: str = "log level") -> int:
    """Validate a level name; raise :class:`ConfigError` naming *source*."""
    if isinstance(value, int):
        if value in _LEVEL_NAMES:
            return value
        raise ConfigError(
            f"{source} must be one of {sorted(LEVELS)}, got {value!r}"
        )
    if isinstance(value, str) and value.strip().lower() in LEVELS:
        return LEVELS[value.strip().lower()]
    raise ConfigError(
        f"{source} must be one of {sorted(LEVELS)}, got {value!r}"
    )


class _Config:
    """Resolved sink configuration (level + destination)."""

    __slots__ = ("level", "path", "stream")

    def __init__(self, level: int, path: Optional[str], stream: Optional[TextIO]):
        self.level = level
        self.path = path
        self.stream = stream


def _config_from_env() -> _Config:
    path = os.environ.get(FILE_ENV) or None
    raw_level = os.environ.get(LEVEL_ENV)
    if raw_level is not None and raw_level != "":
        level = coerce_level(
            raw_level, source=f"environment variable {LEVEL_ENV}"
        )
    elif path:
        level = LEVELS["info"]
    else:
        level = LEVELS["off"]
    return _Config(level, path, None if path else sys.stderr)


_config: Optional[_Config] = None
_session_logged = False

#: The async sink: records enqueued by :func:`write_event`, drained by
#: one lazily started daemon writer thread.  ``_enqueued``/``_written``
#: are monotonic sequence counters so :func:`flush` can wait for
#: exactly the events that existed when it was called.
_buffer: deque = deque()
_writer: Optional[threading.Thread] = None
_enqueued = 0
_written = 0


def _current() -> _Config:
    global _config
    if _config is None:
        with _lock:
            if _config is None:
                _config = _config_from_env()
    return _config


def configure(
    level: Optional[object] = None,
    file: Optional[str] = None,
    verbose: int = 0,
) -> None:
    """(Re-)resolve the sink from the environment plus explicit overrides.

    ``verbose`` maps the CLI's ``-v`` / ``-vv`` onto info / debug without
    touching an explicit ``REPRO_LOG_LEVEL``.  Passing nothing simply
    re-reads the environment — tests use that after monkeypatching.
    """
    global _config, _session_logged
    flush()
    with _lock:
        _close_stream()
        config = _config_from_env()
        if file is not None:
            config.path = file or None
            config.stream = None if config.path else sys.stderr
            if config.level == LEVELS["off"] and config.path:
                config.level = LEVELS["info"]
        if verbose and LEVEL_ENV not in os.environ:
            config.level = min(
                config.level,
                LEVELS["debug"] if verbose > 1 else LEVELS["info"],
            )
        if level is not None:
            config.level = coerce_level(level)
        _config = config
        _session_logged = False


def reset() -> None:
    """Forget all cached state (tests; paired with env monkeypatching)."""
    global _config, _session_logged
    flush()
    with _lock:
        _close_stream()
        _config = None
        _session_logged = False


def _close_stream() -> None:
    config = _config
    if config is not None and config.path and config.stream is not None:
        try:
            config.stream.close()
        except OSError:
            pass
        config.stream = None


def enabled(level: str = "info") -> bool:
    """Would an event at *level* reach the sink right now?"""
    return LEVELS[level] >= _current().level


def sink_path() -> Optional[str]:
    """The configured log file, or ``None`` (stderr / disabled)."""
    return _current().path


def _provenance_fields() -> Dict[str, Any]:
    try:
        from ..perf.provenance import collect

        stamp = collect()
        return {
            "commit": stamp.commit,
            "dirty": stamp.dirty,
            "branch": stamp.branch,
            "platform": stamp.platform,
            "python": stamp.python,
        }
    except Exception:  # pragma: no cover - provenance is best-effort
        return {}


def write_event(
    component: str, level: int, event: str, fields: Dict[str, Any]
) -> None:
    """Queue one event for the sink (no-op below the threshold).

    The fast path is a dict build and a buffer append; serialisation
    and I/O happen on the writer thread.  Events at ``warning`` or
    above block until they are on the sink.
    """
    global _enqueued
    config = _current()
    if level < config.level:
        return
    record = {
        "ts": round(time.time(), 6),
        "mono": round(time.monotonic(), 6),
        "level": _LEVEL_NAMES.get(level, str(level)),
        "component": component,
        "event": event,
        "pid": os.getpid(),
        "host": _HOST,
    }
    for key, value in fields.items():
        if value is not None:
            record[key] = value
    with _cv:
        _buffer.append(record)
        _enqueued += 1
        target = _enqueued
        _ensure_writer()
        if level >= FLUSH_LEVELS or len(_buffer) >= _MAX_BUFFER:
            _cv.notify_all()
            _wait_written(target)


def _ensure_writer() -> None:
    """Start the daemon writer thread if it is not running (lock held)."""
    global _writer
    if _writer is None or not _writer.is_alive():
        _writer = threading.Thread(
            target=_writer_loop, name="repro-telemetry-writer", daemon=True
        )
        _writer.start()


def _wait_written(target: int, timeout: float = 10.0) -> None:
    """Block until the writer has emitted sequence *target* (lock held)."""
    deadline = time.monotonic() + timeout
    while _written < target:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or _writer is None or not _writer.is_alive():
            return  # never deadlock the simulation on its own telemetry
        _cv.wait(min(remaining, 0.5))


def flush(timeout: float = 10.0) -> None:
    """Block until every event enqueued so far is on the sink.

    Same-process readers (tests, ``trace show`` on a live file) call
    this before opening the file; it is also registered at interpreter
    exit, so short-lived CLI processes never lose tail events.
    """
    with _cv:
        if _enqueued == _written:
            return
        _ensure_writer()
        _cv.notify_all()
        _wait_written(_enqueued, timeout)


def _writer_loop() -> None:
    global _written, _writer
    idle = 0.0
    while True:
        with _cv:
            if not _buffer:
                _cv.wait(_POLL_INTERVAL)
            if not _buffer:
                idle += _POLL_INTERVAL
                if idle >= _IDLE_EXIT:
                    # Idle long enough: deregister (under the lock, so
                    # no enqueue can observe a live-but-exiting writer)
                    # and exit; the next event starts a fresh thread.
                    if _writer is threading.current_thread():
                        _writer = None
                    return
                continue
            idle = 0.0
            batch = list(_buffer)
            _buffer.clear()
        _emit_batch(batch)
        with _cv:
            _written += len(batch)
            _cv.notify_all()


def _emit_batch(batch) -> None:
    """Serialise and write *batch* (writer thread only)."""
    global _session_logged
    with _lock:
        config = _current()
        stream = config.stream
        if stream is None:
            if not config.path:
                return
            try:
                stream = open(config.path, "a", encoding="utf-8")
            except OSError as err:
                # A bad path must never take the simulation down; fall
                # back to stderr and say why once.
                config.path = None
                config.stream = stream = sys.stderr
                stream.write(
                    json.dumps({
                        "event": "telemetry.sink-error",
                        "error": str(err),
                    }) + "\n"
                )
            else:
                config.stream = stream
        lines = []
        if not _session_logged:
            _session_logged = True
            session = {
                "ts": round(time.time(), 6),
                "mono": round(time.monotonic(), 6),
                "level": "info",
                "component": "telemetry",
                "event": "telemetry.session",
                "pid": os.getpid(),
                "host": _HOST,
                "argv0": os.path.basename(sys.argv[0] or "python"),
            }
            session.update(_provenance_fields())
            lines.append(json.dumps(session, default=str))
        for record in batch:
            lines.append(json.dumps(record, default=str))
        try:
            # One write call per batch: complete lines only, so fleet
            # processes appending to a shared file never interleave
            # mid-line.
            stream.write("\n".join(lines) + "\n")
            stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed sink
            pass


def _reinit_after_fork() -> None:  # pragma: no cover - exercised via CI
    """A forked child must not re-write the parent's queued events."""
    global _writer, _enqueued, _written
    _buffer.clear()
    _writer = None
    _enqueued = _written = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_after_fork)
atexit.register(flush)


class EventLogger:
    """A component-scoped structured logger (see :func:`get_logger`)."""

    __slots__ = ("component",)

    def __init__(self, component: str):
        self.component = component

    def log(self, level: str, event: str, **fields) -> None:
        write_event(self.component, LEVELS[level], event, fields)

    def debug(self, event: str, **fields) -> None:
        write_event(self.component, 10, event, fields)

    def info(self, event: str, **fields) -> None:
        write_event(self.component, 20, event, fields)

    def warning(self, event: str, **fields) -> None:
        write_event(self.component, 30, event, fields)

    def error(self, event: str, **fields) -> None:
        write_event(self.component, 40, event, fields)


_loggers: Dict[str, EventLogger] = {}


def get_logger(component: str) -> EventLogger:
    """The process-wide logger for *component* (e.g. ``"dist.worker"``)."""
    logger = _loggers.get(component)
    if logger is None:
        with _lock:
            logger = _loggers.setdefault(component, EventLogger(component))
    return logger
