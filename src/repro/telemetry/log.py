"""The JSON-lines telemetry sink.

Every record is one JSON object on one line: wall-clock *and* monotonic
timestamps, the event name, the process id and host, and the record's
own fields.  Each line is written and flushed under a lock as one
``write`` call, so the sink can be shared by every process in a fleet
(``O_APPEND`` writes of a single line interleave cleanly) and consumed
by anything that reads JSONL — :func:`repro.telemetry.tracing.load_spans`
and ``repro-sim trace show`` among them.

Off by default: until ``REPRO_LOG_FILE`` is set (a file) or the CLI's
``-v`` is given (stderr), :func:`emit` returns after one attribute
read and CLI output is unchanged.  The first record a process writes
is preceded by one ``telemetry.session`` record carrying the
provenance stamp from :mod:`repro.perf.provenance`, so a log file
always says which commit, host and interpreter produced it.  A file
that cannot be opened never takes the simulation down: the sink falls
back to stderr and says why once, as a ``telemetry.sink-error`` line.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from typing import Any, Dict, Optional, TextIO

#: The log file every process of a run appends to.
FILE_ENV = "REPRO_LOG_FILE"

_lock = threading.Lock()
_HOST = socket.gethostname()


class _Config:
    """Resolved sink: on or off, and where records go."""

    __slots__ = ("on", "path", "stream")

    def __init__(self, on: bool, path: Optional[str]):
        self.on = on
        self.path = path
        self.stream: Optional[TextIO] = None if path else sys.stderr


def _config_from_env(verbose: bool = False) -> _Config:
    path = os.environ.get(FILE_ENV) or None
    return _Config(bool(path) or verbose, path)


_config: Optional[_Config] = None
_session_logged = False


def _current() -> _Config:
    global _config
    config = _config
    if config is None:
        with _lock:
            if _config is None:
                _config = _config_from_env()
            config = _config
    return config


def configure(verbose: bool = False) -> None:
    """(Re-)resolve the sink from the environment.

    ``verbose`` (the CLI's ``-v``) turns the sink on; records go to
    ``REPRO_LOG_FILE`` when it is set and to stderr otherwise.  Tests
    call this, or :func:`reset`, after monkeypatching the environment.
    """
    global _config, _session_logged
    with _lock:
        _close_stream()
        _config = _config_from_env(verbose)
        _session_logged = False


def reset() -> None:
    """Forget all cached state (tests; paired with env monkeypatching)."""
    global _config, _session_logged
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


def sink_path() -> Optional[str]:
    """The configured log file, or ``None`` (stderr / off)."""
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


def _line(event: str, fields: Dict[str, Any]) -> str:
    record = {
        "ts": round(time.time(), 6),
        "mono": round(time.monotonic(), 6),
        "event": event,
        "pid": os.getpid(),
        "host": _HOST,
    }
    for key, value in fields.items():
        if value is not None:
            record[key] = value
    return json.dumps(record, default=str) + "\n"


def _stream(config: _Config) -> TextIO:
    """The open sink, opening the file on first use (lock held)."""
    if config.stream is None:
        try:
            # Line-buffered: each record's newline flushes it.
            config.stream = open(
                config.path, "a", encoding="utf-8", buffering=1
            )
        except OSError as err:
            config.path = None
            config.stream = sys.stderr
            config.stream.write(
                json.dumps({
                    "event": "telemetry.sink-error",
                    "error": str(err),
                }) + "\n"
            )
    return config.stream


def emit(event: str, fields: Dict[str, Any]) -> None:
    """Write one record as one complete line (no-op when off).

    ``None``-valued fields are left out of the record.
    """
    global _session_logged
    config = _current()
    if not config.on:
        return
    with _lock:
        stream = _stream(config)
        line = ""
        if not _session_logged:
            _session_logged = True
            session = {
                "component": "telemetry",
                "argv0": os.path.basename(sys.argv[0] or "python"),
            }
            session.update(_provenance_fields())
            line = _line("telemetry.session", session)
        line += _line(event, fields)
        try:
            stream.write(line)
        except (OSError, ValueError):  # pragma: no cover - closed sink
            pass
