"""The worker subprocess stream for the JSON-lines worker protocol.

The protocol-v2 worker (:mod:`repro.dist.worker`) only ever needs a
connected byte stream that carries one JSON document per line in each
direction.  :class:`StdioTransport` is that stream: a local
``repro-sim dist worker --stdio`` subprocess driven over its
stdin/stdout pipes, with stderr captured into a bounded tail for crash
forensics.

Failure modes are normalised so the dispatcher's retry machinery sees
one error model:

* the worker closing the stream (process exit, broken pipe) surfaces as
  ``recv_line() -> None`` and, from :class:`LineChannel`, a
  :class:`PeerClosed` — the worker died, retry elsewhere;
* a worker that never answers surfaces as a reply timeout
  (:class:`PeerTimeout`), which the dispatcher treats as "kill and
  retry".

:class:`LineChannel` adds the request/reply discipline: monotonically
increasing ``id`` fields, one reply per request, reply-id matching,
JSON decode guarding.
"""

from __future__ import annotations

import collections
import json
import queue
import subprocess
import threading
from typing import Dict, Optional, Sequence

from ..errors import DistError


class TransportError(DistError):
    """A transport-level failure (send, malformed stream)."""


class PeerClosed(TransportError):
    """The peer closed the stream (process exit, EOF, broken pipe)."""


class PeerTimeout(TransportError):
    """No reply arrived within the allowed time."""


#: How many trailing stderr lines a stdio transport keeps.
_STDERR_TAIL_LINES = 30


class StdioTransport:
    """A worker subprocess driven over its stdin/stdout pipes.

    stdout is the protocol channel; stderr is captured into a bounded
    tail buffer so a crashing worker's traceback can be attached to the
    dispatcher-side failure message instead of interleaving with the
    dispatcher's own console.
    """

    def __init__(
        self,
        command: Sequence[str],
        env: Optional[Dict[str, str]] = None,
    ):
        self.proc = subprocess.Popen(
            list(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stderr: "collections.deque[str]" = collections.deque(
            maxlen=_STDERR_TAIL_LINES
        )
        self._stdout_reader = threading.Thread(target=self._pump, daemon=True)
        self._stderr_reader = threading.Thread(
            target=self._pump_stderr, daemon=True
        )
        self._stdout_reader.start()
        self._stderr_reader.start()

    def _pump(self) -> None:
        try:
            for line in self.proc.stdout:
                self._lines.put(line)
        finally:
            self._lines.put(None)  # EOF sentinel

    def _pump_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line.rstrip("\n"))

    def send_line(self, line: str) -> None:
        """Write one protocol line (no trailing newline) to the worker.

        Raises :class:`PeerClosed` when the stream is gone.
        """
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as err:
            raise PeerClosed(f"{err} ({self.death_message()})") from None

    def recv_line(self, timeout: Optional[float] = None) -> Optional[str]:
        """The next line from the worker, or ``None`` on EOF.

        Raises :class:`PeerTimeout` when nothing arrives in *timeout*
        seconds.
        """
        try:
            return self._lines.get(timeout=timeout)
        except queue.Empty:
            raise PeerTimeout(f"no reply within {timeout:g}s") from None

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stderr_tail(self) -> str:
        return "\n".join(self._stderr)

    def death_message(self) -> str:
        """Post-mortem description for dispatcher error messages."""
        # The process is exiting: give it a moment to flush stderr so
        # the traceback makes it into the message.
        try:
            self.proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            pass
        self._stderr_reader.join(timeout=1)
        message = f"worker exited with code {self.proc.poll()}"
        tail = self.stderr_tail()
        if tail:
            message += f"; stderr tail:\n{tail}"
        return message

    def close(self) -> None:
        """Stop the subprocess (EOF on stdin, then kill) and close its
        pipes."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass  # the worker died with unread input in the pipe
        try:
            self.proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        readers = (self._stdout_reader, self._stderr_reader)
        for reader in readers:
            reader.join(timeout=2)
        # A pipe a reader thread is still blocked on cannot be closed
        # under it; that one is left to the garbage collector.
        if not any(reader.is_alive() for reader in readers):
            self.proc.stdout.close()
            self.proc.stderr.close()


class LineChannel:
    """Request/reply discipline over a :class:`StdioTransport`.

    Serialises one JSON request per line with a monotonically increasing
    ``id``, waits for the matching reply, and maps every stream-level
    failure onto :class:`PeerClosed` / :class:`PeerTimeout`, so the
    worker pool's retry machinery has one error model.
    """

    def __init__(self, transport: StdioTransport):
        self.transport = transport
        self._next_id = 0

    def request(
        self, op: str, timeout: Optional[float] = None, **fields
    ) -> dict:
        """Send one request and wait for its reply."""
        self._next_id += 1
        request_id = self._next_id
        message = {"id": request_id, "op": op, **fields}
        self.transport.send_line(
            json.dumps(message, separators=(",", ":"))
        )
        line = self.transport.recv_line(timeout=timeout)
        if line is None:
            raise PeerClosed(self.transport.death_message())
        try:
            reply = json.loads(line)
        except ValueError:
            raise PeerClosed(
                f"non-protocol output {line!r}"
            ) from None
        if reply.get("id") != request_id:
            raise PeerClosed(
                f"reply id {reply.get('id')!r} does not match "
                f"request id {request_id}"
            )
        return reply

    def alive(self) -> bool:
        return self.transport.alive()

    def close(self) -> None:
        self.transport.close()
