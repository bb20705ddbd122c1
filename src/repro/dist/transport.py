"""Byte-stream transports for the JSON-lines worker protocol.

The protocol-v2 worker (:mod:`repro.dist.worker`) only ever needs a
connected byte stream that carries one JSON document per line in each
direction.  This module abstracts *which* byte stream behind a
:class:`Transport` interface so the same dispatcher machinery drives

* :class:`StdioTransport` — a local ``repro-sim dist worker --stdio``
  subprocess via its stdin/stdout pipes (the classic warm-pool worker),
  with stderr captured into a bounded tail for crash forensics;
* :class:`SocketTransport` — a TCP connection to a remote
  ``repro-sim dist worker --listen HOST:PORT`` process.

Failure modes are normalised so the dispatcher's retry machinery never
cares about the transport kind:

* the peer closing the stream (process exit, TCP FIN/RST) surfaces as
  ``recv_line() -> None`` and, from :class:`LineChannel`, a
  :class:`PeerClosed` — the worker died, retry elsewhere;
* a **partial line** at EOF (the peer died mid-reply, or the connection
  was cut between segments) is *never* delivered as data; the fragment
  is noted in :meth:`Transport.death_message` instead, so a half-written
  JSON document cannot be mistaken for a protocol reply;
* a **half-open** connection (the peer vanished without FIN — host
  power-off, dropped NAT entry) produces no EOF at all; it manifests as
  a reply timeout (:class:`PeerTimeout`), which the dispatcher already
  treats as "kill and retry".

:class:`LineChannel` adds the request/reply discipline: monotonically
increasing ``id`` fields, one reply per request, reply-id matching,
JSON decode guarding.  On the serving side,
:func:`serve_socket_connection` drives one accepted connection through
a line handler.
"""

from __future__ import annotations

import collections
import json
import queue
import socket
import subprocess
import threading
from typing import Dict, Optional, Sequence, Tuple

from ..errors import ConfigError, DistError


class TransportError(DistError):
    """A transport-level failure (connect, send, malformed stream)."""


class PeerClosed(TransportError):
    """The peer closed the stream (process exit, EOF, broken pipe)."""


class PeerTimeout(TransportError):
    """No reply arrived within the allowed time (possibly half-open)."""


def parse_address(
    text: str, source: str = "address", default_host: str = "127.0.0.1"
) -> Tuple[str, int]:
    """``(host, port)`` from a ``HOST:PORT`` string, validated.

    The host part may be empty (``:7731``), in which case *default_host*
    is used — ``127.0.0.1`` for connecting, ``0.0.0.0`` passed by listen
    paths that should accept from anywhere.  Port 0 is allowed (bind to
    an ephemeral port); anything non-numeric or out of range raises
    :class:`~repro.errors.ConfigError` naming *source*.
    """
    if not isinstance(text, str) or ":" not in text:
        raise ConfigError(
            f"{source} must look like HOST:PORT, got {text!r}"
        )
    host, _, port_text = text.rpartition(":")
    host = host or default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigError(
            f"{source} port must be an integer, got {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ConfigError(
            f"{source} port must be in [0, 65535], got {port}"
        )
    return host, port


def format_address(address: Tuple[str, int]) -> str:
    """Inverse of :func:`parse_address`."""
    return f"{address[0]}:{address[1]}"


class Transport:
    """A connected, line-oriented byte stream to one protocol peer."""

    #: Registry-style tag (``stdio``/``socket``) for status displays.
    kind: str = "?"
    #: Human-readable peer address (pid for subprocesses, host:port
    #: for sockets) — the `dist pool status` address column.
    address: str = "?"

    def send_line(self, line: str) -> None:
        """Write one protocol line (no trailing newline) to the peer.

        Raises :class:`PeerClosed` when the stream is gone.
        """
        raise NotImplementedError

    def recv_line(self, timeout: Optional[float] = None) -> Optional[str]:
        """The next complete line from the peer, or ``None`` on EOF.

        Raises :class:`PeerTimeout` when nothing arrives in *timeout*
        seconds.  A partial line at EOF is never returned as data — it
        is recorded for :meth:`death_message` instead.
        """
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def stderr_tail(self) -> str:
        """Captured stderr tail, where the transport has one (stdio)."""
        return ""

    def death_message(self) -> str:
        """Post-mortem description for dispatcher error messages."""
        return f"{self.kind} peer {self.address} closed the stream"

    def describe(self) -> Dict[str, object]:
        """Status-display fields (the transport/address columns)."""
        return {"transport": self.kind, "address": self.address}


#: How many trailing stderr lines a stdio transport keeps.
_STDERR_TAIL_LINES = 30


class StdioTransport(Transport):
    """A worker subprocess driven over its stdin/stdout pipes.

    stdout is the protocol channel; stderr is captured into a bounded
    tail buffer so a crashing worker's traceback can be attached to the
    dispatcher-side failure message instead of interleaving with the
    dispatcher's own console.
    """

    kind = "stdio"

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
        self.address = f"pid:{self.proc.pid}"
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stderr: "collections.deque[str]" = collections.deque(
            maxlen=_STDERR_TAIL_LINES
        )
        threading.Thread(target=self._pump, daemon=True).start()
        self._stderr_reader = threading.Thread(
            target=self._pump_stderr, daemon=True
        )
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
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as err:
            raise PeerClosed(f"{err} ({self.death_message()})") from None

    def recv_line(self, timeout: Optional[float] = None) -> Optional[str]:
        try:
            return self._lines.get(timeout=timeout)
        except queue.Empty:
            raise PeerTimeout(f"no reply within {timeout:g}s") from None

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stderr_tail(self) -> str:
        return "\n".join(self._stderr)

    def death_message(self) -> str:
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
        """Terminate the subprocess (best-effort graceful, then kill)."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.close()
                try:
                    self.proc.wait(timeout=2)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        except OSError:
            self.proc.kill()


class SocketTransport(Transport):
    """A TCP connection to a listening protocol peer.

    A reader thread assembles complete lines from the byte stream; a
    fragment left in the buffer when the connection closes (the peer
    died mid-reply) is flagged rather than delivered, so the dispatcher
    sees a dead worker, never a truncated JSON document.
    """

    kind = "socket"

    def __init__(
        self,
        address,
        connect_timeout: float = 5.0,
    ):
        if isinstance(address, str):
            host, port = parse_address(address)
        else:
            host, port = address
        self.address = format_address((host, port))
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as err:
            raise PeerClosed(
                f"cannot connect to worker at {self.address}: {err}"
            ) from None
        self._sock.settimeout(None)
        self._closed = False
        self._partial: Optional[bytes] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        buffer = b""
        try:
            while True:
                try:
                    data = self._sock.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                buffer += data
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    self._lines.put(line.decode("utf-8", "replace"))
        finally:
            if buffer:
                # Partial-line detection: the peer vanished mid-reply.
                self._partial = buffer
            self._lines.put(None)  # EOF sentinel

    def send_line(self, line: str) -> None:
        try:
            self._sock.sendall(line.encode("utf-8") + b"\n")
        except OSError as err:
            raise PeerClosed(f"{err} ({self.death_message()})") from None

    def recv_line(self, timeout: Optional[float] = None) -> Optional[str]:
        try:
            return self._lines.get(timeout=timeout)
        except queue.Empty:
            raise PeerTimeout(
                f"no reply from {self.address} within {timeout:g}s "
                f"(peer may be half-open)"
            ) from None

    def alive(self) -> bool:
        return not self._closed and self._partial is None

    def death_message(self) -> str:
        message = f"connection to {self.address} closed"
        if self._partial is not None:
            fragment = self._partial[:80].decode("utf-8", "replace")
            message += (
                f" mid-line (partial reply {fragment!r} discarded)"
            )
        return message

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class LineChannel:
    """Request/reply discipline over a :class:`Transport`.

    Serialises one JSON request per line with a monotonically increasing
    ``id``, waits for the matching reply, and maps every stream-level
    failure onto :class:`PeerClosed` / :class:`PeerTimeout`, so the
    worker pool's retry machinery has one error model whatever the
    transport.
    """

    def __init__(self, transport: Transport):
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

    def stderr_tail(self) -> str:
        return self.transport.stderr_tail()

    def describe(self) -> Dict[str, object]:
        return self.transport.describe()


def serve_socket_connection(conn: socket.socket, handle_line) -> bool:
    """Drive one accepted connection through a line handler.

    *handle_line* maps one request line to ``(reply_dict,
    keep_serving)``.  Returns ``False`` when the handler asked the whole
    server to stop (a ``shutdown`` op), ``True`` when the client merely
    disconnected and the server should accept the next connection.
    Transport errors (client vanished mid-write) end the connection
    without ending the server.
    """
    buffer = b""
    try:
        while True:
            try:
                data = conn.recv(65536)
            except OSError:
                return True
            if not data:
                return True
            buffer += data
            while b"\n" in buffer:
                raw, buffer = buffer.split(b"\n", 1)
                line = raw.decode("utf-8", "replace")
                if not line.strip():
                    continue
                reply, keep_serving = handle_line(line)
                try:
                    conn.sendall(
                        json.dumps(reply, separators=(",", ":")).encode(
                            "utf-8"
                        )
                        + b"\n"
                    )
                except OSError:
                    return True
                if not keep_serving:
                    return False
    finally:
        try:
            conn.close()
        except OSError:
            pass


def listen_socket(address) -> socket.socket:
    """A bound, listening TCP socket for *address* (``host:port``).

    Port 0 binds an ephemeral port; read the actual one back via
    ``sock.getsockname()[1]``.  ``SO_REUSEADDR`` is set so a restarted
    worker can rebind its old address immediately.
    """
    if isinstance(address, str):
        host, port = parse_address(address, default_host="0.0.0.0")
    else:
        host, port = address
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind((host, port))
    except OSError as err:
        sock.close()
        raise DistError(
            f"cannot listen on {format_address((host, port))}: {err}"
        ) from None
    sock.listen(8)
    return sock
