"""Tests for repro.dist.transport: the stdio stream and its failure modes."""

import os
import sys

import pytest

from repro.dist.transport import (
    LineChannel,
    PeerClosed,
    PeerTimeout,
    StdioTransport,
    TransportError,
)
from repro.errors import DistError


def _scripted_peer(body):
    """A :class:`LineChannel` to a subprocess running *body*.

    *body* is Python source with ``sys`` and ``json`` imported; it reads
    requests from ``sys.stdin`` and writes replies to ``sys.stdout``,
    which is how the tests model a worker misbehaving at a precise
    point in the stream.
    """
    return LineChannel(StdioTransport([
        sys.executable, "-u", "-c", "import json, sys\n" + body,
    ]))


class TestLineChannel:
    def test_reply_id_mismatch_raises_peer_closed(self):
        channel = _scripted_peer(
            "sys.stdin.readline()\n"
            "print('{\"id\": 999, \"ok\": true}')\n"
            "sys.stdin.read()\n"
        )
        with pytest.raises(PeerClosed, match="does not match"):
            channel.request("ping", timeout=10)
        channel.close()

    def test_non_json_reply_raises_peer_closed(self):
        channel = _scripted_peer(
            "sys.stdin.readline()\n"
            "print('Segmentation fault')\n"
            "sys.stdin.read()\n"
        )
        with pytest.raises(PeerClosed, match="non-protocol"):
            channel.request("ping", timeout=10)
        channel.close()

    def test_ids_increase_monotonically(self):
        channel = _scripted_peer(
            "for line in sys.stdin:\n"
            "    print(json.dumps({'id': json.loads(line)['id']}))\n"
        )
        ids = [channel.request("ping", timeout=10)["id"] for _ in range(3)]
        assert ids == [1, 2, 3]
        channel.close()

    def test_eof_before_reply_raises_peer_closed(self):
        # Read the request, reply with nothing, exit cleanly.
        channel = _scripted_peer("sys.stdin.readline()\n")
        with pytest.raises(PeerClosed, match="code 0"):
            channel.request("ping", timeout=10)
        channel.close()


class TestStdioTransport:
    def test_echo_subprocess(self):
        transport = StdioTransport([
            sys.executable, "-u", "-c",
            "import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.write(line)\n"
            "    sys.stdout.flush()\n",
        ])
        channel = LineChannel(transport)
        assert channel.request("ping", timeout=10)["op"] == "ping"
        channel.close()
        assert not transport.alive()

    def test_crash_surfaces_exit_code_and_stderr_tail(self):
        transport = StdioTransport([
            sys.executable, "-c",
            "import sys; print('boom traceback', file=sys.stderr); "
            "sys.exit(3)",
        ])
        channel = LineChannel(transport)
        with pytest.raises(PeerClosed) as err:
            channel.request("ping", timeout=10)
        assert "code 3" in str(err.value)
        assert "boom traceback" in str(err.value)
        channel.close()

    def test_request_fields_reach_the_peer(self):
        channel = _scripted_peer(
            "for line in sys.stdin:\n"
            "    print(line.strip())\n"
        )
        reply = channel.request("batch-run", timeout=10, spec={"n": 3})
        assert reply == {"id": 1, "op": "batch-run", "spec": {"n": 3}}
        channel.close()

    def test_silent_peer_times_out(self):
        """A worker that reads the request and never answers surfaces
        as a reply timeout, not a hang."""
        channel = _scripted_peer("sys.stdin.readline()\nsys.stdin.read()\n")
        with pytest.raises(PeerTimeout, match="no reply within 0.5s"):
            channel.request("ping", timeout=0.5)
        assert channel.alive()
        channel.close()

    def test_partial_line_is_never_accepted_as_a_reply(self):
        # The worker dies halfway through writing its reply.
        channel = _scripted_peer(
            "sys.stdin.readline()\n"
            "sys.stdout.write('{\"id\": 1, \"ok\"')\n"
            "sys.stdout.flush()\n"
        )
        with pytest.raises(PeerClosed, match="non-protocol"):
            channel.request("ping", timeout=10)
        channel.close()

    def test_request_after_peer_exit_raises_peer_closed(self):
        transport = StdioTransport([sys.executable, "-c", "pass"])
        transport.proc.wait(timeout=30)
        channel = LineChannel(transport)
        with pytest.raises(PeerClosed, match="code 0"):
            channel.request("ping", timeout=10)
        assert not channel.alive()
        channel.close()


class TestErrorModel:
    @pytest.mark.parametrize("error", [PeerClosed, PeerTimeout])
    def test_peer_errors_are_transport_and_dist_errors(self, error):
        assert issubclass(error, TransportError)
        assert issubclass(error, DistError)

    def test_transport_error_is_a_dist_error(self):
        assert issubclass(TransportError, DistError)


class TestStdioTransportLifecycle:
    def test_alive_until_stdin_closes(self):
        transport = StdioTransport([
            sys.executable, "-c", "import sys; sys.stdin.read()",
        ])
        assert transport.alive()
        transport.close()
        assert not transport.alive()
        assert transport.proc.returncode == 0

    def test_close_kills_a_worker_that_ignores_eof(self):
        transport = StdioTransport([
            sys.executable, "-c", "import time; time.sleep(60)",
        ])
        transport.close()
        assert transport.proc.returncode is not None
        assert transport.proc.returncode != 0

    def test_close_closes_both_pipes(self):
        transport = StdioTransport([sys.executable, "-c", "pass"])
        transport.close()
        assert transport.proc.stdin.closed
        assert transport.proc.stdout.closed
        assert transport.proc.stderr.closed

    def test_close_twice_is_harmless(self):
        transport = StdioTransport([sys.executable, "-c", "pass"])
        transport.close()
        transport.close()
        assert not transport.alive()

    def test_recv_line_returns_none_at_eof(self):
        transport = StdioTransport([sys.executable, "-c", "print('hello')"])
        assert transport.recv_line(timeout=10) == "hello\n"
        assert transport.recv_line(timeout=10) is None
        transport.close()

    def test_recv_line_times_out(self):
        transport = StdioTransport([
            sys.executable, "-c", "import sys; sys.stdin.read()",
        ])
        with pytest.raises(PeerTimeout):
            transport.recv_line(timeout=0.2)
        transport.close()

    def test_env_reaches_the_subprocess(self):
        env = dict(os.environ, REPRO_TRANSPORT_PROBE="probe-value")
        transport = StdioTransport([
            sys.executable, "-c",
            "import os; print(os.environ['REPRO_TRANSPORT_PROBE'])",
        ], env=env)
        assert transport.recv_line(timeout=10) == "probe-value\n"
        transport.close()

    def test_stderr_tail_keeps_only_the_last_lines(self):
        transport = StdioTransport([
            sys.executable, "-c",
            "import sys\n"
            "for i in range(100):\n"
            "    print(f'line {i}', file=sys.stderr)\n",
        ])
        message = transport.death_message()
        tail = transport.stderr_tail().splitlines()
        assert tail == [f"line {i}" for i in range(70, 100)]
        assert message.startswith("worker exited with code 0")
        assert "line 99" in message and "line 69" not in message
        transport.close()

    def test_death_message_without_stderr_has_no_tail(self):
        transport = StdioTransport([sys.executable, "-c", "pass"])
        assert transport.death_message() == "worker exited with code 0"
        transport.close()
