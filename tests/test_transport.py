"""Tests for repro.dist.transport: addresses, sockets, failure modes."""

import json
import socket
import sys
import threading
import time

import pytest

from repro.dist.transport import (
    LineChannel,
    PeerClosed,
    PeerTimeout,
    SocketTransport,
    StdioTransport,
    format_address,
    listen_socket,
    parse_address,
    serve_socket_connection,
)
from repro.errors import ConfigError, DistError


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("example.org:7731") == ("example.org", 7731)

    def test_empty_host_uses_default(self):
        assert parse_address(":7731") == ("127.0.0.1", 7731)
        assert parse_address(":7731", default_host="0.0.0.0") == (
            "0.0.0.0", 7731,
        )

    def test_port_zero_allowed(self):
        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize(
        "bad", ["no-colon", "host:port", "host:", "host:65536", "host:-1",
                7731, None]
    )
    def test_bad_addresses_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            parse_address(bad)

    def test_error_names_the_source(self):
        with pytest.raises(ConfigError, match="remote worker address"):
            parse_address("nope", source="remote worker address")

    def test_format_is_inverse(self):
        assert format_address(parse_address("a:1")) == "a:1"


def _scripted_server(script):
    """A listening socket whose accept-thread runs *script(conn)* once.

    Returns the ``host:port`` address string.  The server closes the
    connection when the script returns, which is how the tests model a
    worker dying at a precise point in the byte stream.
    """
    sock = listen_socket("127.0.0.1:0")
    address = format_address(sock.getsockname()[:2])

    def run():
        conn, _ = sock.accept()
        try:
            script(conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass
            sock.close()

    threading.Thread(target=run, daemon=True).start()
    return address


def _recv_request(conn):
    """Read one newline-terminated request from *conn* (tests only)."""
    buffer = b""
    while b"\n" not in buffer:
        data = conn.recv(65536)
        if not data:
            return None
        buffer += data
    return json.loads(buffer.split(b"\n", 1)[0])


class TestSocketTransport:
    def test_connect_refused_raises_peer_closed(self):
        sock = listen_socket("127.0.0.1:0")
        address = format_address(sock.getsockname()[:2])
        sock.close()
        with pytest.raises(PeerClosed, match="cannot connect"):
            SocketTransport(address)

    def test_clean_request_reply(self):
        def script(conn):
            request = _recv_request(conn)
            conn.sendall(
                json.dumps({"id": request["id"], "ok": True}).encode()
                + b"\n"
            )

        channel = LineChannel(SocketTransport(_scripted_server(script)))
        assert channel.request("ping", timeout=5) == {"id": 1, "ok": True}
        channel.close()

    def test_partial_line_is_never_delivered_as_data(self):
        """A reply cut mid-JSON is a dead worker, not a protocol reply."""

        def script(conn):
            _recv_request(conn)
            conn.sendall(b'{"id": 1, "ok": true, "resu')  # no newline

        transport = SocketTransport(_scripted_server(script))
        channel = LineChannel(transport)
        with pytest.raises(PeerClosed, match="mid-line"):
            channel.request("ping", timeout=10)
        assert not transport.alive()
        assert "partial reply" in transport.death_message()
        channel.close()

    def test_half_open_peer_times_out(self):
        """A silent peer (no data, no FIN) surfaces as PeerTimeout."""

        def script(conn):
            _recv_request(conn)
            time.sleep(5)  # never replies; test times out long before

        channel = LineChannel(SocketTransport(_scripted_server(script)))
        with pytest.raises(PeerTimeout, match="half-open"):
            channel.request("ping", timeout=0.3)
        channel.close()

    def test_eof_before_reply_raises_peer_closed(self):
        def script(conn):
            _recv_request(conn)  # read the request, reply with nothing

        channel = LineChannel(SocketTransport(_scripted_server(script)))
        with pytest.raises(PeerClosed):
            channel.request("ping", timeout=10)
        channel.close()

    def test_describe_reports_transport_and_address(self):
        def script(conn):
            _recv_request(conn)

        address = _scripted_server(script)
        transport = SocketTransport(address)
        assert transport.describe() == {
            "transport": "socket", "address": address,
        }
        transport.close()


class TestLineChannel:
    def test_reply_id_mismatch_raises_peer_closed(self):
        def script(conn):
            _recv_request(conn)
            conn.sendall(b'{"id": 999, "ok": true}\n')

        channel = LineChannel(SocketTransport(_scripted_server(script)))
        with pytest.raises(PeerClosed, match="does not match"):
            channel.request("ping", timeout=10)
        channel.close()

    def test_non_json_reply_raises_peer_closed(self):
        def script(conn):
            _recv_request(conn)
            conn.sendall(b"Segmentation fault\n")

        channel = LineChannel(SocketTransport(_scripted_server(script)))
        with pytest.raises(PeerClosed, match="non-protocol"):
            channel.request("ping", timeout=10)
        channel.close()

    def test_ids_increase_monotonically(self):
        def script(conn):
            for _ in range(3):
                request = _recv_request(conn)
                conn.sendall(
                    json.dumps({"id": request["id"]}).encode() + b"\n"
                )

        channel = LineChannel(SocketTransport(_scripted_server(script)))
        ids = [channel.request("ping", timeout=5)["id"] for _ in range(3)]
        assert ids == [1, 2, 3]
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
        assert transport.describe()["transport"] == "stdio"
        assert transport.describe()["address"].startswith("pid:")
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


class TestListenSocket:
    def test_port_zero_binds_ephemeral(self):
        sock = listen_socket("127.0.0.1:0")
        assert sock.getsockname()[1] > 0
        sock.close()

    def test_unbindable_address_raises_dist_error(self):
        sock = listen_socket("127.0.0.1:0")
        address = format_address(sock.getsockname()[:2])
        try:
            with pytest.raises(DistError, match="cannot listen"):
                listen_socket(address)
        finally:
            sock.close()


class TestServeSocketConnection:
    def _pair(self):
        server = listen_socket("127.0.0.1:0")
        client = socket.create_connection(
            server.getsockname()[:2], timeout=5
        )
        conn, _ = server.accept()
        server.close()
        return client, conn

    def test_disconnect_returns_true_shutdown_returns_false(self):
        def handler(line):
            request = json.loads(line)
            keep = request.get("op") != "shutdown"
            return {"id": request.get("id"), "ok": True}, keep

        client, conn = self._pair()
        client.close()  # immediate disconnect
        assert serve_socket_connection(conn, handler) is True

        client, conn = self._pair()
        client.sendall(b'{"id": 1, "op": "shutdown"}\n')
        assert serve_socket_connection(conn, handler) is False
        client.close()
