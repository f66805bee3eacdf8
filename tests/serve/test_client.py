"""ServeClient framing robustness and connect hygiene."""

import json
import os
import socket
import threading

import pytest

from repro.serve.client import ServeClient, parse_address
from repro.serve.protocol import MAX_FRAME_BYTES, ProtocolError


def _serve_frames(payloads):
    """One-shot TCP server thread feeding raw bytes to a single client.

    Returns ``(address, thread)``.  The thread closes its connection and
    listener once the client hangs up; a test closes its client and
    joins the thread before it returns, so those closes cannot land in
    a later test's fd snapshot.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    _, port = listener.getsockname()

    def run():
        with listener:
            conn, _ = listener.accept()
            with conn:
                try:
                    for payload in payloads:
                        conn.sendall(payload)
                    # Hold the socket open until the client hangs up so
                    # reads block on framing, not on EOF.
                    conn.settimeout(5.0)
                    while conn.recv(4096):
                        pass
                except OSError:
                    pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return f"127.0.0.1:{port}", thread


def _finish(client, thread):
    """Close the client and wait for the server thread to release its fds."""
    client.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def _hello():
    return json.dumps({"type": "hello", "proto": "repro-serve-v1"}) \
        .encode() + b"\n"


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


class TestReadFrame:
    def test_normal_frames_round_trip(self):
        address, thread = _serve_frames(
            [_hello(), b'{"type": "pong", "id": 1}\n'])
        client = ServeClient(address, timeout=5.0)
        assert client.hello["type"] == "hello"
        assert client.ping() is True
        _finish(client, thread)

    def test_oversized_frame_raises_protocol_error(self):
        # An overlong line would previously come back truncated, and the
        # next read resumed mid-frame — JSONDecodeError, stream desynced.
        big = b'{"type": "x", "pad": "' + b"a" * MAX_FRAME_BYTES + b'"}\n'
        address, thread = _serve_frames([_hello(), big])
        client = ServeClient(address, timeout=5.0)
        with pytest.raises(ProtocolError, match="exceeds"):
            client._read_frame()
        # The connection was failed, not left half-read.
        assert client._sock.fileno() == -1
        _finish(client, thread)

    def test_frame_at_limit_without_newline_is_rejected(self):
        address, thread = _serve_frames(
            [_hello(), b"x" * (MAX_FRAME_BYTES + 2)])
        client = ServeClient(address, timeout=5.0)
        with pytest.raises(ProtocolError):
            client._read_frame()
        _finish(client, thread)


class TestConnect:
    def test_failed_unix_connect_leaks_no_fds(self, tmp_path):
        missing = str(tmp_path / "absent.sock")
        before = _open_fds()
        with pytest.raises(ConnectionError):
            ServeClient(missing, timeout=1.0, connect_retries=3,
                        retry_delay=0.0)
        assert _open_fds() == before

    def test_parse_address_unix_vs_tcp(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("relative.sock") == ("unix", "relative.sock")
        assert parse_address("127.0.0.1:88") == ("tcp", ("127.0.0.1", 88))
        with pytest.raises(ValueError):
            parse_address("no-port-here")
