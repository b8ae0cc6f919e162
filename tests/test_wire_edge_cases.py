"""Wire-protocol edge cases: torn frames, oversized frames, timeouts,
disconnects, and the binary/text capability negotiation fallback."""

import io
import socket
import struct
import threading
import time

import pytest

from repro.errors import DatabaseError, ProtocolError
from repro.server import AsyncServer, RemoteConnection
from repro.server.protocol import (
    MAX_PAYLOAD,
    read_message,
    write_message,
)

_HEADER = struct.Struct("<cI")


class _DribbleStream:
    """A stream that returns at most ``chunk`` bytes per read call."""

    def __init__(self, payload: bytes, chunk: int = 1):
        self._buf = io.BytesIO(payload)
        self._chunk = chunk

    def read(self, n: int) -> bytes:
        return self._buf.read(min(n, self._chunk))


class TestFraming:
    def test_partial_reads_reassemble(self):
        buf = io.BytesIO()
        write_message(buf, b"Q", b"SELECT 1")
        mtype, payload = read_message(_DribbleStream(buf.getvalue()))
        assert (mtype, payload) == (b"Q", b"SELECT 1")

    def test_clean_eof_returns_none(self):
        assert read_message(io.BytesIO(b"")) == (None, b"")

    def test_torn_header_raises(self):
        with pytest.raises(ProtocolError, match="torn frame"):
            read_message(io.BytesIO(b"Q\x08"))

    def test_torn_payload_raises(self):
        buf = io.BytesIO()
        write_message(buf, b"Q", b"SELECT 1")
        with pytest.raises(ProtocolError, match="torn frame"):
            read_message(io.BytesIO(buf.getvalue()[:-3]))

    def test_oversized_frame_rejected_before_allocation(self):
        header = _HEADER.pack(b"Q", MAX_PAYLOAD + 1)
        with pytest.raises(ProtocolError, match="oversized"):
            read_message(io.BytesIO(header))

    def test_configurable_cap(self):
        buf = io.BytesIO()
        write_message(buf, b"Q", b"x" * 100)
        with pytest.raises(ProtocolError, match="oversized"):
            read_message(io.BytesIO(buf.getvalue()), max_payload=10)
        buf.seek(0)
        assert read_message(buf, max_payload=100)[1] == b"x" * 100


@pytest.fixture(scope="module", params=["asyncio"])
def edge_server(request, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp(f"edge-{request.param}"))
    with AsyncServer(
        engine="columnar", protocol="pg", directory=directory
    ) as server:
        yield server


class TestServerHardening:
    def test_oversized_frame_gets_error_then_close(self, edge_server):
        """An attacker-sized header draws a clean E frame, not a hang."""
        sock = socket.create_connection(("127.0.0.1", edge_server.port), 5.0)
        sock.settimeout(5.0)
        rfile = sock.makefile("rb")
        mtype, _ = read_message(rfile)
        assert mtype == b"Z"
        sock.sendall(_HEADER.pack(b"Q", MAX_PAYLOAD + 7))
        mtype, payload = read_message(rfile)
        assert mtype == b"E" and b"oversized" in payload
        assert rfile.read(1) == b""  # server hung up after the error
        sock.close()

    def test_frame_split_across_sends(self, edge_server):
        """Frames fragmented at arbitrary byte boundaries still parse."""
        sock = socket.create_connection(("127.0.0.1", edge_server.port), 5.0)
        sock.settimeout(5.0)
        rfile = sock.makefile("rb")
        assert read_message(rfile)[0] == b"Z"
        buf = io.BytesIO()
        write_message(buf, b"Q", b"SELECT 1 + 1")
        wire = buf.getvalue()
        for i in range(len(wire)):
            sock.sendall(wire[i : i + 1])
            time.sleep(0.001)
        frames = []
        while True:
            mtype, payload = read_message(rfile)
            frames.append(mtype)
            if mtype == b"Z":
                break
        assert b"D" in frames and b"R" in frames
        sock.close()

    def test_mid_query_disconnect_does_not_wedge_server(self, edge_server):
        """A client vanishing right after sending a query is cleaned up."""
        sock = socket.create_connection(("127.0.0.1", edge_server.port), 5.0)
        rfile = sock.makefile("rb")
        assert read_message(rfile)[0] == b"Z"
        sock.sendall(_HEADER.pack(b"Q", 8) + b"SELECT 1")
        sock.close()  # do not read the response
        # server must still serve new clients afterwards
        with RemoteConnection("127.0.0.1", edge_server.port, "pg") as client:
            assert client.query("SELECT 1").fetchall() == [(1,)]

    def test_torn_frame_mid_payload_disconnects_cleanly(self, edge_server):
        sock = socket.create_connection(("127.0.0.1", edge_server.port), 5.0)
        sock.settimeout(5.0)
        rfile = sock.makefile("rb")
        assert read_message(rfile)[0] == b"Z"
        sock.sendall(_HEADER.pack(b"Q", 100) + b"SELECT")  # 94 bytes short
        sock.shutdown(socket.SHUT_WR)
        mtype, payload = read_message(rfile)
        assert mtype == b"E" and b"torn frame" in payload
        sock.close()


class TestClientTimeouts:
    def test_read_timeout_instead_of_hang(self):
        """A server that accepts but never answers trips the read timeout."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        accepted = []
        thread = threading.Thread(
            target=lambda: accepted.append(listener.accept()), daemon=True
        )
        thread.start()
        started = time.perf_counter()
        with pytest.raises((ProtocolError, OSError)):
            RemoteConnection("127.0.0.1", port, "pg", timeout=0.3)
        assert time.perf_counter() - started < 5.0
        listener.close()

    def test_per_call_timeout_override(self, tmp_path):
        with AsyncServer(
            engine="columnar", protocol="pg", directory=str(tmp_path / "s")
        ) as server:
            client = RemoteConnection(
                "127.0.0.1", server.port, "pg", timeout=0.05
            )
            # the override must loosen the 50 ms connection default enough
            # for a real query to finish
            assert client.query(
                "SELECT 40 + 2", timeout=30.0
            ).fetchall() == [(42,)]
            client.close()

    def test_stalled_mid_frame_server_times_out(self):
        """Half a frame then silence: the client errors out cleanly."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def half_ready():
            conn, _ = listener.accept()
            conn.sendall(b"Z")  # header is 5 bytes; never send the rest
            time.sleep(2.0)
            conn.close()

        thread = threading.Thread(target=half_ready, daemon=True)
        thread.start()
        with pytest.raises((ProtocolError, OSError)):
            RemoteConnection("127.0.0.1", port, "pg", timeout=0.3)
        listener.close()


class TestNegotiationFallback:
    def test_binary_client_against_text_only_server(self, tmp_path):
        """allow_binary=False mimics a server predating the N frame."""
        with AsyncServer(
            engine="columnar",
            protocol="pg",
            directory=str(tmp_path / "s"),
            allow_binary=False,
        ) as server:
            client = RemoteConnection(
                "127.0.0.1", server.port, "pg", binary=True
            )
            assert client.binary is False
            client.execute("CREATE TABLE f (v INTEGER)")
            client.execute("INSERT INTO f VALUES (7)")
            assert client.query("SELECT v FROM f").fetchall() == [(7,)]
            client.close()

    def test_text_client_against_binary_server(self, tmp_path):
        """Clients that never negotiate keep getting text R frames."""
        with AsyncServer(
            engine="columnar", protocol="pg", directory=str(tmp_path / "s")
        ) as server:
            client = RemoteConnection("127.0.0.1", server.port, "pg")
            assert client.binary is False
            client.execute("CREATE TABLE g (v INTEGER)")
            client.execute("INSERT INTO g VALUES (9)")
            assert client.query("SELECT v FROM g").fetchall() == [(9,)]
            client.close()

    def test_unknown_capabilities_ignored(self, tmp_path):
        with AsyncServer(
            engine="columnar", protocol="pg", directory=str(tmp_path / "s")
        ) as server:
            client = RemoteConnection("127.0.0.1", server.port, "pg")
            client._negotiate({"binary": "1", "compress": "zstd"})
            assert client.binary is True
            assert "compress" not in client.capabilities
            client.close()

    def test_error_then_close_on_shed_connection(self, tmp_path):
        """Over-limit connections receive the admission-control error."""
        with AsyncServer(
            engine="columnar",
            protocol="pg",
            directory=str(tmp_path / "s"),
            max_sessions=1,
        ) as server:
            first = RemoteConnection("127.0.0.1", server.port, "pg")
            with pytest.raises(DatabaseError, match="capacity"):
                RemoteConnection("127.0.0.1", server.port, "pg")
            # the admitted session is unaffected
            assert first.query("SELECT 1").fetchall() == [(1,)]
            first.close()
