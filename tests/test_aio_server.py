"""Async server front end: concurrency, admission control, graceful
drain, and the binary columnar result path end to end."""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.errors import DatabaseError, ProtocolError
from repro.server import AsyncServer, RemoteConnection
from repro.server.binary import concat_columns, decode_block
from repro.server.protocol import read_message, write_message

_HEADER = struct.Struct("<cI")


@pytest.fixture(scope="module")
def aio(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("aio"))
    with AsyncServer(
        engine="columnar", protocol="pg", directory=directory, workers=4
    ) as server:
        yield server


def _connect(server, **kwargs):
    return RemoteConnection("127.0.0.1", server.port, "pg", **kwargs)


class TestAsyncBasics:
    def test_ddl_dml_select(self, aio):
        with _connect(aio) as client:
            client.execute("CREATE TABLE base (a INTEGER, b VARCHAR(10))")
            client.execute("INSERT INTO base VALUES (1, 'x'), (2, NULL)")
            rows = client.query("SELECT a, b FROM base ORDER BY a").fetchall()
            assert rows == [(1, "x"), (2, None)]

    def test_errors_travel_the_wire(self, aio):
        with _connect(aio) as client:
            with pytest.raises(DatabaseError):
                client.query("SELECT * FROM no_such_table")
            # the session survives the failed statement
            assert client.query("SELECT 1").fetchall() == [(1,)]

    def test_prepared_statements(self, aio):
        with _connect(aio) as client:
            client.execute("CREATE TABLE prep (v INTEGER)")
            client.execute("INSERT INTO prep VALUES (1), (2), (3)")
            nparams = client.prepare("p", "SELECT v FROM prep WHERE v >= ?")
            assert nparams == 1
            assert client.execute_prepared("p", (2,)).fetchall() == [
                (2,),
                (3,),
            ]
            client.deallocate("p")
            with pytest.raises(DatabaseError):
                client.execute_prepared("p", (1,))

    def test_copy_round_trip(self, aio):
        with _connect(aio) as client:
            client.execute("CREATE TABLE cp (a INTEGER, b VARCHAR(10))")
            loaded = client.copy_from(
                "COPY INTO cp FROM STDIN", "1,x\n2,y\n"
            )
            assert loaded == 2
            text, nrows = client.copy_to("COPY cp TO STDOUT")
            assert nrows == 2
            assert text == "1,x\n2,y\n"

    def test_trace_spans_include_queue_wait(self, aio):
        with _connect(aio) as client:
            client.execute("CREATE TABLE tr (v INTEGER)")
            client.execute("INSERT INTO tr VALUES (1)")
            _, spans = client.trace_query("SELECT v FROM tr")
            names = {span["name"] for span in spans}
            assert "server.query" in names
            assert "queue.wait" in names
            assert "serialize" in names

    def test_metrics_exposition(self, aio):
        with _connect(aio) as client:
            client.query("SELECT 1")
            text = client.metrics()
            assert "server_sessions" in text
            assert "server_queue_wait_us" in text


class TestConcurrency:
    def test_many_sessions_concurrent_statements(self, aio):
        with _connect(aio) as setup:
            setup.execute("CREATE TABLE conc (v INTEGER)")
            setup.execute(
                "INSERT INTO conc VALUES "
                + ", ".join(f"({i})" for i in range(100))
            )
        errors = []
        results = []

        def worker(seed):
            try:
                with _connect(aio) as client:
                    for i in range(5):
                        got = client.query(
                            f"SELECT count(*), sum(v) + {seed + i} FROM conc"
                        ).fetchall()
                        results.append((seed + i, got))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n * 100,)) for n in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(results) == 60
        for extra, got in results:
            assert got == [(100, 4950 + extra)]

    def test_pipelined_statements_answered_in_order(self, aio):
        """Raw-socket pipelining: N queries sent back-to-back come back
        in request order even though they execute on a thread pool."""
        sock = socket.create_connection(("127.0.0.1", aio.port), 5.0)
        sock.settimeout(10.0)
        rfile = sock.makefile("rb")
        assert read_message(rfile)[0] == b"Z"
        wfile = sock.makefile("wb")
        for i in range(8):
            write_message(wfile, b"Q", f"SELECT {i} * 10".encode())
        wfile.flush()
        answers = []
        for _ in range(8):
            while True:
                mtype, payload = read_message(rfile)
                if mtype == b"R":
                    answers.append(payload.decode().strip())
                if mtype == b"Z":
                    break
        assert answers == [str(i * 10) for i in range(8)]
        sock.close()


class TestAdmissionControl:
    def test_session_cap_sheds_cleanly(self, tmp_path):
        with AsyncServer(
            engine="columnar",
            protocol="pg",
            directory=str(tmp_path / "s"),
            max_sessions=2,
        ) as server:
            a = _connect(server)
            b = _connect(server)
            with pytest.raises(DatabaseError, match="capacity"):
                _connect(server)
            a.close()
            # a freed slot is reusable
            c = _connect(server)
            assert c.query("SELECT 1").fetchall() == [(1,)]
            b.close()
            c.close()

    def test_session_quota_sheds_statement(self, tmp_path):
        with AsyncServer(
            engine="columnar",
            protocol="pg",
            directory=str(tmp_path / "s"),
            session_quota=0,
        ) as server:
            with _connect(server) as client:
                with pytest.raises(DatabaseError, match="quota"):
                    client.query("SELECT 1")

    def test_queue_depth_sheds_statement(self, tmp_path):
        with AsyncServer(
            engine="columnar",
            protocol="pg",
            directory=str(tmp_path / "s"),
            max_queue_depth=0,
        ) as server:
            with _connect(server) as client:
                with pytest.raises(DatabaseError, match="overloaded"):
                    client.query("SELECT 1")

    def test_shed_statements_are_counted(self, tmp_path):
        with AsyncServer(
            engine="columnar",
            protocol="pg",
            directory=str(tmp_path / "s"),
            session_quota=0,
        ) as server:
            with _connect(server) as client:
                with pytest.raises(DatabaseError):
                    client.query("SELECT 1")
            stats = server.database._stats.snapshot()
            assert stats.get("server_shed_statements", 0) >= 1

    def test_graceful_drain_flushes_inflight_response(self, tmp_path):
        server = AsyncServer(
            engine="columnar", protocol="pg", directory=str(tmp_path / "s")
        ).start()
        port = server.port
        client = _connect(server)
        client.execute("CREATE TABLE d (v INTEGER)")
        client.execute("INSERT INTO d VALUES (1), (2)")
        done = threading.Event()
        got = {}

        def reader():
            got["rows"] = client.query("SELECT sum(v) FROM d").fetchall()
            done.set()

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)  # let the statement reach the server first
        server.stop()  # drain must let the in-flight response out
        assert done.wait(timeout=10)
        assert got["rows"] == [(3,)]
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), 0.2)


class TestBinaryResults:
    TYPED_DDL = (
        "CREATE TABLE typed (i INTEGER, h BIGINT, f DOUBLE, "
        "s VARCHAR(20), d DATE, m DECIMAL(9,2), b BOOLEAN)"
    )
    TYPED_ROWS = (
        "INSERT INTO typed VALUES "
        "(1, 10000000000, 0.5, 'alpha', DATE '2020-01-02', 12.34, TRUE), "
        "(2, -7, -1.25, 'tab\\there', DATE '1969-12-31', -0.01, FALSE), "
        "(NULL, NULL, NULL, NULL, NULL, NULL, NULL)"
    )

    @pytest.fixture()
    def typed_server(self, tmp_path):
        with AsyncServer(
            engine="columnar", protocol="pg", directory=str(tmp_path / "s")
        ) as server:
            with _connect(server) as setup:
                setup.execute(self.TYPED_DDL)
                setup.execute(self.TYPED_ROWS)
            yield server

    def test_binary_matches_text_rows(self, typed_server):
        sql = "SELECT * FROM typed ORDER BY i"
        with _connect(typed_server) as text_client:
            expected = text_client.query(sql).fetchall()
        with _connect(typed_server, binary=True) as bin_client:
            assert bin_client.binary is True
            got = bin_client.query(sql).fetchall()
        assert got == expected

    def test_binary_to_columns_native_dtypes(self, typed_server):
        with _connect(typed_server, binary=True) as client:
            cols = client.query(
                "SELECT i, f, s, d FROM typed WHERE i IS NOT NULL ORDER BY i"
            ).to_columns()
            assert cols["i"].dtype == np.int64
            assert cols["i"].tolist() == [1, 2]
            assert cols["f"].dtype == np.float64
            assert cols["s"].tolist() == ["alpha", "tab\\there"]
            assert cols["d"].dtype == np.dtype("datetime64[D]")
            # NULLs promote ints to float64 + NaN, dates to NaT
            nullable = client.query(
                "SELECT i, d FROM typed ORDER BY i"
            ).to_columns()
            assert nullable["i"].dtype == np.float64
            assert np.isnan(nullable["i"]).sum() == 1
            assert np.isnat(nullable["d"]).sum() == 1

    def test_empty_result_still_describes_schema(self, typed_server):
        with _connect(typed_server, binary=True) as client:
            result = client.query("SELECT i, s FROM typed WHERE i > 99")
            assert result.names == ["i", "s"]
            assert result.fetchall() == []
            assert result.to_columns()["i"].tolist() == []

    def test_multi_block_results_concatenate(self, tmp_path, monkeypatch):
        """Results larger than one batch arrive as several B frames."""
        monkeypatch.setattr("repro.server.session.BINARY_BATCH_ROWS", 7)
        with AsyncServer(
            engine="columnar", protocol="pg", directory=str(tmp_path / "s")
        ) as server:
            with _connect(server) as setup:
                setup.execute("CREATE TABLE big (v INTEGER, s VARCHAR(10))")
                setup.execute(
                    "INSERT INTO big VALUES "
                    + ", ".join(f"({i}, 'v{i}')" for i in range(20))
                )
            with _connect(server, binary=True) as client:
                result = client.query("SELECT v, s FROM big ORDER BY v")
                assert result.fetchall() == [
                    (i, f"v{i}") for i in range(20)
                ]
                cols = result.to_columns()
                assert cols["v"].tolist() == list(range(20))
                assert cols["s"].tolist() == [f"v{i}" for i in range(20)]

    def test_decode_rejects_truncated_blocks(self):
        with pytest.raises(ProtocolError, match="truncated header"):
            decode_block(b"\x01\x00")
        # header claiming one column, but no column bytes follow
        header = struct.pack("<BBIH", 1, 0, 4, 1)
        with pytest.raises(ProtocolError, match="truncated"):
            decode_block(header)

    def test_decode_rejects_unknown_version(self):
        with pytest.raises(ProtocolError, match="version"):
            decode_block(struct.pack("<BBIH", 99, 0, 0, 0))

    def test_concat_single_block_is_zero_copy(self):
        blocks = [decode_block(struct.pack("<BBIH", 1, 0, 0, 0))]
        assert concat_columns(blocks) is blocks[0]
