"""Tests for the sys.* monitoring schema: live engine state through SQL.

The acceptance bar from the issue: sys.queries / sys.storage / sys.metrics /
sys.sessions must return live state through the normal SQL path (parser ->
binder -> MAL), sys.storage byte totals must reconcile with the actual
Column/StringHeap/index nbytes within +-1%, and the views must track DDL
churn with no stale rows, inside and outside open transactions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.database import Database
from repro.errors import CatalogError, DatabaseError


@pytest.fixture
def slow_db():
    """A database where every statement lands in the slow-query log."""
    database = Database(None, slow_query_us=0.0)
    yield database
    database.shutdown()


class TestSysQueries:
    def test_queries_appear_with_rows_and_timings(self, conn):
        conn.execute("CREATE TABLE q (v INTEGER)")
        conn.execute("INSERT INTO q VALUES (1), (2), (3)")
        conn.query("SELECT v FROM q WHERE v > 1")
        log = conn.query(
            "SELECT qid, sql, status, rows, total_us, execute_us "
            "FROM sys.queries ORDER BY qid"
        ).fetchall()
        # CREATE, INSERT, SELECT -- the sys.queries scan itself is logged
        # only after it finishes, so it is not in its own result.
        assert len(log) == 3
        qids = [row[0] for row in log]
        assert qids == sorted(qids)
        assert all(row[2] == "ok" for row in log)
        select_row = log[2]
        assert "WHERE v > 1" in select_row[1]
        assert select_row[3] == 2  # rows returned
        assert select_row[4] > 0  # total_us
        assert select_row[5] > 0  # execute_us
        assert select_row[5] <= select_row[4]

    def test_phase_breakdown_sums_below_total(self, tpch_conn):
        tpch_conn.query("SELECT COUNT(*) FROM lineitem")
        row = tpch_conn.query(
            "SELECT total_us, parse_us, bind_us, optimize_us, compile_us, "
            "execute_us FROM sys.queries ORDER BY qid DESC LIMIT 1"
        ).fetchall()[0]
        total, *phases = row
        assert all(p >= 0 for p in phases)
        assert sum(phases) <= total
        assert sum(phases) > 0

    def test_errors_are_logged(self, conn):
        with pytest.raises(Exception):
            conn.execute("SELECT nope FROM missing_table")
        status, error = conn.query(
            "SELECT status, error FROM sys.queries ORDER BY qid DESC LIMIT 1"
        ).fetchall()[0]
        assert status == "error"
        assert "missing_table" in error
        assert conn._database.stats()["query_errors"] == 1

    def test_ring_buffer_bounded(self):
        database = Database(None, query_log_size=4)
        try:
            connection = database.connect()
            connection.execute("CREATE TABLE r (v INTEGER)")
            for i in range(10):
                connection.execute(f"INSERT INTO r VALUES ({i})")
            entries = database.query_log.entries()
            assert len(entries) == 4
            # the oldest entries fell off; qids keep increasing
            assert entries[0].qid == 8
            rows = connection.query("SELECT qid FROM sys.queries").fetchall()
            assert len(rows) == 4
            connection.close()
        finally:
            database.shutdown()

    def test_slow_query_log(self, slow_db):
        connection = slow_db.connect()
        connection.execute("CREATE TABLE s (v INTEGER)")
        connection.execute("INSERT INTO s VALUES (1)")
        slow = connection.query(
            "SELECT sql, total_us FROM sys.slow_queries ORDER BY qid"
        ).fetchall()
        assert len(slow) == 2  # threshold 0: everything is slow
        assert slow_db.stats()["slow_queries"] >= 2
        connection.close()

    def test_slow_log_empty_when_disabled(self, conn):
        conn.execute("CREATE TABLE f (v INTEGER)")
        assert conn.query("SELECT * FROM sys.slow_queries").nrows == 0
        assert conn._database.stats()["slow_queries"] == 0

    def test_consistent_within_one_statement(self, conn):
        conn.execute("CREATE TABLE c (v INTEGER)")
        # self-join of the virtual table: both sides must see the same
        # per-statement materialization (no ragged columns, stable count)
        rows = conn.query(
            "SELECT a.qid FROM sys.queries a, sys.queries b "
            "WHERE a.qid = b.qid"
        ).fetchall()
        assert len(rows) == 1  # only the CREATE is logged so far


class TestSysStorage:
    def test_reconciles_with_actual_nbytes(self, conn):
        conn.execute("CREATE TABLE big (k INTEGER, name STRING, x DOUBLE)")
        rng = np.random.default_rng(7)
        n = 5000
        conn.append("big", {
            "k": np.arange(n, dtype=np.int32),
            "name": np.array(
                [f"value-{i % 997:06d}" for i in range(n)], dtype=object
            ),
            "x": rng.random(n),
        })
        conn.execute("CREATE INDEX big_k ON big (k)")
        conn.execute("CREATE ORDER INDEX big_x ON big (x)")

        rows = conn.query(
            "SELECT column_name, row_count, data_bytes, heap_bytes, "
            "index_bytes, total_bytes FROM sys.storage "
            "WHERE table_name = 'big'"
        ).fetchall()
        assert len(rows) == 3
        by_name = {row[0]: row for row in rows}

        table = conn._database.catalog.get("big")
        version = table.current
        manager = conn._database.index_manager
        for colpos, coldef in enumerate(table.schema.columns):
            column = version.columns[colpos]
            name, row_count, data_b, heap_b, index_b, total_b = by_name[
                coldef.name.lower()
            ]
            assert row_count == n
            expected_data = int(column.data.nbytes)
            expected_heap = (
                int(column.heap.nbytes) if column.heap is not None else 0
            )
            expected_index = int(manager.bytes_for("big", colpos))
            expected_total = expected_data + expected_heap + expected_index
            assert data_b == expected_data
            assert heap_b == expected_heap
            assert index_b == expected_index
            # the issue's bar: within +-1% (exact here, by construction)
            assert abs(total_b - expected_total) <= 0.01 * expected_total
        # the indexed columns actually have index bytes to account for
        assert by_name["k"][4] > 0
        assert by_name["x"][4] > 0
        assert by_name["name"][3] > 0  # string heap priced

    def test_heap_bytes_match_cost_model(self, conn):
        from repro.storage.memcost import string_value_bytes

        conn.execute("CREATE TABLE h (s STRING)")
        values = ["a", "bb", None, "a", "ccc"]
        placeholders = ", ".join(
            "(NULL)" if v is None else f"('{v}')" for v in values
        )
        conn.execute(f"INSERT INTO h VALUES {placeholders}")
        heap_b = conn.query(
            "SELECT heap_bytes FROM sys.storage WHERE table_name = 'h'"
        ).scalar()
        # duplicate elimination: 'a' priced once
        expected = sum(string_value_bytes(v) for v in {"a", "bb", "ccc"})
        assert heap_b == expected


class TestDDLChurn:
    def test_no_stale_rows_after_drop(self, conn):
        conn.execute("CREATE TABLE t1 (a INTEGER)")
        conn.execute("CREATE TABLE t2 (b INTEGER)")
        names = {
            row[0]
            for row in conn.query(
                "SELECT table_name FROM sys.tables WHERE NOT is_virtual"
            ).fetchall()
        }
        assert names == {"t1", "t2"}
        conn.execute("DROP TABLE t1")
        names = {
            row[0]
            for row in conn.query(
                "SELECT DISTINCT table_name FROM sys.storage"
            ).fetchall()
        }
        assert names == {"t2"}

    def test_index_bytes_disappear_with_index(self, conn):
        conn.execute("CREATE TABLE ix (v DOUBLE)")
        conn.append("ix", {"v": np.arange(1000, dtype=np.float64)})
        conn.execute("CREATE ORDER INDEX ix_v ON ix (v)")
        with_index = conn.query(
            "SELECT index_bytes FROM sys.storage WHERE table_name = 'ix'"
        ).scalar()
        assert with_index > 0
        conn.execute("DROP INDEX ix_v")
        without = conn.query(
            "SELECT index_bytes FROM sys.storage WHERE table_name = 'ix'"
        ).scalar()
        assert without == 0

    def test_churn_inside_open_transaction(self, conn):
        conn.execute("CREATE TABLE base (v INTEGER)")
        conn.begin()
        conn.execute("CREATE TABLE pending (v INTEGER)")
        # sys.* prices committed state: the uncommitted table is not there
        names = {
            row[0]
            for row in conn.query(
                "SELECT table_name FROM sys.tables WHERE NOT is_virtual"
            ).fetchall()
        }
        assert names == {"base"}
        conn.commit()
        names = {
            row[0]
            for row in conn.query(
                "SELECT table_name FROM sys.tables WHERE NOT is_virtual"
            ).fetchall()
        }
        assert names == {"base", "pending"}

    def test_freshness_across_statements_in_txn(self, conn):
        conn.execute("CREATE TABLE live (v INTEGER)")
        conn.begin()
        before = conn.query(
            "SELECT COUNT(*) FROM sys.queries"
        ).scalar()
        after = conn.query(
            "SELECT COUNT(*) FROM sys.queries"
        ).scalar()
        # unlike table snapshots, sys.* re-materializes per statement:
        # the second scan sees the first one's log entry
        assert after == before + 1
        conn.rollback()

    def test_real_table_shadows_virtual(self, conn):
        conn.execute("CREATE TABLE queries (v INTEGER)")
        conn.execute("INSERT INTO queries VALUES (42)")
        assert conn.query("SELECT v FROM queries").scalar() == 42
        assert conn.query("SELECT v FROM sys.queries").scalar() == 42
        conn.execute("DROP TABLE queries")
        # the virtual table is visible again (and has a qid column)
        assert conn.query("SELECT COUNT(qid) FROM sys.queries").scalar() > 0


class TestReadOnly:
    def test_writes_rejected(self, conn):
        with pytest.raises((CatalogError, DatabaseError)):
            conn.execute("INSERT INTO sys.queries VALUES (1)")
        with pytest.raises((CatalogError, DatabaseError)):
            conn.execute("DELETE FROM sys.metrics")

    def test_create_index_rejected(self, conn):
        with pytest.raises(CatalogError):
            conn.execute("CREATE INDEX bad ON sys.storage (row_count)")

    def test_append_rejected(self, conn):
        with pytest.raises(CatalogError):
            conn.append("sys.metrics", {
                "metric": np.array(["x"], dtype=object),
                "kind": np.array(["counter"], dtype=object),
                "label": np.array([None], dtype=object),
                "value": np.array([1.0]),
            })


class TestSysSessionsAndMetrics:
    def test_sessions_track_connections(self, db, conn):
        conn.execute("CREATE TABLE s (v INTEGER)")
        other = db.connect()
        rows = conn.query(
            "SELECT session, client, queries FROM sys.sessions ORDER BY session"
        ).fetchall()
        assert len(rows) == 2
        assert all(client == "embedded" for _, client, _ in rows)
        me = rows[0]
        assert me[0] == conn.session_id
        assert me[2] >= 1  # this connection has executed statements
        other.close()
        assert conn.query("SELECT COUNT(*) FROM sys.sessions").scalar() == 1

    def test_sessions_show_open_transaction(self, conn):
        conn.begin()
        in_txn = conn.query(
            "SELECT in_txn FROM sys.sessions WHERE session = "
            f"{conn.session_id}"
        ).scalar()
        assert in_txn is True
        conn.rollback()

    def test_metrics_view_matches_registry(self, db, conn):
        conn.execute("CREATE TABLE m (v INTEGER)")
        conn.execute("INSERT INTO m VALUES (1), (2)")
        value = conn.query(
            "SELECT value FROM sys.metrics "
            "WHERE metric = 'rows_appended' AND kind = 'counter'"
        ).scalar()
        assert value == 2.0
        histo_rows = conn.query(
            "SELECT label, value FROM sys.metrics "
            "WHERE metric = 'query_seconds' AND kind = 'histogram'"
        ).fetchall()
        labels = {label for label, _ in histo_rows}
        assert labels == {"count", "sum", "p50", "p95", "p99"}
        counts = dict(histo_rows)
        # the scan materialized before its own completion was observed:
        # it sees CREATE + INSERT + the first SELECT
        assert counts["count"] == 3.0
        assert db.metrics.histogram("query_seconds")["count"] == 4


class TestServerMetrics:
    def test_metrics_wire_command(self):
        from repro.server.client import RemoteConnection
        from repro.server import AsyncServer

        with AsyncServer(engine="columnar", protocol="monetdb") as server:
            with RemoteConnection("127.0.0.1", server.port, "monetdb") as rc:
                rc.execute("CREATE TABLE wire (v INTEGER)")
                rc.execute("INSERT INTO wire VALUES (1), (2)")
                text = rc.metrics()
                assert "# TYPE repro_statements_total counter" in text
                assert "repro_rows_appended_total 2" in text
                # the TCP session is visible in sys.sessions
                rows = rc.query(
                    "SELECT client FROM sys.sessions"
                ).fetchall()
                assert ("tcp",) in rows
