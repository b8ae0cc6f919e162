"""Tests for repro.cache: prepared statements, plan/result caching.

Covers the parser-level placeholder syntax, the SQL PREPARE / EXECUTE /
DEALLOCATE surface, the Python ``Connection.prepare`` API, version-based
invalidation of both cache tiers, the observability integration
(``sys.prepared``, the ``cache`` column of ``sys.queries``, the metrics
counters), wire-protocol P/E/D, and the concurrent-invalidation and
transactional-cleanliness guarantees.
"""

import datetime
import decimal
import threading

import pytest

from repro.cache import (
    PlanCache,
    normalize_sql,
    param_count,
    referenced_tables,
    substitute_params,
)
from repro.cache.plan_cache import PlanCacheEntry
from repro.core.database import Database
from repro.errors import BindError, InterfaceError
from repro.sql import ast
from repro.sql.parser import parse, parse_one


def cache_stats(db):
    return {k: v for k, v in db.stats().items() if "cache" in k}


# -- parser / placeholder syntax -------------------------------------------------------


class TestParamParsing:
    def test_question_marks_number_left_to_right(self):
        stmt = parse_one("SELECT * FROM t WHERE a = ? AND b = ?")
        assert param_count(stmt) == 2

    def test_dollar_params_are_one_based(self):
        stmt = parse_one("SELECT * FROM t WHERE a = $2 AND b = $1")
        assert param_count(stmt) == 2

    def test_prepare_statement_parses(self):
        stmt = parse_one("PREPARE q AS SELECT a FROM t WHERE a > ?")
        assert isinstance(stmt, ast.PrepareStmt)
        assert stmt.name == "q"
        assert isinstance(stmt.statement, ast.SelectStmt)
        assert "SELECT" in stmt.sql.upper()

    def test_execute_statement_parses(self):
        stmt = parse_one("EXECUTE q (1, 'x')")
        assert isinstance(stmt, ast.ExecuteStmt)
        assert stmt.name == "q"
        assert len(stmt.args) == 2

    def test_execute_without_args(self):
        stmt = parse_one("EXECUTE q")
        assert isinstance(stmt, ast.ExecuteStmt)
        assert stmt.args == ()

    def test_deallocate_parses(self):
        stmt = parse_one("DEALLOCATE q")
        assert isinstance(stmt, ast.DeallocateStmt)
        assert stmt.name == "q"

    def test_cannot_prepare_transaction_statements(self):
        with pytest.raises(Exception):
            parse("PREPARE q AS BEGIN")

    def test_normalize_sql_collapses_whitespace(self):
        a = normalize_sql("SELECT  a\nFROM   t")
        b = normalize_sql("select a from t")
        assert a == b

    def test_referenced_tables(self):
        stmt = parse_one(
            "SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y IN "
            "(SELECT y FROM c)"
        )
        assert referenced_tables(stmt) == {"a", "b", "c"}

    def test_substitute_params_into_dml(self):
        stmt = parse_one("INSERT INTO t VALUES (?, ?)")
        replaced = substitute_params(stmt, (1, "x"))
        assert param_count(replaced) == 0

    def test_substitute_params_missing_value(self):
        stmt = parse_one("DELETE FROM t WHERE a = ?")
        with pytest.raises(InterfaceError):
            substitute_params(stmt, ())


# -- plan cache unit behavior ----------------------------------------------------------


class TestPlanCacheUnit:
    class FakeProgram:
        instructions = [None] * 4

    def test_lru_eviction_by_entries(self):
        cache = PlanCache(max_entries=2, max_bytes=1 << 20)
        for key in ("a", "b", "c"):
            cache.store(key, PlanCacheEntry(self.FakeProgram(), ()))
        assert len(cache) == 2

    def test_byte_budget_eviction(self):
        program = self.FakeProgram()
        cost = PlanCacheEntry(program, ()).cost
        cache = PlanCache(max_entries=100, max_bytes=cost * 2)
        for key in ("a", "b", "c"):
            cache.store(key, PlanCacheEntry(program, ()))
        assert cache.bytes <= cost * 2

    def test_zero_entries_disables(self):
        cache = PlanCache(max_entries=0)
        cache.store("a", PlanCacheEntry(self.FakeProgram(), ()))
        assert len(cache) == 0
        assert not cache.enabled


# -- plan cache through the engine ----------------------------------------------------


class TestPlanCacheEngine:
    def test_repeated_select_hits_plan_cache(self, conn, db):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1),(2),(3)")
        conn.execute("SELECT sum(a) FROM t")
        before = cache_stats(db)
        result = conn.execute("SELECT sum(a) FROM t")
        assert result.fetchall() == [(6,)]
        after = cache_stats(db)
        assert after["plan_cache_hits"] == before.get("plan_cache_hits", 0) + 1

    def test_write_invalidates_plan(self, conn, db):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("SELECT sum(a) FROM t")
        assert len(db.plan_cache) == 1
        conn.execute("INSERT INTO t VALUES (41)")
        # eager invalidation already dropped the entry
        assert len(db.plan_cache) == 0
        assert conn.execute("SELECT sum(a) FROM t").fetchall() == [(42,)]

    def test_drop_and_recreate_not_served_stale(self, conn, db):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (7)")
        assert conn.execute("SELECT sum(a) FROM t").fetchall() == [(7,)]
        conn.execute("DROP TABLE t")
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (5)")
        assert conn.execute("SELECT sum(a) FROM t").fetchall() == [(5,)]

    def test_plan_shared_across_connections(self, db):
        c1, c2 = db.connect(), db.connect()
        c1.execute("CREATE TABLE t (a INTEGER)")
        c1.execute("INSERT INTO t VALUES (1)")
        c1.execute("SELECT a FROM t")
        before = cache_stats(db)
        assert c2.execute("SELECT a FROM t").fetchall() == [(1,)]
        assert (
            cache_stats(db)["plan_cache_hits"]
            == before.get("plan_cache_hits", 0) + 1
        )
        c1.close()
        c2.close()

    def test_sys_tables_are_not_plan_cached(self, conn, db):
        conn.execute("SELECT * FROM sys.tables")
        conn.execute("SELECT * FROM sys.tables")
        assert len(db.plan_cache) == 0

    def test_uncommitted_create_not_cached(self, conn, db):
        conn.execute("BEGIN")
        conn.execute("CREATE TABLE fresh (a INTEGER)")
        conn.execute("SELECT * FROM fresh")
        assert len(db.plan_cache) == 0
        conn.execute("ROLLBACK")

    def test_plan_cache_can_be_disabled(self):
        db = Database(None, plan_cache_entries=0)
        try:
            conn = db.connect()
            conn.execute("CREATE TABLE t (a INTEGER)")
            conn.execute("SELECT a FROM t")
            conn.execute("SELECT a FROM t")
            assert cache_stats(db).get("plan_cache_hits", 0) == 0
        finally:
            db.shutdown()


# -- prepared statements: SQL surface --------------------------------------------------


class TestPrepareSQL:
    def test_prepare_execute_deallocate(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1),(2),(3)")
        conn.execute("PREPARE q AS SELECT a FROM t WHERE a >= $1")
        assert conn.execute("EXECUTE q (2)").fetchall() == [(2,), (3,)]
        assert conn.execute("EXECUTE q (3)").fetchall() == [(3,)]
        conn.execute("DEALLOCATE q")
        with pytest.raises(InterfaceError):
            conn.execute("EXECUTE q (1)")

    def test_duplicate_name_rejected(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("PREPARE q AS SELECT a FROM t")
        with pytest.raises(InterfaceError):
            conn.execute("PREPARE q AS SELECT a FROM t")

    def test_arity_mismatch_rejected(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("PREPARE q AS SELECT a FROM t WHERE a = ?")
        with pytest.raises(InterfaceError):
            conn.execute("EXECUTE q")
        with pytest.raises(InterfaceError):
            conn.execute("EXECUTE q (1, 2)")

    def test_execute_args_must_be_constants(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("PREPARE q AS SELECT a FROM t WHERE a = ?")
        with pytest.raises(InterfaceError):
            conn.execute("EXECUTE q (a)")

    def test_execute_unknown_name(self, conn):
        with pytest.raises(InterfaceError):
            conn.execute("EXECUTE nothing")

    def test_deallocate_unknown_name(self, conn):
        with pytest.raises(InterfaceError):
            conn.execute("DEALLOCATE nothing")

    def test_execute_constant_expression_args(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (4)")
        conn.execute("PREPARE q AS SELECT a FROM t WHERE a = ?")
        assert conn.execute("EXECUTE q (2 + 2)").fetchall() == [(4,)]


# -- prepared statements: Python API ---------------------------------------------------


class TestPrepareAPI:
    def test_prepare_and_execute(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1,'x'),(2,'y')")
        ps = conn.prepare("SELECT b FROM t WHERE a = ?")
        assert ps.nparams == 1
        assert ps.execute((1,)).fetchall() == [("x",)]
        assert ps.execute((2,)).fetchall() == [("y",)]
        assert ps.executions == 2
        ps.deallocate()
        with pytest.raises(InterfaceError):
            ps.execute((1,))

    def test_named_prepare_reachable_from_sql(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (9)")
        conn.prepare("SELECT a FROM t WHERE a > ?", name="big")
        assert conn.execute("EXECUTE big (5)").fetchall() == [(9,)]

    def test_context_manager_deallocates(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        with conn.prepare("SELECT a FROM t") as ps:
            name = ps.name
        with pytest.raises(InterfaceError):
            conn.execute_prepared(name)

    def test_prepare_requires_single_statement(self, conn):
        with pytest.raises(InterfaceError):
            conn.prepare("SELECT 1; SELECT 2")

    def test_cannot_prepare_transaction_control(self, conn):
        with pytest.raises(Exception):
            conn.prepare("BEGIN")

    def test_direct_execute_params(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1),(2),(3)")
        result = conn.execute(
            "SELECT a FROM t WHERE a BETWEEN ? AND ?", params=(2, 3)
        )
        assert result.fetchall() == [(2,), (3,)]

    def test_params_require_single_statement(self, conn):
        with pytest.raises(InterfaceError):
            conn.execute("SELECT 1; SELECT 2", params=(1,))

    def test_param_type_inference_error_is_actionable(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(BindError, match="CAST"):
            conn.execute("SELECT ? FROM t", params=(1,))

    def test_cast_resolves_param_type(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        result = conn.execute(
            "SELECT CAST(? AS INTEGER) FROM t", params=(7,)
        )
        assert result.fetchall() == [(7,)]

    def test_close_clears_prepared(self, db):
        conn = db.connect()
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.prepare("SELECT a FROM t", name="q")
        conn.close()
        conn2 = db.connect()
        rows = conn2.execute("SELECT count(*) FROM sys.prepared").fetchall()
        assert rows == [(0,)]
        conn2.close()


# -- parameter typing ------------------------------------------------------------------


class TestParamTypes:
    def test_typed_params_round_trip(self, conn):
        conn.execute(
            "CREATE TABLE t (a INTEGER, b VARCHAR(10), d DATE, "
            "m DECIMAL(8,2), f DOUBLE)"
        )
        ins = conn.prepare("INSERT INTO t VALUES (?, ?, ?, ?, ?)")
        ins.execute((1, "x", datetime.date(2024, 5, 5),
                     decimal.Decimal("12.34"), 2.5))
        ins.execute((2, "y", "2024-06-06", decimal.Decimal("99.99"), 0.5))
        rows = conn.execute("SELECT * FROM t").fetchall()
        assert rows[0] == (1, "x", datetime.date(2024, 5, 5), 12.34, 2.5)
        assert rows[1][2] == datetime.date(2024, 6, 6)

    def test_null_param(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        result = conn.execute("SELECT a FROM t WHERE a = ?", params=(None,))
        assert result.fetchall() == []

    def test_date_param_predicate(self, conn):
        conn.execute("CREATE TABLE t (d DATE)")
        conn.execute("INSERT INTO t VALUES (DATE '2024-01-01')")
        result = conn.execute(
            "SELECT d FROM t WHERE d < ?", params=(datetime.date(2025, 1, 1),)
        )
        assert result.nrows == 1

    def test_like_param_pattern(self, conn):
        conn.execute("CREATE TABLE t (b VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES ('apple'),('banana')")
        ps = conn.prepare("SELECT b FROM t WHERE b LIKE ?")
        assert ps.execute(("a%",)).fetchall() == [("apple",)]
        assert ps.execute(("%an%",)).fetchall() == [("banana",)]

    def test_update_and_delete_params(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR(10))")
        conn.execute("INSERT INTO t VALUES (1,'x'),(2,'y')")
        conn.prepare("UPDATE t SET b = ? WHERE a = ?").execute(("z", 1))
        assert conn.execute(
            "SELECT b FROM t WHERE a = 1"
        ).fetchall() == [("z",)]
        conn.prepare("DELETE FROM t WHERE a = ?").execute((2,))
        assert conn.execute("SELECT count(*) FROM t").fetchall() == [(1,)]

    def test_same_plan_different_values(self, conn, db):
        """Warm EXECUTE reuses the compiled plan even with new values."""
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1),(2),(3),(4)")
        ps = conn.prepare("SELECT count(*) FROM t WHERE a > ?")
        assert ps.execute((0,)).fetchall() == [(4,)]
        before = cache_stats(db).get("plan_cache_hits", 0)
        assert ps.execute((2,)).fetchall() == [(2,)]
        assert ps.execute((3,)).fetchall() == [(1,)]
        assert cache_stats(db)["plan_cache_hits"] == before + 2


# -- result cache ----------------------------------------------------------------------


@pytest.fixture
def rc_db():
    database = Database(None, result_cache=True)
    yield database
    database.shutdown()


@pytest.fixture
def rc_conn(rc_db):
    connection = rc_db.connect()
    yield connection
    connection.close()


class TestResultCache:
    def test_off_by_default(self, conn, db):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("SELECT a FROM t")
        conn.execute("SELECT a FROM t")
        assert cache_stats(db).get("result_cache_hits", 0) == 0

    def test_warm_hit_serves_cached_result(self, rc_conn, rc_db):
        rc_conn.execute("CREATE TABLE t (a INTEGER)")
        rc_conn.execute("INSERT INTO t VALUES (1),(2)")
        rc_conn.execute("SELECT sum(a) FROM t")
        result = rc_conn.execute("SELECT sum(a) FROM t")
        assert result.fetchall() == [(3,)]
        assert rc_db.query_log.entries()[-1].cache == "result"

    def test_write_invalidates_result(self, rc_conn, rc_db):
        rc_conn.execute("CREATE TABLE t (a INTEGER)")
        rc_conn.execute("INSERT INTO t VALUES (1)")
        rc_conn.execute("SELECT sum(a) FROM t")
        rc_conn.execute("SELECT sum(a) FROM t")
        rc_conn.execute("INSERT INTO t VALUES (10)")
        result = rc_conn.execute("SELECT sum(a) FROM t")
        assert result.fetchall() == [(11,)]
        assert rc_db.query_log.entries()[-1].cache != "result"

    def test_uncommitted_delta_bypasses_result_cache(self, rc_conn, rc_db):
        rc_conn.execute("CREATE TABLE t (a INTEGER)")
        rc_conn.execute("INSERT INTO t VALUES (1)")
        rc_conn.execute("SELECT sum(a) FROM t")
        rc_conn.execute("SELECT sum(a) FROM t")  # cached
        rc_conn.execute("BEGIN")
        rc_conn.execute("INSERT INTO t VALUES (100)")
        result = rc_conn.execute("SELECT sum(a) FROM t")
        assert result.fetchall() == [(101,)]
        assert rc_db.query_log.entries()[-1].cache != "result"
        rc_conn.execute("ROLLBACK")
        result = rc_conn.execute("SELECT sum(a) FROM t")
        assert result.fetchall() == [(1,)]

    def test_different_params_are_distinct_entries(self, rc_conn):
        rc_conn.execute("CREATE TABLE t (a INTEGER)")
        rc_conn.execute("INSERT INTO t VALUES (1),(2),(3)")
        ps = rc_conn.prepare("SELECT count(*) FROM t WHERE a >= ?")
        assert ps.execute((2,)).fetchall() == [(2,)]
        assert ps.execute((3,)).fetchall() == [(1,)]
        assert ps.execute((2,)).fetchall() == [(2,)]


# -- observability ---------------------------------------------------------------------


class TestObservability:
    def test_sys_prepared_lists_statements(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("PREPARE q AS SELECT a FROM t WHERE a = $1")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("EXECUTE q (1)")
        rows = conn.execute(
            "SELECT name, nparams, executions FROM sys.prepared"
        ).fetchall()
        assert rows == [("q", 1, 1)]

    def test_sys_queries_cache_column(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("SELECT a FROM t")
        conn.execute("SELECT a FROM t")
        rows = conn.execute(
            "SELECT sql, cache FROM sys.queries WHERE sql = 'SELECT a FROM t'"
        ).fetchall()
        assert [cache for _, cache in rows] == ["", "plan"]

    def test_warm_hit_skips_planning_phases(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("PREPARE q AS SELECT sum(a) FROM t")
        conn.execute("EXECUTE q")
        conn.execute("EXECUTE q")
        rows = conn.execute(
            "SELECT cache, bind_us, optimize_us, compile_us, execute_us "
            "FROM sys.queries WHERE sql LIKE 'EXECUTE%'"
        ).fetchall()
        cold, warm = rows
        assert cold[0] == "" and cold[1] > 0
        assert warm[0] == "plan"
        assert warm[1] == warm[2] == warm[3] == 0.0
        assert warm[4] > 0  # execution itself still ran

    def test_cache_metrics_exposed(self, conn, db):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("SELECT a FROM t")
        conn.execute("SELECT a FROM t")
        text = db.metrics_text()
        assert "repro_plan_cache_hits_total" in text
        assert "repro_plan_cache_entries" in text
        assert "repro_result_cache_bytes" in text

    def test_counters_reconcile(self, conn, db):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1)")
        ps = conn.prepare("SELECT a FROM t WHERE a = ?")
        for value in (1, 2, 1, 3, 1):
            ps.execute((value,))
        stats = cache_stats(db)
        executions = db.stats()["prepared_executions"]
        assert (
            stats["plan_cache_hits"] + stats["plan_cache_misses"]
            >= executions
        )


# -- TPC-H warm execution (acceptance: Q1 skips parse/bind/optimize/compile) -----------


class TestTPCHWarm:
    def test_q1_warm_execute_skips_planning(self):
        from repro.workloads.tpch import generate, load, query, schema_statements

        db = Database(None)
        try:
            conn = db.connect()
            for ddl in schema_statements():
                conn.execute(ddl)
            load(conn, generate(0.002, seed=7))
            conn.prepare(query(1), name="q1")
            cold = conn.execute_prepared("q1")
            warm = conn.execute_prepared("q1")
            assert warm.fetchall() == cold.fetchall()
            entry = db.query_log.entries()[-1]
            assert entry.cache == "plan"
            for phase in ("parse", "bind", "optimize", "compile"):
                assert entry.phases_us.get(phase, 0.0) == 0.0
            assert entry.phases_us.get("execute", 0.0) > 0.0
        finally:
            db.shutdown()


# -- transactional cleanliness (regression) --------------------------------------------


class TestTxnCleanliness:
    @pytest.mark.parametrize(
        "failer",
        [
            lambda c: c.execute("SELECT nosuch FROM t"),
            lambda c: c.execute("SELEC"),
            lambda c: c.execute("SELECT * FROM missing"),
            lambda c: c.execute("INSERT INTO t VALUES ('abc')"),
            lambda c: c.execute("SELECT * FROM t; SELECT nosuch FROM t"),
            lambda c: c.append("t", {"wrong": [1]}),
            lambda c: c.explain("SELECT nosuch FROM t"),
            lambda c: c.execute("EXECUTE nothing (1)"),
            lambda c: c.execute("COPY INTO t FROM '/nonexistent/file.csv'"),
            lambda c: c.execute("COPY INTO t FROM STDIN"),
            lambda c: c.execute(
                "COPY INTO t FROM STDIN", copy_data=b"not-an-int\n"
            ),
            lambda c: c.execute("COPY missing TO '/tmp/out.csv'"),
        ],
        ids=[
            "bind-error", "parse-error", "missing-table", "bad-insert",
            "batch-second-fails", "append-error", "explain-error",
            "execute-unknown", "copy-missing-file", "copy-no-stream",
            "copy-bad-record", "copy-to-missing-table",
        ],
    )
    def test_failed_statement_leaves_no_dangling_txn(self, db, failer):
        """A failed statement must not pin an old snapshot: a write from
        another connection afterwards commits and is visible."""
        c1, c2 = db.connect(), db.connect()
        c1.execute("CREATE TABLE t (a INTEGER)")
        c1.execute("INSERT INTO t VALUES (1)")
        c1.execute("SELECT * FROM t")  # make c1 touch the table
        with pytest.raises(Exception):
            failer(c1)
        assert not c1.in_transaction
        c2.execute("INSERT INTO t VALUES (2)")  # must not conflict or block
        assert c1.execute("SELECT count(*) FROM t").fetchall() == [(2,)]
        c1.close()
        c2.close()

    def test_failed_copy_aborts_explicit_txn(self, db):
        """A failed COPY inside BEGIN rolls back cleanly: the explicit
        transaction is cleared, no snapshot stays pinned, and rows loaded
        before the failure are gone."""
        c1, c2 = db.connect(), db.connect()
        c1.execute("CREATE TABLE t (a INTEGER)")
        c1.execute("INSERT INTO t VALUES (1)")
        c1.execute("BEGIN")
        c1.execute("SELECT * FROM t")
        with pytest.raises(Exception):
            # first record loads, second is malformed -> whole COPY fails
            c1.execute("COPY INTO t FROM STDIN", copy_data=b"5\nboom\n")
        assert not c1.in_transaction
        c2.execute("INSERT INTO t VALUES (2)")
        assert c1.execute("SELECT count(*) FROM t").fetchall() == [(2,)]
        assert c1.execute("SELECT max(a) FROM t").fetchall() == [(2,)]
        c1.close()
        c2.close()

    def test_failed_append_aborts_explicit_txn(self, db):
        """Regression: a failed append inside BEGIN left the transaction
        open on its old snapshot, hiding other connections' commits."""
        c1, c2 = db.connect(), db.connect()
        c1.execute("CREATE TABLE t (a INTEGER)")
        c1.execute("INSERT INTO t VALUES (1)")
        c1.execute("BEGIN")
        c1.execute("SELECT * FROM t")
        with pytest.raises(Exception):
            c1.append("t", {"wrong": [1]})
        assert not c1.in_transaction
        c2.execute("INSERT INTO t VALUES (2)")
        assert c1.execute("SELECT count(*) FROM t").fetchall() == [(2,)]
        c1.close()
        c2.close()


# -- concurrent invalidation -----------------------------------------------------------


class TestConcurrentInvalidation:
    def test_hammer_execute_while_writing(self):
        """N reader threads EXECUTE while a writer appends; no stale rows
        are ever served and the cache counters reconcile."""
        db = Database(None, result_cache=True)
        try:
            setup = db.connect()
            setup.execute("CREATE TABLE t (a INTEGER)")
            setup.execute("INSERT INTO t VALUES (1)")
            n_writes = 20
            n_readers = 4
            seen_counts: list = []
            errors: list = []
            stop = threading.Event()

            def reader():
                conn = db.connect()
                ps = conn.prepare("SELECT count(*), max(a) FROM t")
                try:
                    while not stop.is_set():
                        rows = ps.execute().fetchall()
                        seen_counts.append(rows[0])
                except Exception as exc:  # pragma: no cover - fails the test
                    errors.append(exc)
                finally:
                    conn.close()

            threads = [
                threading.Thread(target=reader) for _ in range(n_readers)
            ]
            for thread in threads:
                thread.start()
            writer = db.connect()
            for i in range(2, n_writes + 2):
                writer.execute(f"INSERT INTO t VALUES ({i})")
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            # each observed (count, max) must be consistent: with values
            # 1..k inserted in order, count == max always
            for count, biggest in seen_counts:
                assert count == biggest, "stale mixed result served"
            stats = cache_stats(db)
            executions = db.stats()["prepared_executions"]
            final = db.connect()
            assert final.execute(
                "SELECT count(*) FROM t"
            ).fetchall() == [(n_writes + 1,)]
            hits_misses = (
                stats.get("result_cache_hits", 0)
                + stats.get("result_cache_misses", 0)
            )
            # every EXECUTE consulted the result cache exactly once (the
            # reader statement is always cacheable: committed table, no
            # open delta)
            assert hits_misses == executions
        finally:
            db.shutdown()


# -- wire protocol ---------------------------------------------------------------------


class TestWireProtocol:
    @pytest.fixture()
    def remote(self):
        from repro.server import AsyncServer, RemoteConnection

        with AsyncServer(engine="columnar") as server:
            conn = RemoteConnection("127.0.0.1", server.port)
            yield conn
            conn.close()

    def test_prepare_execute_deallocate_round_trip(self, remote):
        remote.execute("CREATE TABLE t (a INTEGER, b VARCHAR(10))")
        remote.execute("INSERT INTO t VALUES (1,'x'),(2,'y'),(3,'z')")
        nparams = remote.prepare("q", "SELECT a, b FROM t WHERE a >= ?")
        assert nparams == 1
        assert remote.execute_prepared("q", (2,)).fetchall() == [
            (2, "y"), (3, "z"),
        ]
        assert remote.execute_prepared("q", (3,)).fetchall() == [(3, "z")]
        remote.deallocate("q")
        from repro.errors import DatabaseError

        with pytest.raises(DatabaseError):
            remote.execute_prepared("q", (1,))

    def test_null_and_string_params_over_wire(self, remote):
        remote.execute("CREATE TABLE t (b VARCHAR(20))")
        remote.execute("INSERT INTO t VALUES ('tab\there')")
        remote.prepare("q", "SELECT count(*) FROM t WHERE b = ?")
        assert remote.execute_prepared("q", ("tab\there",)).fetchall() == [(1,)]
        assert remote.execute_prepared("q", (None,)).fetchall() == [(0,)]

    def test_prepare_error_travels_wire(self, remote):
        from repro.errors import DatabaseError

        with pytest.raises(DatabaseError):
            remote.prepare("bad", "SELEC nonsense")

    def test_metrics_include_cache_counters(self, remote):
        remote.execute("CREATE TABLE t (a INTEGER)")
        remote.execute("SELECT a FROM t")
        remote.execute("SELECT a FROM t")
        assert "repro_plan_cache_hits_total" in remote.metrics()


# -- bench harness ---------------------------------------------------------------------


class TestCacheBench:
    def test_run_repeat_smoke(self):
        from repro.bench.cache_bench import run_repeat

        results = run_repeat(scale_factor=0.002, queries=[6], repeat=2)
        stats = results.pop("_stats")
        info = results[6]
        assert info["cache"] == "plan"
        assert info["warm_plan_ms"] < info["cold_plan_ms"]
        assert stats["plan_cache_hits"] >= 1

    def test_repeat_requires_two_runs(self):
        from repro.bench.cache_bench import run_repeat

        with pytest.raises(ValueError):
            run_repeat(repeat=1)
