"""Tests for the observability layer: tracing, EXPLAIN [ANALYZE], stats.

Instruction spans reproduce MonetDB's TRACE: per-instruction wall time,
input/output cardinalities and the tactical decision the interpreter made
(hash vs. merge join, index usage, chunked execution).  These tests pin
the contract: nothing retained when tracing is off, and span numbers that
agree with the actual result when a trace is taken.
"""

import pytest

from repro.errors import InterfaceError
from repro.obs import EngineStats, render_tree
from repro.workloads.tpch import load, query


class TestEngineStats:
    def test_counters_start_at_zero(self):
        stats = EngineStats()
        snap = stats.snapshot()
        assert snap["queries"] == 0
        assert snap["rows_returned"] == 0

    def test_incr_and_reset(self):
        stats = EngineStats()
        stats.incr("queries")
        stats.incr("rows_returned", 42)
        assert stats.get("queries") == 1
        assert stats.get("rows_returned") == 42
        stats.reset()
        assert stats.get("rows_returned") == 0

    def test_dynamic_counter_registration(self):
        # incr() and get() agree on unknown names: first touch registers
        # the counter instead of raising (matching get()'s silent zero).
        stats = EngineStats()
        assert stats.get("bogus") == 0
        stats.incr("bogus")
        stats.incr("bogus", 2)
        assert stats.get("bogus") == 3
        snap = stats.snapshot()
        assert snap["bogus"] == 3
        # predeclared counters keep declaration order; dynamic ones follow
        names = list(snap)
        assert names.index("queries") < names.index("bogus")
        stats.incr("aaa_dynamic")
        names = list(stats.snapshot())
        assert names.index("bogus") > names.index("aaa_dynamic") > names.index(
            "slow_queries"
        )


class TestDatabaseStats:
    def test_query_counters(self, conn, db):
        conn.execute("CREATE TABLE s (v INTEGER)")
        conn.execute("INSERT INTO s VALUES (1), (2), (3)")
        result = conn.query("SELECT v FROM s ORDER BY v")
        snap = db.stats()
        assert snap["queries"] == 1
        assert snap["statements"] == 3
        assert snap["rows_appended"] == 3
        assert snap["rows_returned"] == 3
        assert snap["txn_commits"] >= 2  # DDL + INSERT + SELECT autocommits
        assert snap["rows_exported"] == 0
        result.fetchall()
        assert db.stats()["rows_exported"] == 3

    def test_append_counts_rows(self, conn, db):
        import numpy as np

        conn.execute("CREATE TABLE a (v INTEGER)")
        conn.append("a", {"v": np.arange(7, dtype=np.int32)})
        assert db.stats()["rows_appended"] == 7

    def test_abort_counter(self, db):
        first = db.connect()
        second = db.connect()
        first.execute("CREATE TABLE c (v INTEGER)")
        first.execute("INSERT INTO c VALUES (1)")
        first.execute("BEGIN")
        first.execute("INSERT INTO c VALUES (2)")
        second.execute("INSERT INTO c VALUES (3)")  # advances the version
        from repro.errors import ConflictError

        with pytest.raises(ConflictError):
            first.execute("COMMIT")
        assert db.stats()["txn_aborts"] == 1
        first.close()
        second.close()

    def test_untraced_queries_leave_trace_counter_alone(self, conn, db):
        conn.execute("CREATE TABLE u (v INTEGER)")
        conn.query("SELECT v FROM u")
        assert db.stats()["traced_queries"] == 0


def instruction_spans(spans):
    return [s for s in spans if s["kind"] == "instruction"]


class TestTraceQuery:
    def test_trace_off_records_nothing(self, conn, db):
        """Without trace_spans, a forced trace is returned but not retained."""
        conn.execute("CREATE TABLE q (v INTEGER)")
        conn.execute("INSERT INTO q VALUES (1), (2)")
        conn.query("SELECT v FROM q")
        _, spans = conn.trace_query("SELECT v FROM q")
        conn.query("EXPLAIN ANALYZE SELECT v FROM q")
        assert instruction_spans(spans)
        assert db.span_tracer.events() == []
        assert db.span_tracer.active_statements() == []

    def test_trace_query_returns_result_and_trace(self, conn):
        conn.execute("CREATE TABLE t (v INTEGER)")
        conn.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
        result, spans = conn.trace_query("SELECT v FROM t WHERE v > 1")
        assert result.nrows == 3
        root = spans[0]
        assert root["kind"] == "statement"
        assert root["attrs"]["rows"] == 3
        assert root["duration_us"] > 0
        phases = {s["name"] for s in spans if s["kind"] == "phase"}
        assert {"parse", "bind", "optimize", "compile", "execute"} <= phases
        instructions = instruction_spans(spans)
        assert instructions
        assert all(s["duration_us"] >= 0 for s in instructions)
        # the result instruction's output cardinality is the result size
        assert instructions[-1]["name"] == "result"
        assert instructions[-1]["attrs"]["rows_out"] == 3

    def test_trace_records_tactics(self, conn):
        conn.execute("CREATE TABLE l (k INTEGER, v INTEGER)")
        conn.execute("CREATE TABLE r (k INTEGER, w INTEGER)")
        conn.execute("INSERT INTO l VALUES (1, 10), (2, 20), (3, 30)")
        conn.execute("INSERT INTO r VALUES (2, 200), (3, 300), (4, 400)")
        _, spans = conn.trace_query(
            "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k"
        )
        joins = [s for s in instruction_spans(spans) if s["name"] == "join"]
        assert joins and joins[0]["attrs"]["tactic"] in (
            "hash_join", "merge_join", "sort_merge"
        )
        _, spans = conn.trace_query("SELECT k, count(*) FROM l GROUP BY k")
        groups = [
            s for s in instruction_spans(spans) if s["name"] == "groupby"
        ]
        assert groups and groups[0]["attrs"]["tactic"] in (
            "hash_group", "hash_index"
        )

    def test_summary_and_render(self, conn):
        conn.execute("CREATE TABLE s (v INTEGER)")
        conn.execute("INSERT INTO s VALUES (5), (6)")
        _, spans = conn.trace_query("SELECT sum(v) FROM s")
        assert spans[0]["attrs"]["rows"] == 1
        assert "agg" in {s["name"] for s in instruction_spans(spans)}
        text = render_tree(spans)
        assert text.splitlines()[0].startswith("statement")
        assert "rows=" in text and "self_us=" in text

    def test_traced_queries_counter(self, conn, db):
        conn.execute("CREATE TABLE tc (v INTEGER)")
        conn.trace_query("SELECT v FROM tc")
        conn.query("EXPLAIN ANALYZE SELECT v FROM tc")
        assert db.stats()["traced_queries"] == 2

    def test_parallel_trace_matches_sequential(self):
        from repro.core.database import Database

        sql = "SELECT v % 7 AS k, sum(v), count(*) FROM p GROUP BY k ORDER BY k"
        rows = {}
        for parallel in (False, True):
            database = Database(
                None, parallel=parallel, max_workers=2,
                min_parallel_rows=64, morsel_rows=1000,
            )
            try:
                conn = database.connect()
                conn.execute("CREATE TABLE p (v INTEGER)")
                conn.execute(
                    "INSERT INTO p VALUES "
                    + ", ".join(f"({i})" for i in range(5000))
                )
                result, spans = conn.trace_query(sql)
                rows[parallel] = result.fetchall()
                assert rows[parallel] == conn.query(sql).fetchall()
                if parallel:  # the morsel executor ran under the trace
                    assert any(s["kind"] == "morsel" for s in spans)
            finally:
                database.shutdown()
        assert rows[True] == rows[False]


class TestExplain:
    def test_explain_renders_plan_and_program(self, conn):
        conn.execute("CREATE TABLE e (a INTEGER, b VARCHAR(5))")
        result = conn.query("EXPLAIN SELECT a FROM e WHERE a > 1 ORDER BY a")
        assert result.names == ["explain"]
        text = "\n".join(v for (v,) in result.fetchall())
        assert "Scan" in text       # bound plan
        assert "result" in text     # MAL program
        # EXPLAIN must not execute: no query counted
        assert conn._database.stats()["queries"] == 0

    def test_explain_analyze_executes_and_annotates(self, conn):
        conn.execute("CREATE TABLE ea (v INTEGER)")
        conn.execute("INSERT INTO ea VALUES (1), (2), (3)")
        result = conn.query("EXPLAIN ANALYZE SELECT v FROM ea WHERE v >= 2")
        text = "\n".join(v for (v,) in result.fetchall())
        assert "time_us" in text
        assert "2 result rows" in text

    def test_explain_rejects_non_select(self, conn):
        conn.execute("CREATE TABLE ns (v INTEGER)")
        with pytest.raises(InterfaceError, match="EXPLAIN only supports"):
            conn.execute("EXPLAIN INSERT INTO ns VALUES (1)")

    def test_explain_keyword_not_reserved_harmfully(self, conn):
        # plain statements still parse after the keyword addition
        conn.execute("CREATE TABLE ok (v INTEGER)")
        assert conn.query("SELECT count(*) FROM ok").scalar() == 0

    def test_explain_forms_share_one_listing(self, conn, db):
        """explain(), EXPLAIN and a cold execution compile the same MAL."""
        conn.execute("CREATE TABLE m (a INTEGER, b INTEGER)")
        conn.execute("INSERT INTO m VALUES (1, 2), (3, 4), (5, 6)")
        sql = "SELECT a, sum(b) FROM m WHERE a > 1 GROUP BY a ORDER BY a"
        listing = conn.explain(sql)
        text = "\n".join(v for (v,) in conn.query("EXPLAIN " + sql).fetchall())
        assert listing in text
        assert len(db.plan_cache) == 0  # neither form touched the cache
        conn.query(sql)
        (entry,) = db.plan_cache._entries.values()
        assert entry.program.render() == listing


class TestTraceCardinalities:
    """trace_query numbers must agree with actual result sizes (TPC-H)."""

    @pytest.mark.parametrize("number", [1, 3, 6])
    def test_tpch_trace_consistent(self, db, tpch_tiny, number):
        conn = db.connect()
        load(conn, tpch_tiny)
        sql = query(number)
        expected = conn.query(sql)
        result, spans = conn.trace_query(sql)
        assert result.nrows == expected.nrows
        assert spans[0]["attrs"]["rows"] == expected.nrows
        instructions = instruction_spans(spans)
        final = instructions[-1]
        assert final["name"] == "result"
        assert final["attrs"]["rows_out"] == expected.nrows
        # every executed instruction was profiled with sane numbers
        assert all(s["attrs"]["rows_in"] >= 0 and s["attrs"]["rows_out"] >= 0
                   for s in instructions)
        execute = next(s for s in spans if s["name"] == "execute")
        top_level = [
            s for s in instructions if s["parent_id"] == execute["span_id"]
        ]
        assert execute["duration_us"] >= sum(
            s["duration_us"] for s in top_level
        ) * 0.5
        conn.close()


class TestServerStats:
    def test_wire_byte_counters(self, tmp_path):
        from repro.server import AsyncServer, RemoteConnection

        with AsyncServer(
            engine="columnar", protocol="pg", directory=str(tmp_path / "s")
        ) as server:
            client = RemoteConnection("127.0.0.1", server.port, "pg")
            client.execute("CREATE TABLE w (v INTEGER)")
            client.execute("INSERT INTO w VALUES (1), (2)")
            client.query("SELECT v FROM w ORDER BY v")
            snap = server._database.stats()
            assert snap["bytes_received"] > 0
            assert snap["bytes_sent"] > 0
            # the C message now carries rows + server-side execution time
            assert client.last_status["rows"] == 2
            assert client.last_status["time_us"] is not None
            assert client.last_status["time_us"] >= 0
            client.close()
