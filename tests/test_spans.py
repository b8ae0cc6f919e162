"""Tests for hierarchical span tracing: the tracer, the sys.* views,
wire-context propagation, exports, and the overhead contract.

The span subsystem must be invisible when off (zero retained rows, an
early return per statement), complete when on (statement -> phase ->
instruction -> chunk hierarchy whose phase self-times account for the
statement wall time), and mergeable across the wire (client and server
spans share one trace id).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.database import Database
from repro.obs.spans import (
    SpanTracer,
    make_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    render_tree,
)


@pytest.fixture
def traced_db():
    database = Database(None, trace_spans=True)
    yield database
    database.shutdown()


@pytest.fixture
def traced_conn(traced_db):
    connection = traced_db.connect()
    yield connection
    connection.close()


class TestTraceContext:
    def test_traceparent_roundtrip(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        header = make_traceparent(trace_id, span_id)
        assert parse_traceparent(header) == (trace_id, span_id)

    @pytest.mark.parametrize("bad", [
        "", "00-abc", "nonsense", "00-xyz-123-01",
        "00-" + "g" * 32 + "-" + "0" * 16 + "-01",
    ])
    def test_malformed_traceparent_rejected(self, bad):
        assert parse_traceparent(bad) is None

    def test_wire_context_is_per_thread(self):
        token = SpanTracer.set_wire_context("t" * 32, "s" * 16)
        try:
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(SpanTracer.wire_context())
            )
            thread.start()
            thread.join()
            assert seen == [None]  # other threads never observe it
            assert SpanTracer.wire_context() == ("t" * 32, "s" * 16)
        finally:
            SpanTracer.reset_wire_context(token)
        assert SpanTracer.wire_context() is None


class TestSpanHierarchy:
    def test_statement_phases_nest_under_root(self, traced_db, traced_conn):
        traced_conn.execute("CREATE TABLE h (v INTEGER)")
        traced_conn.execute("INSERT INTO h VALUES (1), (2), (3)")
        traced_conn.query("SELECT sum(v) FROM h")
        spans = traced_db.span_tracer.events()
        roots = [s for s in spans if s.kind == "statement"]
        assert len(roots) == 3
        select_root = roots[-1]
        children = [s for s in spans if s.parent_id == select_root.span_id]
        names = {s.name for s in children}
        assert {"parse", "bind", "optimize", "compile", "execute"} <= names
        execute = next(s for s in children if s.name == "execute")
        instructions = [s for s in spans if s.parent_id == execute.span_id]
        assert instructions and all(
            s.kind == "instruction" for s in instructions
        )
        assert instructions[-1].attrs["rows_out"] == 1

    def test_phase_self_times_account_for_statement(
        self, traced_db, traced_conn
    ):
        traced_conn.execute("CREATE TABLE acct (v INTEGER, w INTEGER)")
        traced_conn.execute(
            "INSERT INTO acct VALUES " + ", ".join(
                f"({i}, {i * 2})" for i in range(2000)
            )
        )
        traced_conn.query(
            "EXPLAIN ANALYZE SELECT w, sum(v) FROM acct"
            " GROUP BY w ORDER BY w DESC LIMIT 5"
        )
        spans = traced_db.span_tracer.events()
        root = [s for s in spans if s.kind == "statement"][-1]
        phase_total = sum(
            s.duration_us for s in spans
            if s.parent_id == root.span_id and s.kind == "phase"
        )
        # parse+bind+optimize+compile+execute cover the statement wall
        # time; nothing but span bookkeeping falls in the gaps
        assert phase_total >= 0.9 * root.duration_us
        assert phase_total <= 1.05 * root.duration_us

    @pytest.mark.parametrize("sql", [
        "SELECT w, sum(v) FROM pc GROUP BY w",
        "EXPLAIN ANALYZE SELECT w FROM pc",
        "INSERT INTO pc SELECT v, w FROM pc WHERE v > 1",
    ])
    def test_phase_spans_are_contiguous(self, traced_db, traced_conn, sql):
        """Each phase starts exactly where the previous one ended, the
        first at the statement start: no work falls between phases."""
        traced_conn.execute("CREATE TABLE pc (v INTEGER, w INTEGER)")
        traced_conn.execute("INSERT INTO pc VALUES (1, 2), (3, 4)")
        traced_conn.execute(sql)
        spans = traced_db.span_tracer.events()
        root = [s for s in spans if s.kind == "statement"][-1]
        phases = sorted(
            (s for s in spans
             if s.parent_id == root.span_id and s.kind == "phase"),
            key=lambda s: s.start_ns,
        )
        assert [s.name for s in phases][-1] == "execute"
        assert phases[0].start_ns == root.start_ns
        for before, after in zip(phases, phases[1:]):
            assert after.start_ns == before.end_ns

    def test_error_statement_closes_spans(self, traced_db, traced_conn):
        with pytest.raises(Exception):
            traced_conn.query("SELECT nope FROM missing_table")
        spans = traced_db.span_tracer.events()
        root = [s for s in spans if s.kind == "statement"][-1]
        assert root.status == "error"
        assert "error" in root.attrs
        assert root.end_ns >= root.start_ns

    def test_session_span_recorded_on_close(self, traced_db):
        connection = traced_db.connect()
        connection.execute("CREATE TABLE s (v INTEGER)")
        connection.close()
        sessions = [
            s for s in traced_db.span_tracer.events() if s.kind == "session"
        ]
        assert len(sessions) == 1
        assert sessions[0].attrs["queries"] >= 1
        statement = next(
            s for s in traced_db.span_tracer.events()
            if s.kind == "statement"
        )
        # every statement of the session shares the session's trace
        assert statement.trace_id == sessions[0].trace_id
        assert statement.parent_id == sessions[0].span_id

    def test_copy_chunk_spans(self, traced_db, traced_conn):
        traced_conn.execute("CREATE TABLE cp (a INTEGER, b VARCHAR(10))")
        payload = "".join(f"{i},row{i}\n" for i in range(1000))
        traced_conn.execute(
            "COPY INTO cp FROM STDIN", copy_data=payload
        )
        spans = traced_db.span_tracer.events()
        chunks = [s for s in spans if s.kind == "chunk"]
        assert chunks, "COPY should record chunk spans"
        assert sum(s.attrs["rows"] for s in chunks) == 1000
        assert all(s.attrs["worker"] for s in chunks)
        execute = next(
            s for s in spans if s.name == "execute" and s.kind == "phase"
            and s.attrs.get("rows_out") == 1000
        )
        assert all(c.parent_id == execute.span_id for c in chunks)

    def test_plan_cache_hit_annotated(self, traced_db, traced_conn):
        traced_conn.execute("CREATE TABLE pc (v INTEGER)")
        traced_conn.execute("INSERT INTO pc VALUES (1), (2)")
        traced_conn.query("SELECT v FROM pc WHERE v > 0")
        traced_conn.query("SELECT v FROM pc WHERE v > 0")
        roots = [
            s for s in traced_db.span_tracer.events()
            if s.kind == "statement" and s.attrs.get("cache")
        ]
        assert roots[-1].attrs["cache"] in ("plan", "result")


class TestSampling:
    def test_zero_sample_rate_keeps_nothing(self):
        database = Database(None, trace_spans=True, span_sample_rate=0.0)
        try:
            conn = database.connect()
            conn.execute("CREATE TABLE z (v INTEGER)")
            conn.query("SELECT count(*) FROM z")
            assert database.span_tracer.events() == []
            conn.close()
        finally:
            database.shutdown()

    def test_slow_statements_kept_despite_sampling(self):
        database = Database(
            None, trace_spans=True, span_sample_rate=0.0, span_slow_us=0.0
        )
        try:
            conn = database.connect()
            conn.execute("CREATE TABLE sl (v INTEGER)")
            conn.query("SELECT count(*) FROM sl")
            spans = database.span_tracer.events()
            roots = [s for s in spans if s.kind == "statement"]
            assert roots and all(s.attrs.get("slow") for s in roots)
            # unsampled statements keep the shell only, no instructions
            assert not [s for s in spans if s.kind == "instruction"]
            conn.close()
        finally:
            database.shutdown()

    def test_ring_buffer_bounds_retention(self):
        database = Database(None, trace_spans=True, span_buffer_size=16)
        try:
            conn = database.connect()
            conn.execute("CREATE TABLE rb (v INTEGER)")
            for _ in range(20):
                conn.query("SELECT count(*) FROM rb")
            assert len(database.span_tracer.events()) == 16
            count = conn.query(
                "SELECT count(*) FROM sys.trace_events"
            ).scalar()
            assert count <= 16
            conn.close()
        finally:
            database.shutdown()


class TestSysViews:
    def test_trace_events_schema(self, conn):
        result = conn.query("SELECT * FROM sys.trace_events")
        assert result.names == [
            "trace_id", "span_id", "parent_id", "session", "kind", "name",
            "started", "duration_us", "rows_in", "rows_out", "bytes",
            "rss_delta", "tactic", "status",
        ]

    def test_active_queries_schema(self, conn):
        result = conn.query("SELECT * FROM sys.active_queries")
        assert result.names == [
            "session", "trace_id", "sql", "phase", "started", "elapsed_us",
            "rows_processed", "rows_estimated", "progress",
        ]

    def test_disabled_tracing_keeps_views_empty(self, conn):
        conn.execute("CREATE TABLE off (v INTEGER)")
        conn.execute("INSERT INTO off VALUES (1)")
        conn.query("SELECT v FROM off")
        assert conn.query(
            "SELECT count(*) FROM sys.trace_events"
        ).scalar() == 0

    def test_trace_events_rows_queryable(self, traced_conn):
        traced_conn.execute("CREATE TABLE q (v INTEGER)")
        traced_conn.execute("INSERT INTO q VALUES (1), (2)")
        traced_conn.query("SELECT v FROM q ORDER BY v")
        rows = traced_conn.query(
            "SELECT kind, name, duration_us, status FROM sys.trace_events"
            " WHERE kind = 'instruction'"
        ).fetchall()
        assert rows
        assert all(status == "ok" for (_, _, _, status) in rows)
        assert all(duration >= 0 for (_, _, duration, _) in rows)

    def test_progress_is_monotonic(self, traced_db, traced_conn):
        """Deterministic live-progress check through the tracer API: an
        in-flight handle's progress must track rows processed against the
        optimizer estimate, clamped to 1.0 and never decreasing."""
        tracer = traced_db.span_tracer
        handle = tracer.statement(session=99, sql="SELECT synthetic")
        handle.rows_estimate = 100
        seen = []
        for step in (10, 40, 30, 40):  # 10, 50, 80, 120 rows processed
            handle.add_rows(step)
            rows = traced_conn.query(
                "SELECT rows_processed, progress FROM sys.active_queries"
                " WHERE session = 99"
            ).fetchall()
            assert len(rows) == 1
            seen.append(rows[0])
        handle.finish("ok")
        processed = [rows for rows, _ in seen]
        progress = [p for _, p in seen]
        assert processed == [10, 50, 80, 120]
        assert progress == pytest.approx([0.1, 0.5, 0.8, 1.0])
        assert all(a <= b for a, b in zip(progress, progress[1:]))
        # finished statements leave the live view
        assert traced_conn.query(
            "SELECT count(*) FROM sys.active_queries WHERE session = 99"
        ).scalar() == 0


class TestExplainAnalyze:
    def test_renders_span_tree(self, traced_conn):
        traced_conn.execute("CREATE TABLE ea (v INTEGER)")
        traced_conn.execute("INSERT INTO ea VALUES (1), (2), (3)")
        result = traced_conn.query(
            "EXPLAIN ANALYZE SELECT v FROM ea WHERE v >= 2"
        )
        text = "\n".join(v for (v,) in result.fetchall())
        for token in ("statement", "parse", "bind", "optimize", "compile",
                      "execute", "time_us", "self_us", "2 result rows"):
            assert token in text, f"missing {token!r} in:\n{text}"

    def test_works_with_tracing_disabled(self, conn, db):
        """EXPLAIN ANALYZE forces deep spans even when trace_spans=False,
        but retains nothing in the ring buffer."""
        conn.execute("CREATE TABLE ea_off (v INTEGER)")
        conn.execute("INSERT INTO ea_off VALUES (7)")
        result = conn.query("EXPLAIN ANALYZE SELECT v FROM ea_off")
        text = "\n".join(v for (v,) in result.fetchall())
        assert "time_us" in text and "1 result rows" in text
        assert db.span_tracer.events() == []


class TestExports:
    def _traced_database(self):
        database = Database(None, trace_spans=True)
        conn = database.connect()
        conn.execute("CREATE TABLE ex (v INTEGER)")
        conn.execute("INSERT INTO ex VALUES (1), (2)")
        conn.query("SELECT sum(v) FROM ex")
        conn.close()
        return database

    def test_chrome_export_shape(self):
        database = self._traced_database()
        try:
            document = database.export_trace(fmt="chrome")
        finally:
            database.shutdown()
        json.loads(json.dumps(document))  # serializable end to end
        events = document["traceEvents"]
        assert events and document["displayTimeUnit"] == "ms"
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"name", "cat", "pid", "tid", "args"} <= set(event)
        cats = {e["cat"] for e in events}
        assert {"statement", "phase", "instruction"} <= cats

    def test_otlp_export_shape(self):
        database = self._traced_database()
        try:
            document = database.export_trace(fmt="otlp")
        finally:
            database.shutdown()
        scope = document["resourceSpans"][0]["scopeSpans"][0]
        spans = scope["spans"]
        assert spans
        for span in spans:
            assert len(span["traceId"]) == 32
            assert len(span["spanId"]) == 16
            # OTLP carries nanosecond timestamps as strings
            assert int(span["endTimeUnixNano"]) >= int(
                span["startTimeUnixNano"]
            )

    def test_export_writes_file(self, tmp_path):
        database = self._traced_database()
        out = tmp_path / "trace.json"
        try:
            database.export_trace(fmt="chrome", path=str(out))
        finally:
            database.shutdown()
        assert json.loads(out.read_text())["traceEvents"]

    def test_export_cli(self, tmp_path, capsys):
        from repro.obs.export import main

        out = tmp_path / "cli-trace.json"
        code = main([
            "--sql", "SELECT v FROM cli_t ORDER BY v",
            "--setup", "CREATE TABLE cli_t (v INTEGER);"
                       " INSERT INTO cli_t VALUES (3), (1), (2)",
            "--format", "otlp",
            "--out", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["resourceSpans"][0]["scopeSpans"][0]["spans"]

    def test_unknown_format_rejected(self):
        from repro.obs.export import export_spans

        with pytest.raises(ValueError):
            export_spans([], fmt="jaeger")


class TestWirePropagation:
    def test_client_and_server_spans_merge(self, tmp_path):
        from repro.server import AsyncServer, RemoteConnection

        with AsyncServer(
            engine="columnar", protocol="pg",
            directory=str(tmp_path / "srv"),
        ) as server:
            client = RemoteConnection("127.0.0.1", server.port, "pg")
            client.execute("CREATE TABLE wt (v INTEGER)")
            client.execute("INSERT INTO wt VALUES (1), (2), (3)")
            result, spans = client.trace_query(
                "SELECT v FROM wt WHERE v >= 2 ORDER BY v"
            )
            client.close()
        assert [row[0] for row in result.fetchall()] == [2, 3]
        assert len({s["trace_id"] for s in spans}) == 1
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], span)
        assert {"client.query", "server.query", "statement",
                "serialize"} <= set(by_name)
        # server.query nests under the client root; statement under it
        assert by_name["server.query"]["parent_id"] == \
            by_name["client.query"]["span_id"]
        assert by_name["statement"]["parent_id"] == \
            by_name["server.query"]["span_id"]
        rendered = render_tree(spans)
        assert rendered.splitlines()[0].startswith("client.query")

    def test_trace_context_clears(self, tmp_path):
        from repro.server import AsyncServer, RemoteConnection

        with AsyncServer(
            engine="columnar", protocol="pg",
            directory=str(tmp_path / "srv2"),
        ) as server:
            client = RemoteConnection("127.0.0.1", server.port, "pg")
            client.execute("CREATE TABLE cc (v INTEGER)")
            _, spans = client.trace_query("SELECT count(*) FROM cc")
            trace_id = spans[0]["trace_id"]
            # after the context is cleared, new statements must not
            # attach to the old trace
            client.query("SELECT count(*) FROM cc")
            after = client.fetch_trace(trace_id)
            assert len(after) == len(spans) - 1  # client root is local
            client.close()

    def test_malformed_traceparent_is_an_error(self, tmp_path):
        from repro.errors import DatabaseError
        from repro.server import AsyncServer, RemoteConnection

        with AsyncServer(
            engine="columnar", protocol="pg",
            directory=str(tmp_path / "srv3"),
        ) as server:
            client = RemoteConnection("127.0.0.1", server.port, "pg")
            with pytest.raises(DatabaseError):
                client.set_trace_context("not-a-traceparent")
            # the connection survives and keeps working
            client.execute("CREATE TABLE mf (v INTEGER)")
            assert client.query(
                "SELECT count(*) FROM mf"
            ).scalar() == 0
            client.close()


class TestOverhead:
    def _timed(self, connection, sql, runs=30):
        import time as _time

        connection.query(sql)  # warm
        best = float("inf")
        for _ in range(runs):
            start = _time.perf_counter()
            connection.query(sql)
            best = min(best, _time.perf_counter() - start)
        return best

    def test_disabled_tracing_near_zero_cost(self):
        """Q1-style aggregate: tracing off must stay within noise of a
        fresh untouched database (generous 1.5x bound; the CI benchmark
        gate enforces the tight 10% contract at SF 0.1)."""
        sql = (
            "SELECT g, count(*), sum(v), avg(v) FROM ov"
            " GROUP BY g ORDER BY g"
        )
        times = {}
        for label, kwargs in (
            ("off", {"trace_spans": False}),
            ("on", {"trace_spans": True}),
        ):
            database = Database(None, result_cache=False, **kwargs)
            try:
                conn = database.connect()
                conn.execute("CREATE TABLE ov (g INTEGER, v INTEGER)")
                conn.execute(
                    "INSERT INTO ov VALUES " + ", ".join(
                        f"({i % 7}, {i})" for i in range(5000)
                    )
                )
                times[label] = self._timed(conn, sql)
                if label == "off":
                    assert database.span_tracer.events() == []
                conn.close()
            finally:
                database.shutdown()
        assert times["on"] <= times["off"] * 1.5 + 1e-3


class TestQueryLogConcurrency:
    def test_threaded_record_is_gap_free(self):
        from repro.obs.querylog import QueryLog

        log = QueryLog(size=100_000, slow_query_us=50.0)
        threads, per_thread = 8, 500

        def worker(tid):
            for i in range(per_thread):
                log.record(
                    session=tid, sql=f"SELECT {i}", status="ok",
                    error=None, rows=i, started=0.0,
                    total_us=float(i % 100),
                )

        workers = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(threads)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        entries = log.entries()
        assert len(entries) == threads * per_thread
        qids = [e.qid for e in entries]
        # qids are assigned under the ring lock: gap-free and ordered
        assert qids == list(range(1, threads * per_thread + 1))
        assert all(
            e.is_slow == (e.total_us >= 50.0) for e in entries
        )
        assert all(e.is_slow for e in log.slow_entries())
