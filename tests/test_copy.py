"""Tests for repro.copy: COPY INTO/FROM, COPY TO, CREATE TABLE FROM.

Covers the SQL surface (delimiters, NULL AS, BEST EFFORT, n RECORDS /
OFFSET, HEADER), the chunked parallel loader (chunk boundaries inside
quoted fields, multi-chunk files, serial vs parallel equivalence), the
transactional semantics (strict COPY is atomic; BEST EFFORT diverts to
sys.rejects), the observability surface (sys.copy_history, metrics
counters), schema inference, and the wire-protocol streaming path.
"""

import io
import os

import numpy as np
import pytest

from repro.copy import CopyOptions, export_csv, infer_schema, load_into
from repro.copy.reader import iter_chunks, parse_chunk
from repro.core.database import Database
from repro.errors import CopyError, DatabaseError, ParseError
from repro.sql import ast
from repro.sql.parser import parse_one


# -- parser surface --------------------------------------------------------------------


class TestCopyParsing:
    def test_copy_into_defaults(self):
        stmt = parse_one("COPY INTO t FROM 'data.csv'")
        assert isinstance(stmt, ast.CopyFromStmt)
        assert stmt.table == "t"
        assert stmt.path == "data.csv"
        assert stmt.delimiter == "," and stmt.record_sep == "\n"
        assert not stmt.best_effort and stmt.limit is None

    def test_copy_into_full_options(self):
        stmt = parse_one(
            "COPY 100 RECORDS OFFSET 5 INTO t (a, b) FROM 'x.csv' "
            "DELIMITERS '|', '\\n', '\"' NULL AS 'NA' BEST EFFORT HEADER"
        )
        assert stmt.limit == 100 and stmt.offset == 5
        assert stmt.columns == ("a", "b")
        assert stmt.delimiter == "|" and stmt.null_string == "NA"
        assert stmt.best_effort and stmt.header

    def test_copy_from_stdin(self):
        stmt = parse_one("COPY INTO t FROM STDIN")
        assert stmt.path is None

    def test_copy_to_table_and_query(self):
        stmt = parse_one("COPY t TO 'out.csv' HEADER")
        assert isinstance(stmt, ast.CopyToStmt)
        assert stmt.table == "t" and stmt.header
        stmt = parse_one("COPY (SELECT a FROM t WHERE a > 1) TO STDOUT")
        assert stmt.select is not None and stmt.path is None

    def test_create_table_from(self):
        stmt = parse_one("CREATE TABLE t FROM 'x.csv'")
        assert isinstance(stmt, ast.CreateTableFrom)
        assert stmt.header is None  # auto-detect

    def test_records_prefix_requires_copy_into(self):
        with pytest.raises(ParseError):
            parse_one("COPY 5 RECORDS t TO 'x.csv'")

    def test_best_effort_rejected_on_export(self):
        with pytest.raises(ParseError):
            parse_one("COPY t TO 'x.csv' BEST EFFORT")

    def test_copy_still_valid_as_identifier(self):
        stmt = parse_one("CREATE TABLE copy (id INTEGER)")
        assert stmt.name == "copy"
        parse_one("SELECT best, effort FROM copy")


# -- chunking --------------------------------------------------------------------------


class TestChunking:
    def test_chunks_cut_at_record_boundaries(self):
        data = b"".join(b"%d,row\n" % i for i in range(1000))
        chunks = list(iter_chunks(io.BytesIO(data), CopyOptions(), 256))
        assert sum(c[1] for c in chunks) == 1000
        assert sum(c[2] for c in chunks) == len(data)
        for text, _, _ in chunks:
            assert text.endswith("\n")

    def test_quoted_newline_never_splits(self):
        record = b'1,"line\nbreak"\n'
        data = record * 200
        for size in (16, 64, 257):
            chunks = list(iter_chunks(io.BytesIO(data), CopyOptions(), size))
            assert sum(c[1] for c in chunks) == 200
            for text, _, _ in chunks:
                assert text.count('"') % 2 == 0

    def test_no_trailing_newline(self):
        chunks = list(
            iter_chunks(io.BytesIO(b"1,a\n2,b"), CopyOptions(), 1024)
        )
        assert sum(c[1] for c in chunks) == 2


# -- loading ---------------------------------------------------------------------------


class TestCopyFrom:
    def test_basic_load(self, conn, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,alpha\n2,beta\n3,gamma\n")
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        result = conn.execute(f"COPY INTO t FROM '{path}'")
        assert result.fetchall() == [(3,)]
        assert conn.execute("SELECT * FROM t ORDER BY a").fetchall() == [
            (1, "alpha"), (2, "beta"), (3, "gamma"),
        ]

    def test_multi_chunk_parallel_equals_serial(self, tmp_path):
        path = tmp_path / "big.csv"
        with open(path, "w") as f:
            for i in range(5000):
                f.write(f"{i},name-{i},{i * 0.5}\n")
        expected = [(i, f"name-{i}", i * 0.5) for i in range(5000)]
        for workers in (1, 4):
            database = Database(None, max_workers=workers,
                                copy_chunk_bytes=4096)
            try:
                c = database.connect()
                c.execute("CREATE TABLE t (a INTEGER, b VARCHAR, c DOUBLE)")
                c.execute(f"COPY INTO t FROM '{path}'")
                rows = c.execute("SELECT * FROM t ORDER BY a").fetchall()
                assert rows == expected
            finally:
                database.shutdown()

    def test_typed_columns_and_nulls(self, conn, tmp_path):
        path = tmp_path / "typed.csv"
        path.write_text(
            "1,1.5,12.34,1994-01-01,12:30:00,1994-01-01T12:30:00,true\n"
            ",,,,,,\n"
        )
        conn.execute(
            "CREATE TABLE t (i INTEGER, f DOUBLE, d DECIMAL(10,2), "
            "dt DATE, tm TIME, ts TIMESTAMP, b BOOLEAN)"
        )
        conn.execute(f"COPY INTO t FROM '{path}'")
        rows = conn.execute("SELECT * FROM t").fetchall()
        assert rows[0][0] == 1 and rows[0][2] == pytest.approx(12.34)
        assert all(v is None for v in rows[1])

    def test_quoted_empty_is_empty_string_unquoted_is_null(self, conn, tmp_path):
        path = tmp_path / "null.csv"
        path.write_text('1,""\n2,\n')
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        conn.execute(f"COPY INTO t FROM '{path}'")
        rows = conn.execute("SELECT * FROM t ORDER BY a").fetchall()
        assert rows == [(1, ""), (2, None)]

    def test_custom_delimiters_and_null_string(self, conn, tmp_path):
        path = tmp_path / "pipe.csv"
        path.write_text("1|x\nNA|y\n")
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        conn.execute(
            f"COPY INTO t FROM '{path}' DELIMITERS '|' NULL AS 'NA'"
        )
        rows = conn.execute("SELECT * FROM t").fetchall()
        assert rows == [(1, "x"), (None, "y")]

    def test_limit_offset_header(self, conn, tmp_path):
        path = tmp_path / "win.csv"
        path.write_text("a,b\n1,x\n2,y\n3,z\n4,w\n")
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        conn.execute(
            f"COPY 2 RECORDS OFFSET 1 INTO t FROM '{path}' HEADER"
        )
        assert conn.execute("SELECT a FROM t ORDER BY a").fetchall() == [
            (2,), (3,),
        ]

    def test_column_subset_fills_nulls(self, conn, tmp_path):
        path = tmp_path / "sub.csv"
        path.write_text("1\n2\n")
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        conn.execute(f"COPY INTO t (a) FROM '{path}'")
        assert conn.execute("SELECT * FROM t ORDER BY a").fetchall() == [
            (1, None), (2, None),
        ]

    def test_not_null_unmentioned_column_fails_fast(self, conn, tmp_path):
        path = tmp_path / "nn.csv"
        path.write_text("1\n")
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR NOT NULL)")
        with pytest.raises(CopyError):
            conn.execute(f"COPY INTO t (a) FROM '{path}'")

    def test_strict_copy_is_atomic(self, conn, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n2,y\nnope,z\n")
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        with pytest.raises(DatabaseError):
            conn.execute(f"COPY INTO t FROM '{path}'")
        assert conn.execute("SELECT count(*) FROM t").fetchall() == [(0,)]

    def test_copy_from_stdin_via_copy_data(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        result = conn.execute(
            "COPY INTO t FROM STDIN", copy_data=b"7\n8\n9\n"
        )
        assert result.fetchall() == [(3,)]

    def test_missing_file_errors(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CopyError):
            conn.execute("COPY INTO t FROM '/nonexistent/x.csv'")

    def test_embedded_quotes_delims_and_newlines(self, conn, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('1,"a,b"\n2,"say ""hi"""\n3,"two\nlines"\n')
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        conn.execute(f"COPY INTO t FROM '{path}'")
        rows = conn.execute("SELECT * FROM t ORDER BY a").fetchall()
        assert rows == [(1, "a,b"), (2, 'say "hi"'), (3, "two\nlines")]


class TestBestEffort:
    def test_rejects_divert_and_load_continues(self, conn, tmp_path):
        path = tmp_path / "be.csv"
        path.write_text("1,x\nbad,y\n3,z\nalso-bad,w\n5,v\n")
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        result = conn.execute(f"COPY INTO t FROM '{path}' BEST EFFORT")
        assert result.fetchall() == [(3,)]
        rejects = conn.execute(
            "SELECT record, column_name FROM sys.rejects ORDER BY record"
        ).fetchall()
        assert rejects == [(2, "a"), (4, "a")]

    def test_reject_records_are_absolute_across_chunks(self, tmp_path):
        path = tmp_path / "abs.csv"
        with open(path, "w") as f:
            for i in range(1, 1001):
                f.write("oops,x\n" if i == 997 else f"{i},x\n")
        database = Database(None, copy_chunk_bytes=512)
        try:
            c = database.connect()
            c.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
            c.execute(f"COPY INTO t FROM '{path}' BEST EFFORT")
            rejects = c.execute("SELECT record FROM sys.rejects").fetchall()
            assert rejects == [(997,)]
        finally:
            database.shutdown()

    def test_arity_mismatch_rejected(self, conn, tmp_path):
        path = tmp_path / "ar.csv"
        path.write_text("1,x\n2\n3,y,zzz\n4,w\n")
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        result = conn.execute(f"COPY INTO t FROM '{path}' BEST EFFORT")
        assert result.fetchall() == [(2,)]
        assert conn.execute(
            "SELECT count(*) FROM sys.rejects"
        ).fetchall() == [(2,)]


# -- export ----------------------------------------------------------------------------


class TestCopyTo:
    def test_export_to_stdout(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        conn.execute("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
        result = conn.execute("COPY t TO STDOUT")
        assert result.copy_text == "1,x\n2,\n"
        assert result.fetchall() == [(2,)]

    def test_export_query_to_file(self, conn, tmp_path):
        out = tmp_path / "out.csv"
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("INSERT INTO t VALUES (1), (2), (3)")
        conn.execute(f"COPY (SELECT a FROM t WHERE a > 1) TO '{out}'")
        assert out.read_text() == "2\n3\n"

    def test_header_and_custom_delimiter(self, conn, tmp_path):
        out = tmp_path / "h.csv"
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        conn.execute("INSERT INTO t VALUES (1, 'x')")
        conn.execute(f"COPY t TO '{out}' DELIMITERS '|' HEADER")
        assert out.read_text() == "a|b\n1|x\n"

    def test_empty_string_quoted_null_bare(self, conn):
        conn.execute("CREATE TABLE t (a VARCHAR)")
        conn.execute("INSERT INTO t VALUES (''), (NULL)")
        result = conn.execute("COPY t TO STDOUT")
        assert result.copy_text == '""\n\n'

    def test_special_characters_round_trip(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        conn.execute(
            "INSERT INTO t VALUES (1, 'a,b'), (2, 'q\"q'), (3, 'nl\nnl')"
        )
        text = conn.execute("COPY t TO STDOUT").copy_text
        conn.execute("CREATE TABLE t2 (a INTEGER, b VARCHAR)")
        conn.execute("COPY INTO t2 FROM STDIN", copy_data=text)
        assert (
            conn.execute("SELECT * FROM t2 ORDER BY a").fetchall()
            == conn.execute("SELECT * FROM t ORDER BY a").fetchall()
        )

    def test_decimal_exact_text(self, conn):
        conn.execute("CREATE TABLE t (d DECIMAL(10,2))")
        conn.execute("INSERT INTO t VALUES (1.5), (-0.05), (1234.00)")
        text = conn.execute("COPY t TO STDOUT").copy_text
        assert text == "1.50\n-0.05\n1234.00\n"


# -- schema inference ------------------------------------------------------------------


class TestCreateTableFrom:
    def test_infer_with_header(self, conn, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,name,price\n1,ab,1.5\n2,cd,2.5\n")
        conn.execute(f"CREATE TABLE t FROM '{path}'")
        rows = conn.execute("SELECT id, name, price FROM t").fetchall()
        assert rows == [(1, "ab", 1.5), (2, "cd", 2.5)]

    def test_infer_without_header(self, conn, tmp_path):
        path = tmp_path / "nh.csv"
        path.write_text("1,x\n2,y\n")
        conn.execute(f"CREATE TABLE t FROM '{path}'")
        assert conn.execute("SELECT col0, col1 FROM t").fetchall() == [
            (1, "x"), (2, "y"),
        ]

    def test_infer_types(self):
        sample = (
            b"i,big,f,d,ts,b,s\n"
            b"1,90000000000,1.5,1994-01-01,1994-01-01T10:00:00,true,xy\n"
            b"2,90000000001,2.5,1994-06-01,1994-06-01T11:00:00,false,zw\n"
        )
        schema, header = infer_schema("t", sample, CopyOptions(header=None))
        assert header
        assert [c.type.name for c in schema.columns] == [
            "INTEGER", "BIGINT", "DOUBLE", "DATE", "TIMESTAMP", "BOOLEAN",
            "VARCHAR",
        ]

    def test_header_names_sanitized_and_deduped(self):
        sample = b"A Col,a col,2nd\n1,2,3\n"
        schema, _ = infer_schema("t", sample, CopyOptions(header=True))
        assert [c.name for c in schema.columns] == [
            "a_col", "a_col_2", "c_2nd",
        ]

    def test_empty_file_errors(self):
        with pytest.raises(CopyError):
            infer_schema("t", b"", CopyOptions())


# -- observability ---------------------------------------------------------------------


class TestCopyObservability:
    def test_copy_history_records_loads_and_exports(self, conn, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1\n2\n")
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute(f"COPY INTO t FROM '{path}'")
        conn.execute("COPY t TO STDOUT")
        rows = conn.execute(
            "SELECT direction, table_name, rows, status FROM "
            "sys.copy_history ORDER BY id"
        ).fetchall()
        assert rows == [("in", "t", 2, "ok"), ("out", "t", 2, "ok")]

    def test_failed_copy_recorded_as_error(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(DatabaseError):
            conn.execute("COPY INTO t FROM '/nonexistent/y.csv'")
        rows = conn.execute(
            "SELECT status FROM sys.copy_history"
        ).fetchall()
        assert rows == [("error",)]

    def test_metrics_counters(self, db, tmp_path):
        conn = db.connect()
        path = tmp_path / "m.csv"
        path.write_text("1,x\nbad,y\n3,z\n")
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        conn.execute(f"COPY INTO t FROM '{path}' BEST EFFORT")
        conn.execute("COPY t TO STDOUT")
        stats = db.stats()
        assert stats["copy_rows_loaded"] == 2
        assert stats["copy_rows_rejected"] == 1
        assert stats["copy_bytes_read"] == os.path.getsize(path)
        assert stats["copy_bytes_written"] > 0

    def test_copy_timing_lands_in_sys_queries(self, conn, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("1\n")
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute(f"COPY INTO t FROM '{path}'")
        rows = conn.execute(
            "SELECT sql, execute_us FROM sys.queries WHERE sql LIKE "
            "'COPY INTO%'"
        ).fetchall()
        assert len(rows) == 1 and rows[0][1] > 0


# -- wire protocol ---------------------------------------------------------------------


class TestCopyOverWire:
    def test_stream_in_and_out(self):
        from repro.server import AsyncServer, RemoteConnection

        with AsyncServer(engine="columnar") as server:
            with RemoteConnection("127.0.0.1", server.port) as remote:
                remote.execute("CREATE TABLE w (a INTEGER, b VARCHAR)")
                loaded = remote.copy_from(
                    "COPY INTO w FROM STDIN", "1,x\n2,y\n3,z\n"
                )
                assert loaded == 3
                text, nrows = remote.copy_to(
                    "COPY (SELECT * FROM w WHERE a > 1) TO STDOUT"
                )
                assert nrows == 2 and text == "2,y\n3,z\n"

    def test_error_over_wire_keeps_connection_usable(self):
        from repro.server import AsyncServer, RemoteConnection

        with AsyncServer(engine="columnar") as server:
            with RemoteConnection("127.0.0.1", server.port) as remote:
                remote.execute("CREATE TABLE w (a INTEGER)")
                with pytest.raises(DatabaseError):
                    remote.copy_from("COPY INTO w FROM STDIN", "zap\n")
                assert remote.query("SELECT count(*) FROM w").scalar() == 0

    def test_server_side_file_load(self, tmp_path):
        from repro.server import AsyncServer, RemoteConnection

        path = tmp_path / "srv.csv"
        path.write_text("5\n6\n")
        with AsyncServer(engine="columnar") as server:
            with RemoteConnection("127.0.0.1", server.port) as remote:
                remote.execute("CREATE TABLE w (a INTEGER)")
                remote.execute(f"COPY INTO w FROM '{path}'")
                assert remote.query("SELECT count(*) FROM w").scalar() == 2

    def test_copy_sniff_parses_only_stdin_payloads(self, monkeypatch):
        """The server checks every statement for COPY FROM STDIN on its
        event loop; only payloads naming ``stdin`` may reach the parser,
        so each ordinary statement is parsed once, by the engine."""
        import repro.sql.parser
        from repro.server import PROTOCOLS
        from repro.server.session import Session

        parsed = []
        real_parse = repro.sql.parser.parse

        def counting_parse(sql):
            parsed.append(sql)
            return real_parse(sql)

        monkeypatch.setattr(repro.sql.parser, "parse", counting_parse)
        session = Session(None, object(), PROTOCOLS["pg"])
        for payload in (
            b"SELECT 1",
            b"INSERT INTO t VALUES (1, 'x')",
            b"COPY INTO t FROM '/data/t.csv'",
            b"COPY (SELECT 1) TO STDOUT",
        ):
            assert session.needs_copy_data(payload) is False
        assert parsed == []
        assert session.needs_copy_data(b"copy into t from stdin") is True
        assert session.needs_copy_data(b"COPY INTO t FROM StdIn") is True
        # the sniff is a pre-filter, not a verdict: a string literal
        # naming stdin still goes through the parser and is rejected
        assert session.needs_copy_data(b"SELECT 'stdin'") is False
        assert len(parsed) == 3


# -- loader internals ------------------------------------------------------------------


class TestLoaderInternals:
    def test_load_into_api(self, db):
        conn = db.connect()
        conn.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        txn = db.txn_manager.begin()
        table = txn.resolve_table("t")
        result = load_into(
            db, txn, table, b"1,x\n2,y\n", CopyOptions()
        )
        db.txn_manager.commit(txn)
        assert result.rows_loaded == 2
        assert result.bytes_read == 8
        assert conn.execute("SELECT count(*) FROM t").fetchall() == [(2,)]

    def test_same_delimiters_rejected(self, db):
        conn = db.connect()
        conn.execute("CREATE TABLE t (a INTEGER)")
        txn = db.txn_manager.begin()
        table = txn.resolve_table("t")
        with pytest.raises(CopyError):
            load_into(db, txn, table, b"1\n", CopyOptions(delimiter="\n"))
        db.txn_manager.rollback(txn)

    def test_parse_chunk_take_window(self):
        from repro.storage.catalog import ColumnDef
        from repro.storage import types as T

        coldefs = (ColumnDef("a", T.INTEGER),)
        parsed, rejects, kept = parse_chunk(
            "1\n2\n3\n4\n", coldefs, CopyOptions(), skip=1, take=2,
            base_record=10,
        )
        assert kept == 2 and not rejects
        assert parsed[0][0].tolist() == [2, 3]

    def test_export_csv_returns_text_for_stdout(self):
        from repro.storage.column import Column
        from repro.storage import types as T

        col = Column(T.INTEGER, np.array([1, 2], dtype=np.int32))
        nrows, nbytes, text = export_csv(["a"], [col], CopyOptions(), None)
        assert (nrows, text) == (2, "1\n2\n")
        assert nbytes == len(text.encode())
