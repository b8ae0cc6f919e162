"""Tests for the socket substrate: protocol codec, servers, DBI client."""

import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DatabaseError
from repro.server import PROTOCOLS, AsyncServer, RemoteConnection
from repro.server.protocol import (
    decode_rows,
    encode_rows,
    format_field,
    parse_field,
    sql_literal,
)


class TestFieldCodec:
    @pytest.mark.parametrize(
        "value,text",
        [
            (None, "\\N"),
            (1, "1"),
            (2.5, "2.5"),
            ("plain", "plain"),
            (True, "t"),
            (datetime.date(2020, 1, 2), "2020-01-02"),
        ],
    )
    def test_format(self, value, text):
        assert format_field(value) == text

    def test_escaping_round_trip(self):
        nasty = "tab\there\nnewline\\backslash"
        assert parse_field(format_field(nasty)) == nasty

    def test_null_round_trip(self):
        assert parse_field(format_field(None)) is None

    def test_escaped_backslash_before_t_is_not_a_tab(self):
        # regression: chained str.replace decoded "\\" then re-scanned the
        # output, turning backslash+'t' payloads into tab characters
        assert parse_field("\\\\t") == "\\t"
        assert parse_field("\\\\n") == "\\n"
        assert parse_field("\\\\\\\\") == "\\\\"

    @pytest.mark.parametrize(
        "nasty",
        [
            "\\t",          # literal backslash then 't'
            "\\n",          # literal backslash then 'n'
            "\\N",          # literal backslash then 'N' (not NULL!)
            "a\\\tb",       # backslash adjacent to a real tab
            "\\\\",         # two literal backslashes
            "ends with \\", # trailing backslash
            "\t\n\\",       # all specials at once
        ],
    )
    def test_nasty_values_round_trip(self, nasty):
        assert parse_field(format_field(nasty)) == nasty

    @given(st.text(alphabet=st.sampled_from(["\\", "\t", "\n", "t", "n", "N", "a"]),
                   max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_field_round_trip_property(self, text):
        assert parse_field(format_field(text)) == text

    @given(st.lists(
        st.tuples(
            st.one_of(st.none(),
                      st.text(alphabet=st.sampled_from(
                          ["\\", "\t", "\n", "t", "n", "N", "x"]), max_size=8)),
            st.text(max_size=8).filter(lambda s: "\x00" not in s),
        ),
        min_size=1, max_size=5,
    ))
    @settings(max_examples=50, deadline=None)
    def test_rows_round_trip_property(self, rows):
        for name in ("pg", "mysql", "monetdb"):
            config = PROTOCOLS[name]
            assert decode_rows(encode_rows(rows, config), config) == rows

    @pytest.mark.parametrize("name", ["pg", "mysql", "monetdb"])
    def test_rows_round_trip(self, name):
        config = PROTOCOLS[name]
        rows = [("a", "1", None), ("with\ttab", "2.5", "x")]
        decoded = decode_rows(encode_rows(rows, config), config)
        assert decoded == rows

    def test_sql_literal(self):
        assert sql_literal(None) == "NULL"
        assert sql_literal(5) == "5"
        assert sql_literal("it's") == "'it''s'"
        assert sql_literal(datetime.date(2020, 1, 1)) == "DATE '2020-01-01'"
        assert sql_literal(True) == "TRUE"


@pytest.fixture(scope="module", params=["columnar", "rowstore"])
def remote(request, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp(f"server-{request.param}"))
    server = AsyncServer(
        engine=request.param, protocol="pg", directory=directory
    ).start()
    client = RemoteConnection("127.0.0.1", server.port, "pg")
    yield client
    client.close()
    server.stop()


class TestRemoteExecution:
    def test_ddl_dml_query(self, remote):
        remote.execute("DROP TABLE IF EXISTS t")
        remote.execute("CREATE TABLE t (a INTEGER, b VARCHAR(10), c DOUBLE)")
        remote.execute("INSERT INTO t VALUES (1, 'x', 0.5), (2, NULL, NULL)")
        rows = remote.query("SELECT a, b, c FROM t ORDER BY a").fetchall()
        assert rows == [(1, "x", 0.5), (2, None, None)]

    def test_typed_results(self, remote):
        remote.execute("DROP TABLE IF EXISTS typed")
        remote.execute(
            "CREATE TABLE typed (i INTEGER, d DECIMAL(10,2), dt DATE)"
        )
        remote.execute(
            "INSERT INTO typed VALUES (7, 1.25, DATE '1999-12-31')"
        )
        row = remote.query("SELECT * FROM typed").fetchall()[0]
        assert row == (7, 1.25, datetime.date(1999, 12, 31))

    def test_error_travels_the_wire(self, remote):
        with pytest.raises(DatabaseError, match="server error"):
            remote.query("SELECT * FROM missing_table")
        # the connection is still usable afterwards
        assert remote.query("SELECT 1").fetchall() == [(1,)]

    def test_db_write_and_read_table(self, remote):
        remote.execute("DROP TABLE IF EXISTS wt")
        data = {
            "a": np.arange(5, dtype=np.int32),
            "d": np.full(5, 10, dtype=np.int32),  # epoch days
            "s": np.array([f"v{i}" for i in range(5)], dtype=object),
        }
        n = remote.db_write_table(
            "wt",
            data,
            ["INTEGER", "DATE", "VARCHAR(5)"],
            create_sql="CREATE TABLE wt (a INTEGER, d DATE, s VARCHAR(5))",
        )
        assert n == 5
        columns = remote.db_read_table("wt")
        assert columns["a"].tolist() == [0, 1, 2, 3, 4]
        assert columns["d"].dtype == np.dtype("datetime64[D]")
        assert columns["s"][2] == "v2"

    def test_multi_row_insert_override(self, remote):
        remote.execute("DROP TABLE IF EXISTS mr")
        data = {"a": np.arange(50, dtype=np.int32)}
        remote.db_write_table(
            "mr",
            data,
            ["INTEGER"],
            create_sql="CREATE TABLE mr (a INTEGER)",
            rows_per_insert=20,
        )
        assert remote.query("SELECT count(*) FROM mr").scalar() == 50


class TestProtocols:
    def test_block_protocol_batches(self, tmp_path):
        with AsyncServer(
            engine="columnar", protocol="monetdb",
            directory=str(tmp_path / "s"),
        ) as server:
            client = RemoteConnection("127.0.0.1", server.port, "monetdb")
            client.execute("CREATE TABLE b (v INTEGER)")
            client.db_write_table(
                "b", {"v": np.arange(500, dtype=np.int32)}, ["INTEGER"],
                rows_per_insert=100,
            )
            rows = client.query("SELECT v FROM b ORDER BY v").fetchall()
            assert len(rows) == 500 and rows[0] == (0,)
            client.close()

    def test_mysql_length_prefixed(self, tmp_path):
        with AsyncServer(
            engine="rowstore", protocol="mysql",
            directory=str(tmp_path / "s"),
        ) as server:
            client = RemoteConnection("127.0.0.1", server.port, "mysql")
            client.execute("CREATE TABLE p (s VARCHAR(20))")
            client.execute("INSERT INTO p VALUES ('tab\there')")
            assert client.query("SELECT s FROM p").fetchall() == [("tab\there",)]
            client.close()

    def test_multiple_clients_isolated_results(self, tmp_path):
        with AsyncServer(
            engine="columnar", protocol="pg", directory=str(tmp_path / "s")
        ) as server:
            first = RemoteConnection("127.0.0.1", server.port, "pg")
            second = RemoteConnection("127.0.0.1", server.port, "pg")
            first.execute("CREATE TABLE shared (v INTEGER)")
            first.execute("INSERT INTO shared VALUES (1)")
            assert second.query("SELECT count(*) FROM shared").scalar() == 1
            first.close()
            second.close()
