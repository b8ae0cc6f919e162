"""System adapters: one DBI-like surface over every benchmarked system.

The registry maps the paper's system names onto this repo's substrates:

=============  =====================================================
paper system   reproduction
=============  =====================================================
MonetDBLite    embedded columnar engine, in-process, zero-copy export
MonetDB        same columnar engine behind a TCP socket, block protocol
SQLite         embedded row store (B+tree + Volcano), in-process
PostgreSQL     row store behind a TCP socket, row-per-message protocol
MariaDB        row store behind a TCP socket, length-prefixed protocol
data.table     frames library, ``datatable`` profile (query bench only)
dplyr          frames library, ``dplyr`` profile
Pandas         frames library, ``pandas`` profile
Julia          frames library, ``julia`` profile
=============  =====================================================
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import DatabaseError

__all__ = ["SYSTEMS", "LIBRARIES", "make_adapter", "DatabaseAdapter"]


class DatabaseAdapter:
    """Common interface the experiment runners drive."""

    name = "abstract"
    is_embedded = True

    def setup(self, workdir: str | None = None) -> "DatabaseAdapter":
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def execute(self, sql: str):
        raise NotImplementedError

    def query_rows(self, sql: str) -> list:
        raise NotImplementedError

    def query_columns(self, sql: str) -> dict:
        raise NotImplementedError

    def db_write_table(self, table, data, type_names, create_sql=None) -> int:
        raise NotImplementedError

    def db_read_table(self, table: str) -> dict:
        raise NotImplementedError


class EmbeddedColumnarAdapter(DatabaseAdapter):
    """MonetDBLite: the embedded columnar engine, in-process."""

    name = "MonetDBLite"
    is_embedded = True

    def __init__(self, timeout: float | None = None, **config):
        self._timeout = timeout
        self._config = config
        self._database = None
        self._conn = None
        self._tmpdir = None

    def setup(self, workdir: str | None = None):
        from repro.core.database import Database

        if workdir is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-colstore-")
            workdir = self._tmpdir
        self._database = Database(
            f"{workdir}/columnar", timeout=self._timeout, **self._config
        )
        self._conn = self._database.connect()
        return self

    def teardown(self) -> None:
        if self._conn is not None:
            self._conn.close()
        if self._database is not None:
            self._database.shutdown()
        if self._tmpdir:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
        self._database = self._conn = self._tmpdir = None

    def execute(self, sql: str):
        return self._conn.execute(sql)

    def query_rows(self, sql: str) -> list:
        return self._conn.query(sql).fetchall()

    def query_columns(self, sql: str) -> dict:
        result = self._conn.query(sql)
        return {
            name: np.asarray(result.to_numpy(i))
            for i, name in enumerate(result.names)
        }

    def db_write_table(
        self, table, data, type_names, create_sql=None, rows_per_insert=None
    ) -> int:
        # rows_per_insert is a socket-only knob; the embedded bulk path
        # ships whole columns in one call regardless.
        if create_sql is not None:
            self._conn.execute(create_sql)
        return self._conn.append(table, data)

    def db_read_table(self, table: str) -> dict:
        result = self._conn.query(f"SELECT * FROM {table}")
        # zero-copy for bit-compatible columns, conversion otherwise
        return result.to_dict()


class EmbeddedRowstoreAdapter(DatabaseAdapter):
    """SQLite: the embedded row store, in-process."""

    name = "SQLite"
    is_embedded = True

    def __init__(self, timeout: float | None = None):
        self._timeout = timeout
        self._database = None
        self._conn = None
        self._tmpdir = None

    def setup(self, workdir: str | None = None):
        from repro.rowstore import RowDatabase

        if workdir is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-rowstore-")
            workdir = self._tmpdir
        self._database = RowDatabase(
            f"{workdir}/rowstore.db", timeout=self._timeout
        )
        self._conn = self._database.connect()
        return self

    def teardown(self) -> None:
        if self._conn is not None:
            self._conn.close()
        if self._database is not None:
            self._database.close()
        if self._tmpdir:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
        self._database = self._conn = self._tmpdir = None

    def execute(self, sql: str):
        return self._conn.execute(sql)

    def query_rows(self, sql: str) -> list:
        return self._conn.query(sql).fetchall()

    def query_columns(self, sql: str) -> dict:
        result = self._conn.query(sql)
        return {
            name: np.asarray(result.to_numpy(i))
            for i, name in enumerate(result.names)
        }

    def db_write_table(
        self, table, data, type_names, create_sql=None, rows_per_insert=None
    ) -> int:
        if create_sql is not None:
            self._conn.execute(create_sql)
        return self._conn.append(table, data)

    def db_read_table(self, table: str) -> dict:
        return self._conn.query(f"SELECT * FROM {table}").to_dict()


class SocketAdapter(DatabaseAdapter):
    """A server configuration: engine + wire protocol over TCP.

    Both modes run :class:`repro.server.AsyncServer`.  ``in_process=False``
    (the default for benchmarks) starts it as a separate Python process,
    as in the paper's client/server setups; ``in_process=True`` hosts it
    in this process (fast, used by tests).
    """

    is_embedded = False

    def __init__(
        self,
        name: str,
        engine: str,
        protocol: str,
        timeout: float | None = None,
        in_process: bool = False,
    ):
        self.name = name
        self._engine = engine
        self._protocol = protocol
        self._timeout = timeout
        self._in_process = in_process
        self._server = None
        self._process = None
        self._client = None
        self._tmpdir = None

    def setup(self, workdir: str | None = None):
        from repro.server import (
            AsyncServer,
            RemoteConnection,
            spawn_server_process,
        )

        if workdir is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-server-")
            workdir = self._tmpdir
        Path(workdir).mkdir(parents=True, exist_ok=True)
        if self._in_process:
            self._server = AsyncServer(
                engine=self._engine,
                protocol=self._protocol,
                directory=f"{workdir}/server",
                timeout=self._timeout,
            ).start()
            port = self._server.port
        else:
            self._process, port = spawn_server_process(
                engine=self._engine,
                protocol=self._protocol,
                directory=f"{workdir}/server",
                timeout=self._timeout,
            )
        self._client = RemoteConnection("127.0.0.1", port, self._protocol)
        return self

    def teardown(self) -> None:
        if self._client is not None:
            self._client.close()
        if self._server is not None:
            self._server.stop()
        if self._process is not None:
            self._process.terminate()
            self._process.wait(timeout=10)
        if self._tmpdir:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
        self._server = self._process = self._client = self._tmpdir = None

    def execute(self, sql: str):
        return self._client.execute(sql)

    def query_rows(self, sql: str) -> list:
        return self._client.query(sql).fetchall()

    def query_columns(self, sql: str) -> dict:
        return self._client.query(sql).to_columns()

    def db_write_table(
        self, table, data, type_names, create_sql=None, rows_per_insert=None
    ) -> int:
        return self._client.db_write_table(
            table, data, type_names, create_sql, rows_per_insert=rows_per_insert
        )

    def db_read_table(self, table: str) -> dict:
        return self._client.db_read_table(table)


#: factories for the five database systems of the paper.
SYSTEMS = {
    "MonetDBLite": lambda **kw: EmbeddedColumnarAdapter(
        timeout=kw.get("timeout")
    ),
    "MonetDB": lambda **kw: SocketAdapter(
        "MonetDB", "columnar", "monetdb",
        timeout=kw.get("timeout"), in_process=kw.get("in_process", False),
    ),
    "SQLite": lambda **kw: EmbeddedRowstoreAdapter(timeout=kw.get("timeout")),
    "PostgreSQL": lambda **kw: SocketAdapter(
        "PostgreSQL", "rowstore", "pg",
        timeout=kw.get("timeout"), in_process=kw.get("in_process", False),
    ),
    "MariaDB": lambda **kw: SocketAdapter(
        "MariaDB", "rowstore", "mysql",
        timeout=kw.get("timeout"), in_process=kw.get("in_process", False),
    ),
}

#: library profiles used only in the query-execution benchmark (Table 1).
LIBRARIES = {
    "data.table": "datatable",
    "dplyr": "dplyr",
    "Pandas": "pandas",
    "Julia": "julia",
}


def make_adapter(name: str, **kwargs) -> DatabaseAdapter:
    """Instantiate a system adapter by its paper name."""
    try:
        return SYSTEMS[name](**kwargs)
    except KeyError:
        raise DatabaseError(f"unknown system {name!r}") from None
