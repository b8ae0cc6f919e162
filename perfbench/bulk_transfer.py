"""bulk_transfer: data into and out of the engine (paper Fig 5 and Fig 6).

Four operations per round on TPC-H SF 0.1 ``lineitem`` data, with no joins
and almost no planning, so ``storage``, ``copy``, ``interface`` and
``server`` carry the time:

* ``append``: ``Connection.append`` of a lineitem slice into a persistent
  database (fsync on commit);
* ``copy``: ``COPY INTO`` from a CSV slice written during set-up, into the
  same persistent database;
* ``export_embedded``: ``SELECT *`` of the export table into NumPy arrays
  in process;
* ``export_wire``: the same read through an in-process ``AsyncServer``
  (one worker) with the binary columnar protocol.

The two load targets are dropped and recreated before each round, outside
the timed operations, so every round loads into empty tables and the
database's size, and with it the cost of the engine's size-triggered
checkpoints, stays bounded.
"""

from __future__ import annotations

import statistics

import numpy as np

from common import by_kind, dir_bytes, user_bytes
from repro.core.database import Database
from repro.server.aio import AsyncServer
from repro.server.client import RemoteConnection
from repro.workloads.tpch import TABLES, generate, schema_statements

SCALE_FACTOR = 0.1
APPEND_ROWS = 40_000
COPY_ROWS = 8_000
EXPORT_ROWS = 80_000
TARGETS = ("li_append", "li_copy")


class Workload:
    name = "bulk_transfer"
    setups = 9

    def __init__(self, seed: int, workdir):
        self.workdir = workdir
        self.lineitem = generate(SCALE_FACTOR, seed=seed)["lineitem"]
        self.total_rows = len(self.lineitem["l_orderkey"])
        self.source = {k: v[:EXPORT_ROWS] for k, v in self.lineitem.items()}
        self.row_bytes = user_bytes(self.source) / EXPORT_ROWS
        self.ddl = dict(zip(TABLES, schema_statements()))["lineitem"]
        self.bytes_written = 0
        self._setup_count = 0
        self._offset = 0
        self.db = self.server = self.remote = None

    # -- lifecycle ---------------------------------------------------------------

    def setup(self) -> None:
        self._setup_count += 1
        self.path = self.workdir / f"bulk{self._setup_count}"
        self.csv = self.workdir / f"slice{self._setup_count}.csv"
        self.db = Database(str(self.path))
        self.conn = self.db.connect()
        self.server = AsyncServer(workers=1).start()
        self.embedded = self.server.database.connect()
        self.embedded.execute(self.ddl)
        self.embedded.append("lineitem", self.source)
        self.embedded.execute(
            f"COPY (SELECT * FROM lineitem LIMIT {COPY_ROWS}) "
            f"TO '{self.csv}'"
        )
        self.remote = RemoteConnection(
            "127.0.0.1", self.server.port, binary=True
        )

    def begin(self) -> None:
        self.csv_bytes = self.csv.stat().st_size

    def teardown(self) -> None:
        if self.remote is not None:
            self.remote.close()
            self.server.stop()
            self.db.shutdown()
            self.db = self.server = self.remote = None

    def databases(self) -> list:
        return [self.db, self.server.database]

    # -- operations -----------------------------------------------------------------

    def _reset_targets(self) -> None:
        for table in TARGETS:
            self.conn.execute(f"DROP TABLE IF EXISTS {table}")
            self.conn.execute(self.ddl.replace("TABLE lineitem", f"TABLE {table}"))

    def _count(self, table: str) -> int:
        return self.conn.query(f"SELECT count(*) FROM {table}").scalar()

    def round(self, runner) -> None:
        self._reset_targets()

        start = self._offset
        self._offset = (start + APPEND_ROWS) % (self.total_rows - APPEND_ROWS)
        chunk = {k: v[start:start + APPEND_ROWS] for k, v in self.lineitem.items()}
        runner.op("append", lambda: self.conn.append("li_append", chunk))
        if not runner.failed_last:
            self.bytes_written += int(self.row_bytes * APPEND_ROWS)
            count = self._count("li_append")
            runner.check("append", count == APPEND_ROWS,
                         f"append left {count} rows, expected {APPEND_ROWS}")

        sql = f"COPY INTO li_copy FROM '{self.csv}'"
        loaded = runner.op("copy", lambda: self.conn.execute(sql).scalar())
        if not runner.failed_last:
            self.bytes_written += self.csv_bytes
            count = self._count("li_copy")
            rejects = len(self.db.copy_rejects)
            runner.check(
                "copy",
                loaded == COPY_ROWS and count == COPY_ROWS and rejects == 0,
                f"COPY loaded {loaded} ({count} visible, {rejects} rejected), "
                f"expected {COPY_ROWS}",
            )

        def embedded():
            result = self.embedded.query("SELECT * FROM lineitem")
            return {n: result.to_numpy(i) for i, n in enumerate(result.names)}

        columns = runner.op("export_embedded", embedded)
        if columns is not None:
            self._check_export(runner, "export_embedded", columns)

        columns = runner.op(
            "export_wire",
            lambda: self.remote.query("SELECT * FROM lineitem").to_columns(),
        )
        if columns is not None:
            self._check_export(runner, "export_wire", columns)

    # -- checks -----------------------------------------------------------------------

    def _check_export(self, runner, kind, columns) -> None:
        """The exported arrays equal the generated ones, column by column."""
        bad = []
        if list(columns) != list(self.source):
            bad.append(f"columns {list(columns)}")
        for name, expected in self.source.items():
            got = np.asarray(columns.get(name, []))
            if got.dtype.kind == "M":
                got = got.astype("datetime64[D]").astype(np.int64)
            if len(got) != len(expected) or not np.array_equal(got, expected):
                bad.append(name)
        runner.check(kind, not bad, f"exported columns differ: {bad}")

    def finish(self, runner) -> None:
        self.teardown()

    # -- reporting -------------------------------------------------------------------

    def report(self, warm, cold_s: float) -> dict:
        kinds = by_kind(warm)
        median = {k: statistics.median(v) for k, v in kinds.items()}
        return {
            "bulk_load_rows_per_s": (
                APPEND_ROWS / median["append"], "rows/s", len(kinds["append"])
            ),
            "copy_in_rows_per_s": (
                COPY_ROWS / median["copy"], "rows/s", len(kinds["copy"])
            ),
            "export_embedded_ms": (
                median["export_embedded"] * 1e3, "ms",
                len(kinds["export_embedded"]),
            ),
            "export_wire_ms": (
                median["export_wire"] * 1e3, "ms", len(kinds["export_wire"])
            ),
        }

    def live_user_bytes(self) -> int:
        rows = EXPORT_ROWS + sum(self._count(t) for t in TARGETS)
        return int(self.row_bytes * rows)

    def disk_bytes(self) -> int:
        return dir_bytes(self.path)
