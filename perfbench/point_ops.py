"""point_ops: durable point reads and writes on TPC-H SF 0.1 ``orders``.

A persistent database with an fsync on every commit (``REPRO_NO_FSYNC`` is
removed from the environment before the engine is imported).  Checkpoint
policy: each set-up ends with one explicit checkpoint, so the measured
window starts from an empty log; after that the engine default applies
(checkpoint once the WAL passes ``WAL_CHECKPOINT_BYTES``, and at shutdown).

Here the front end (parse/bind/optimize/compile, the plan cache) and the
commit path dominate and the kernels do little, the reverse of tpch_olap.
Ad-hoc reads carry a fresh literal each time, so their working set
exceeds the plan cache; every write invalidates the cached plans on
``orders``, so a read gain paid for in commits or index refreshes shows.
"""

from __future__ import annotations

import datetime
import random
import shutil
import statistics
from collections import deque

import numpy as np

from common import beyond, dir_bytes, percentile, throughput, user_bytes
from repro.core.database import Database
from repro.storage.types import date_to_days, days_to_date
from repro.workloads.tpch import TABLES, generate, schema_statements

SCALE_FACTOR = 0.1

#: one round: 40% prepared reads, 20% ad-hoc reads, 15% INSERT,
#: 15% UPDATE, 5% DELETE, 5% one-month range aggregates (shuffled)
ROUND = (
    ["prepared"] * 40 + ["adhoc"] * 20 + ["insert"] * 15 + ["update"] * 15
    + ["delete"] * 5 + ["range"] * 5
)
READS = ("prepared", "adhoc", "range")
WRITES = ("insert", "update", "delete")

READ_SQL = (
    "SELECT o_custkey, o_totalprice, o_orderstatus, o_orderdate "
    "FROM orders WHERE o_orderkey = {}"
)
RANGE_SQL = (
    "SELECT count(*), sum(o_totalprice) FROM orders "
    "WHERE o_orderdate >= date '{}' AND o_orderdate < date '{}'"
)
FIRST_DAY = date_to_days(datetime.date(1992, 1, 1))
LAST_DAY = date_to_days(datetime.date(1998, 7, 31))
MONTHS = [(y, m) for y in range(1992, 1999) for m in range(1, 13)][:79]

# fixed columns of inserted rows
INSERT_TAIL = ("1-URGENT", "Clerk#000000001", 0, "perfbench insert")
# user bytes of one inserted row: key, custkey, status, price, date,
# priority, clerk, shippriority, comment
INSERT_BYTES = (
    4 + 4 + 1 + 8 + 4 + len(INSERT_TAIL[0]) + len(INSERT_TAIL[1]) + 4
    + len(INSERT_TAIL[3])
)


def _month(days: int) -> tuple:
    date = days_to_date(days)
    return date.year, date.month


def _price(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


class Workload:
    name = "point_ops"
    setups = 9

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.orders = generate(SCALE_FACTOR, seed=seed)["orders"]
        self.ddl = dict(zip(TABLES, schema_statements()))["orders"]
        self.row_bytes = user_bytes(self.orders) / len(self.orders["o_orderkey"])
        self.bytes_written = 0
        self._setup_count = 0
        self.db = None
        self.conn = None

    # -- model of the acknowledged state -------------------------------------------

    def _reset_model(self) -> None:
        o = self.orders
        keys = o["o_orderkey"].tolist()
        cents = [round(v * 100) for v in o["o_totalprice"].tolist()]
        self.rows = dict(zip(keys, zip(
            o["o_custkey"].tolist(), cents, o["o_orderstatus"].tolist(),
            o["o_orderdate"].tolist(),
        )))
        self.alive = list(keys)
        self.slot = {key: i for i, key in enumerate(keys)}
        self.recent: deque = deque(maxlen=64)
        self.month: dict = {}
        for _, price, _, days in self.rows.values():
            entry = self.month.setdefault(_month(days), [0, 0])
            entry[0] += 1
            entry[1] += price
        self.next_key = max(keys) + 1
        self.rng = random.Random(self.seed)

    def _forget(self, key: int) -> None:
        index = self.slot.pop(key)
        last = self.alive.pop()
        if last != key:
            self.alive[index] = last
            self.slot[last] = index
        _, price, _, days = self.rows.pop(key)
        entry = self.month[_month(days)]
        entry[0] -= 1
        entry[1] -= price

    def _remember(self, key: int, row: tuple) -> None:
        self.rows[key] = row
        self.slot[key] = len(self.alive)
        self.alive.append(key)
        entry = self.month.setdefault(_month(row[3]), [0, 0])
        entry[0] += 1
        entry[1] += row[1]

    # -- lifecycle -------------------------------------------------------------------

    def setup(self) -> None:
        self._setup_count += 1
        self.path = self.workdir / f"orders{self._setup_count}"
        self.db = Database(str(self.path))
        self.conn = self.db.connect()
        self.conn.execute(self.ddl)
        self.conn.append("orders", self.orders)
        self.db.checkpoint()
        self.read = self.conn.prepare(READ_SQL.format("?"))

    def begin(self) -> None:
        """Benchmark bookkeeping after a set-up, outside its timing."""
        self._reset_model()

    def teardown(self) -> None:
        if self.db is not None:
            self.db.shutdown()
            self.db = self.conn = None

    def databases(self) -> list:
        return [self.db]

    # -- operations -----------------------------------------------------------------

    def round(self, runner) -> None:
        kinds = list(ROUND)
        self.rng.shuffle(kinds)
        for kind in kinds:
            getattr(self, f"_op_{kind}")(runner)

    def _read_key(self) -> int:
        if self.recent and self.rng.random() < 0.5:
            return self.rng.choice(self.recent)
        return self.rng.choice(self.alive)

    def _check_read(self, runner, kind, key, rows) -> None:
        expected = self.rows.get(key)
        if expected is None:
            ok = rows == []
        else:
            custkey, cents, status, days = expected
            ok = len(rows) == 1 and (
                rows[0][0] == custkey
                and round(rows[0][1] * 100) == cents
                and rows[0][2] == status
                and rows[0][3] == days_to_date(days)
            )
        runner.check(kind, ok, f"key {key}: read {rows}, wrote {expected}")

    def _op_prepared(self, runner) -> None:
        key = self._read_key()
        rows = runner.op(
            "prepared", lambda: self.read.execute((key,)).fetchall()
        )
        if rows is not None:
            self._check_read(runner, "prepared", key, rows)

    def _op_adhoc(self, runner) -> None:
        key = self._read_key()
        sql = READ_SQL.format(key)
        rows = runner.op("adhoc", lambda: self.conn.query(sql).fetchall())
        if rows is not None:
            self._check_read(runner, "adhoc", key, rows)

    def _op_range(self, runner) -> None:
        year, month = self.rng.choice(MONTHS)
        start = datetime.date(year, month, 1)
        end = datetime.date(year + month // 12, month % 12 + 1, 1)
        sql = RANGE_SQL.format(start.isoformat(), end.isoformat())
        rows = runner.op("range", lambda: self.conn.query(sql).fetchall())
        if rows is not None:
            count, cents = self.month.get((year, month), (0, 0))
            got_count, got_sum = rows[0]
            runner.check(
                "range",
                got_count == count and round((got_sum or 0) * 100) == cents,
                f"{start}: got {rows[0]}, expected ({count}, {cents / 100})",
            )

    def _op_insert(self, runner) -> None:
        key = self.next_key
        self.next_key += 1
        row = (
            self.rng.randint(1, 15_000), self.rng.randint(100, 50_000_000),
            "O", self.rng.randint(FIRST_DAY, LAST_DAY),
        )
        custkey, cents, status, days = row
        priority, clerk, ship, comment = INSERT_TAIL
        sql = (
            f"INSERT INTO orders VALUES ({key}, {custkey}, '{status}', "
            f"{_price(cents)}, date '{days_to_date(days).isoformat()}', "
            f"'{priority}', '{clerk}', {ship}, '{comment}')"
        )
        runner.op("insert", lambda: self.conn.execute(sql))
        if runner.failed_last:
            return
        self._remember(key, row)
        self.recent.append(key)
        self.bytes_written += INSERT_BYTES

    def _op_update(self, runner) -> None:
        key = self.rng.choice(self.alive)
        cents = self.rng.randint(100, 50_000_000)
        sql = (
            f"UPDATE orders SET o_totalprice = {_price(cents)} "
            f"WHERE o_orderkey = {key}"
        )
        runner.op("update", lambda: self.conn.execute(sql))
        if runner.failed_last:
            return
        custkey, _, status, days = self.rows[key]
        self._forget(key)
        self._remember(key, (custkey, cents, status, days))
        self.recent.append(key)
        self.bytes_written += 8

    def _op_delete(self, runner) -> None:
        key = self.rng.choice(self.alive)
        sql = f"DELETE FROM orders WHERE o_orderkey = {key}"
        runner.op("delete", lambda: self.conn.execute(sql))
        if runner.failed_last:
            return
        self._forget(key)
        self.recent.append(key)

    # -- checks -----------------------------------------------------------------------

    def _check_durable(self, runner, path, label) -> None:
        """Every acknowledged write, and nothing deleted, after reopening."""
        database = Database(str(path))
        try:
            result = database.connect().query(
                "SELECT o_orderkey, o_custkey, o_totalprice, o_orderstatus, "
                "o_orderdate FROM orders ORDER BY o_orderkey"
            )
            found = [np.asarray(result.to_numpy(i)) for i in range(5)]
        finally:
            database.shutdown()
        keys = sorted(self.rows)
        expected = [np.asarray(keys)] + [
            np.asarray([self.rows[k][i] for k in keys]) for i in range(4)
        ]
        found[2] = np.round(found[2] * 100).astype(np.int64)
        found[4] = found[4].astype("datetime64[D]").astype(np.int64)
        same = len(found[0]) == len(keys) and all(
            np.array_equal(got, want) for got, want in zip(found, expected)
        )
        runner.check(
            f"durability.{label}", same,
            f"{label}: {len(found[0])} rows reopened, {len(keys)} "
            "acknowledged; a row was lost, stale or resurrected",
        )

    def finish(self, runner) -> None:
        """Reopen a copy of the files as a crash leaves them (every commit
        was fsynced, nothing checkpointed since set-up), then shut down
        cleanly and reopen the directory itself."""
        crash = self.workdir / "crash-image"
        shutil.copytree(self.path, crash)
        self._check_durable(runner, crash, "crash")
        self.teardown()
        self._check_durable(runner, self.path, "shutdown")

    # -- reporting -------------------------------------------------------------------

    def report(self, warm, cold_s: float) -> dict:
        reads = [s for kind, s in warm if kind in READS]
        writes = [s for kind, s in warm if kind in WRITES]
        out = {
            "point_ops_per_s": (throughput(warm), "1/s", len(warm)),
        }
        for label, values in (("read", reads), ("write", writes)):
            out[f"{label}_p50_ms"] = (
                statistics.median(values) * 1e3, "ms", len(values)
            )
            out[f"{label}_p95_ms"] = (
                percentile(values, 95) * 1e3, "ms",
                f"{len(values)} samples, {beyond(values, 95)} beyond",
            )
        return out

    def live_user_bytes(self) -> int:
        return int(self.row_bytes * len(self.alive))

    def disk_bytes(self) -> int:
        return dir_bytes(self.path)
