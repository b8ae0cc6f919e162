"""tpch_olap: TPC-H SF 0.1 in memory, Q1-Q10 in passes (paper Table 1).

The MAL join/group-by/take kernels take almost all of the time here and the
front end almost none; the ten plans fit the plan cache, so a warm pass
runs no parse-to-compile work beyond the parse of each query text.
"""

from __future__ import annotations

import datetime
import math
import statistics

import numpy as np

from common import by_kind, geomean, user_bytes
from repro.core.database import Database
from repro.frames import DataFrame
from repro.frames.tpch import run_query
from repro.storage.types import days_to_date
from repro.workloads.tpch import QUERIES, TABLES, generate, load

SCALE_FACTOR = 0.1


def _same_value(mine, ref) -> bool:
    if isinstance(mine, float) or isinstance(ref, float):
        return math.isclose(float(mine), float(ref), rel_tol=1e-9,
                            abs_tol=1e-6)
    return mine == ref


class Workload:
    name = "tpch_olap"
    #: set-ups per run (setup_s is their median); five, not nine, because
    #: each loads all eight tables
    setups = 5

    def __init__(self, seed: int, workdir):
        self.data = generate(SCALE_FACTOR, seed=seed)
        #: user bytes written by operations (this workload only reads)
        self.bytes_written = 0
        self.db = None
        self.conn = None
        #: query number -> distinct result row lists seen during the run
        self.results: dict = {number: [] for number in QUERIES}

    # -- lifecycle ---------------------------------------------------------------

    def setup(self) -> None:
        self.db = Database(None)
        self.conn = self.db.connect()
        load(self.conn, self.data)

    def begin(self) -> None:
        pass

    def teardown(self) -> None:
        if self.db is not None:
            self.db.shutdown()
            self.db = self.conn = None

    def databases(self) -> list:
        return [self.db]

    # -- operations --------------------------------------------------------------

    def round(self, runner) -> None:
        """One pass over Q1-Q10."""
        for number in QUERIES:
            sql = QUERIES[number]
            rows = runner.op(
                f"q{number}", lambda: self.conn.query(sql).fetchall()
            )
            if rows is not None and rows not in self.results[number]:
                self.results[number].append(rows)

    # -- checks --------------------------------------------------------------------

    def finish(self, runner) -> None:
        """Every distinct answer must match the hand-written frames plans."""
        tables = {name: DataFrame(cols) for name, cols in self.data.items()}
        for number in QUERIES:
            expected = self._frame_rows(run_query(number, tables))
            for rows in self.results[number]:
                runner.check(
                    f"q{number}", self._rows_match(rows, expected),
                    f"Q{number} differs from the frames plan",
                )

    @staticmethod
    def _frame_rows(frame) -> list:
        rows = []
        for row in zip(*[frame[c] for c in frame.columns]):
            out = []
            for col, value in zip(frame.columns, row):
                if isinstance(value, np.floating):
                    value = float(value)
                elif isinstance(value, np.integer):
                    value = (
                        days_to_date(int(value)) if "date" in col
                        else int(value)
                    )
                out.append(value)
            rows.append(tuple(out))
        return rows

    @staticmethod
    def _rows_match(rows, expected) -> bool:
        if len(rows) != len(expected):
            return False
        for mine, ref in zip(rows, expected):
            if len(mine) != len(ref):
                return False
            for a, b in zip(mine, ref):
                if isinstance(a, datetime.date) and isinstance(b, str):
                    b = datetime.date.fromisoformat(b)
                if not _same_value(a, b):
                    return False
        return True

    # -- reporting -------------------------------------------------------------------

    def report(self, warm, cold_s: float) -> dict:
        """The workload's own named metrics (printed, not gated)."""
        per_query = by_kind(warm)
        passes = len(warm) // len(QUERIES)
        pass_s = [
            sum(s for _, s in warm[i * len(QUERIES):(i + 1) * len(QUERIES)])
            for i in range(passes)
        ]
        return {
            "tpch_pass_s": (statistics.median(pass_s), "s", len(pass_s)),
            "tpch_geomean_ms": (
                geomean([statistics.median(v) for v in per_query.values()])
                * 1e3, "ms", passes,
            ),
            "tpch_cold_pass_s": (cold_s, "s", 1),
        }

    def live_user_bytes(self) -> int:
        return sum(user_bytes(self.data[t]) for t in TABLES)

    def disk_bytes(self) -> int:
        return 0
