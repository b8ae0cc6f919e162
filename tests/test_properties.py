"""Property-based whole-engine tests: SQL answers vs. NumPy brute force.

Random data and random predicate/aggregate parameters are pushed through
the full SQL pipeline and compared against direct NumPy computation —
covering binder, optimizer, codegen, kernels and result conversion at once.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.database import Database

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.data_too_large],
)


#: exact-int64 edge values: the float64 rounding boundary around 2**53 and
#: the BIGINT extremes (-2**63 is the NULL sentinel, so -2**63 + 1 is the
#: smallest value)
_INT64_BOUNDARY = [0, 1, -1, 2**53, -(2**53), 2**53 + 1, -(2**53 + 1),
                   2**63 - 1, -(2**63) + 1]


def _with_boundary(values):
    """``values`` mixed with the int64 boundary values."""
    return st.one_of(values, st.sampled_from(_INT64_BOUNDARY))


@pytest.fixture(scope="module")
def pdb():
    database = Database(None)
    yield database
    database.shutdown()


def fresh_table(pdb, values, strings=None):
    conn = pdb.connect()
    conn.execute("DROP TABLE IF EXISTS prop")
    if strings is None:
        conn.execute("CREATE TABLE prop (v BIGINT)")
        conn.append("prop", {"v": np.asarray(values, dtype=np.int64)})
    else:
        conn.execute("CREATE TABLE prop (v BIGINT, s VARCHAR(10))")
        conn.append(
            "prop",
            {
                "v": np.asarray(values, dtype=np.int64),
                "s": np.asarray(strings, dtype=object),
            },
        )
    return conn


class TestFilterProperties:
    @given(
        st.lists(st.integers(-1000, 1000), min_size=0, max_size=300),
        st.integers(-1000, 1000),
    )
    @_settings
    def test_range_filter_count(self, pdb, values, threshold):
        conn = fresh_table(pdb, values)
        got = conn.query(
            f"SELECT count(*) FROM prop WHERE v > {threshold}"
        ).scalar()
        assert got == int((np.asarray(values or [0][0:0]) > threshold).sum())

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=200),
        st.integers(0, 50),
        st.integers(0, 50),
    )
    @_settings
    def test_between_matches_numpy(self, pdb, values, a, b):
        lo, hi = min(a, b), max(a, b)
        conn = fresh_table(pdb, values)
        got = conn.query(
            f"SELECT count(*) FROM prop WHERE v BETWEEN {lo} AND {hi}"
        ).scalar()
        arr = np.asarray(values)
        assert got == int(((arr >= lo) & (arr <= hi)).sum())

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=200))
    @_settings
    def test_complement_partitions_rows(self, pdb, values):
        conn = fresh_table(pdb, values)
        positive = conn.query("SELECT count(*) FROM prop WHERE v > 0").scalar()
        negated = conn.query(
            "SELECT count(*) FROM prop WHERE NOT (v > 0)"
        ).scalar()
        assert positive + negated == len(values)  # no NULLs: 2VL partition


class TestAggregateProperties:
    @given(st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=300))
    @_settings
    def test_sum_min_max_avg(self, pdb, values):
        conn = fresh_table(pdb, values)
        row = conn.query(
            "SELECT sum(v), min(v), max(v), avg(v), count(*) FROM prop"
        ).fetchone()
        arr = np.asarray(values)
        assert row[0] == int(arr.sum())
        assert row[1] == int(arr.min()) and row[2] == int(arr.max())
        assert row[3] == pytest.approx(float(arr.mean()))
        assert row[4] == len(values)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=300))
    @_settings
    def test_median(self, pdb, values):
        conn = fresh_table(pdb, values)
        got = conn.query("SELECT median(v) FROM prop").scalar()
        assert got == pytest.approx(float(np.median(np.asarray(values))))

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from("abc")),
            min_size=1,
            max_size=200,
        )
    )
    @_settings
    def test_group_by_matches_dict(self, pdb, rows):
        values = [r[0] for r in rows]
        strings = [r[1] for r in rows]
        conn = fresh_table(pdb, values, strings)
        got = conn.query(
            "SELECT s, sum(v), count(*) FROM prop GROUP BY s ORDER BY s"
        ).fetchall()
        expected = {}
        for value, key in zip(values, strings):
            total, count = expected.get(key, (0, 0))
            expected[key] = (total + value, count + 1)
        assert got == [
            (key, expected[key][0], expected[key][1])
            for key in sorted(expected)
        ]


class TestSortProperties:
    @given(
        st.lists(
            _with_boundary(st.integers(-1000, 1000)), min_size=0, max_size=300
        )
    )
    @_settings
    def test_order_by_is_sorted(self, pdb, values):
        conn = fresh_table(pdb, values)
        got = [r[0] for r in conn.query(
            "SELECT v FROM prop ORDER BY v"
        ).fetchall()]
        assert got == sorted(values)
        got_desc = [r[0] for r in conn.query(
            "SELECT v FROM prop ORDER BY v DESC"
        ).fetchall()]
        assert got_desc == sorted(values, reverse=True)

    @given(
        st.lists(st.integers(0, 100), min_size=0, max_size=100),
        st.integers(0, 20),
        st.integers(0, 10),
    )
    @_settings
    def test_limit_offset_slices(self, pdb, values, limit, offset):
        conn = fresh_table(pdb, values)
        got = [r[0] for r in conn.query(
            f"SELECT v FROM prop ORDER BY v LIMIT {limit} OFFSET {offset}"
        ).fetchall()]
        assert got == sorted(values)[offset : offset + limit]


class TestDistinctProperties:
    @given(
        st.lists(_with_boundary(st.integers(0, 20)), min_size=0, max_size=200)
    )
    @_settings
    def test_distinct_is_set(self, pdb, values):
        conn = fresh_table(pdb, values)
        got = sorted(
            r[0] for r in conn.query("SELECT DISTINCT v FROM prop").fetchall()
        )
        assert got == sorted(set(values))


class TestJoinProperties:
    @given(
        st.lists(_with_boundary(st.integers(0, 10)), min_size=0, max_size=60),
        st.lists(_with_boundary(st.integers(0, 10)), min_size=0, max_size=60),
    )
    @_settings
    def test_equijoin_cardinality(self, pdb, left_vals, right_vals):
        conn = pdb.connect()
        conn.execute("DROP TABLE IF EXISTS jl")
        conn.execute("DROP TABLE IF EXISTS jr")
        conn.execute("CREATE TABLE jl (v BIGINT)")
        conn.execute("CREATE TABLE jr (v BIGINT)")
        if left_vals:
            conn.append("jl", {"v": np.asarray(left_vals, dtype=np.int64)})
        if right_vals:
            conn.append("jr", {"v": np.asarray(right_vals, dtype=np.int64)})
        got = conn.query(
            "SELECT count(*) FROM jl, jr WHERE jl.v = jr.v"
        ).scalar()
        expected = sum(
            left_vals.count(value) * right_vals.count(value)
            for value in set(left_vals)
        )
        assert got == expected
