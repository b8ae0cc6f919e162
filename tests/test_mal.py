"""Tests for the MAL layer: codegen/CSE, rendering, parallel chunking."""

import itertools

import numpy as np
import pytest

from repro.algebra.binder import bind_statement
from repro.algebra.optimizer import optimize
from repro.errors import QueryTimeoutError
from repro.mal.codegen import compile_select
from repro.mal.operators import factorize
from repro.mal.vectors import BoolVec, V, vec_to_column
from repro.sql.parser import parse_one
from repro.storage import types as T
from repro.storage.catalog import ColumnDef, TableSchema
from repro.storage.stringheap import StringHeap


def compile_sql(sql, schemas):
    lookup = lambda name: schemas[name.lower()]  # noqa: E731
    bound = bind_statement(parse_one(sql), lookup)
    optimized = optimize(bound, lambda name: 1000)
    return compile_select(optimized)


@pytest.fixture
def schemas():
    return {
        "t": TableSchema(
            "t",
            [
                ColumnDef("a", T.INTEGER),
                ColumnDef("b", T.DOUBLE),
                ColumnDef("c", T.STRING),
            ],
        )
    }


class TestCodegen:
    def test_common_subexpression_elimination(self, schemas):
        program = compile_sql("SELECT a + 1, a + 1 FROM t", schemas)
        maps = [i for i in program.instructions if i.op == "map"]
        assert len(maps) == 1  # the duplicate projection shares one var

    def test_binds_deduplicated(self, schemas):
        program = compile_sql("SELECT a, a FROM t", schemas)
        binds = [i for i in program.instructions if i.op == "bind"]
        assert len(binds) == 1

    def test_projection_pushdown_limits_binds(self, schemas):
        program = compile_sql("SELECT a FROM t WHERE a > 1", schemas)
        binds = [i for i in program.instructions if i.op == "bind"]
        assert len(binds) == 1  # neither b nor c is ever bound

    def test_parallel_marking(self, schemas):
        program = compile_sql("SELECT a * 2 FROM t WHERE a > 1", schemas)
        by_op = {}
        for instruction in program.instructions:
            by_op.setdefault(instruction.op, instruction)
        assert by_op["map"].parallelizable
        assert by_op["pred"].parallelizable
        assert by_op["take"].parallelizable
        assert not by_op["result"].parallelizable

    def test_blocking_ops_not_parallel(self, schemas):
        program = compile_sql(
            "SELECT median(b) FROM t GROUP BY a ORDER BY 1", schemas
        )
        for instruction in program.instructions:
            if instruction.op in ("groupby", "agg", "sort"):
                assert not instruction.parallelizable

    def test_render_readable(self, schemas):
        program = compile_sql("SELECT a FROM t WHERE a > 5", schemas)
        text = program.render()
        assert "bind(t" in text
        assert ":= pred(" in text
        assert "{parallel}" in text

    def test_result_carries_names(self, schemas):
        program = compile_sql("SELECT a AS alpha FROM t", schemas)
        assert program.column_names == ["alpha"]


class TestParallelExecution:
    """The chunked 'mitosis' path (paper Figure 2)."""

    def _query(self, parallel):
        from repro.core.database import Database

        db = Database(
            None,
            parallel=parallel,
            min_parallel_rows=1024,
            max_workers=4,
        )
        conn = db.connect()
        conn.execute("CREATE TABLE p (i BIGINT)")
        rng = np.random.default_rng(3)
        conn.append("p", {"i": rng.integers(0, 10_000, 200_000)})
        # the paper's Figure 2 query
        result = conn.query("SELECT median(sqrt(i * 2)) FROM p").scalar()
        count = conn.query("SELECT count(*) FROM p WHERE i > 5000").scalar()
        db.shutdown()
        return result, count

    def test_parallel_equals_sequential(self):
        assert self._query(True) == self._query(False)

    def test_small_columns_not_chunked(self):
        from repro.core.database import Database

        db = Database(None, parallel=True, min_parallel_rows=1 << 20)
        conn = db.connect()
        conn.execute("CREATE TABLE s (i INTEGER)")
        conn.append("s", {"i": np.arange(100, dtype=np.int32)})
        assert conn.query("SELECT sum(i) FROM s").scalar() == 4950
        db.shutdown()


class TestTimeout:
    def test_query_timeout_raises(self):
        from repro.core.database import Database

        db = Database(None, timeout=0.0001)
        conn = db.connect()
        conn._database.config.timeout = None
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.append("t", {"a": np.arange(50_000, dtype=np.int32)})
        conn._database.config.timeout = 0.000001
        with pytest.raises(QueryTimeoutError):
            conn.query("SELECT count(*) FROM t, t t2 WHERE t.a = t2.a")
        db.shutdown()


class TestVectors:
    def test_boolvec_kleene_and(self):
        truth_a = np.array([True, True, False])
        valid_a = np.array([True, False, True])
        a = BoolVec(truth_a, valid_a)
        b = BoolVec(np.array([True, False, False]))
        combined = BoolVec.and_(a, b)
        # unknown AND false = false (valid), unknown AND true = unknown
        assert combined.definite().tolist() == [True, False, False]
        # row 1: a unknown, b false -> definitely false, so valid
        assert combined.valid[1]

    def test_boolvec_kleene_or(self):
        a = BoolVec(np.array([False, False]), np.array([False, False]))
        b = BoolVec(np.array([True, False]))
        combined = BoolVec.or_(a, b)
        # unknown OR true = true; unknown OR false = unknown
        assert combined.definite().tolist() == [True, False]
        assert combined.valid.tolist() == [True, False]

    def test_negate_keeps_validity(self):
        vec = BoolVec(np.array([True, False]), np.array([True, False]))
        negated = vec.negate()
        assert negated.definite().tolist() == [False, False]

    def test_vec_to_column_scalar_broadcast(self):
        column = vec_to_column(V(T.INTEGER, 7), 3)
        assert column.to_python() == [7, 7, 7]
        column = vec_to_column(V(T.STRING, "x"), 2)
        assert column.to_python() == ["x", "x"]
        column = vec_to_column(V(T.DOUBLE, None), 2)
        assert column.to_python() == [None, None]


def _assert_codes_follow_keys(keys: list, codes: np.ndarray):
    """Codes are equal exactly when the key tuples are, and ordered like
    them, with NULL (None) below every value."""

    def rank(key):
        return tuple((0,) if v is None else (1, v) for v in key)

    for i, j in itertools.product(range(len(keys)), repeat=2):
        assert (codes[i] == codes[j]) == (rank(keys[i]) == rank(keys[j])), (i, j)
        assert (codes[i] < codes[j]) == (rank(keys[i]) < rank(keys[j])), (i, j)


class TestFactorize:
    def test_factorize_contract(self):
        # strings: a deduplicating heap, a heap past its dedup threshold
        # (equal values in different slots) and an object array share one
        # code space; NULL is one code of its own, below ''
        dedup = StringHeap()
        blind = StringHeap(dedup_threshold=1)
        sides = [
            ["b", None, "", "a", "b", None],
            ["b", "a", "b", None, ""],
            ["a", "", None, "c"],
        ]
        codes = factorize(
            [V(T.STRING, dedup.add_many(sides[0]), dedup)],
            [V(T.STRING, blind.add_many(sides[1]), blind)],
            [V(T.STRING, np.array(sides[2], dtype=object))],
        )
        _assert_codes_follow_keys(
            [(v,) for side in sides for v in side], np.concatenate(codes)
        )

        # floats: NaN is NULL, -0.0 equals 0.0
        floats = np.array([np.nan, -0.0, 1.5, 0.0, -np.inf, np.nan])
        (codes,) = factorize([V(T.DOUBLE, floats)])
        _assert_codes_follow_keys(
            [(None,), (0.0,), (1.5,), (0.0,), (-np.inf,), (None,)], codes
        )

        # a 16-column composite over exact int64 boundary values: the
        # cardinality product 16**16 overflows int64, which forces the
        # re-densify branch; integers above 2**53 stay distinct
        boundary = [0, 1, -1, 2**53, -(2**53), 2**53 + 1, -(2**53 + 1),
                    2**63 - 1, -(2**63) + 1, 7, 8, 9, 10, 11, 12, None]
        rng = np.random.default_rng(7)
        columns = [rng.permutation(boundary).tolist() for _ in range(16)]
        for column in columns:
            column.append(column[0])  # the last row repeats the first key
        assert len(boundary) ** 16 > np.iinfo(np.int64).max
        vecs = [
            V(T.BIGINT, np.array(
                [T.BIGINT.to_storage(v) for v in column], dtype=np.int64
            ))
            for column in columns
        ]
        (codes,) = factorize(vecs)
        _assert_codes_follow_keys(list(zip(*columns)), codes)
        assert codes[0] == codes[-1]
