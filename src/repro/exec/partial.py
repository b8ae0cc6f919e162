"""Partial / combine variants of the aggregate kernels.

Morsel-driven execution computes aggregates in two steps: every morsel
builds a thread-local *partial state* per group
(:func:`partial_aggregate`), and the breaker merges the states of all
morsels into final values (:func:`merge_partials`).  The decompositions
mirror ``repro.mal.operators.aggregate`` exactly:

==========  ==========================================================
sum         per-group sums + non-null counts (int64 exact for INTEGER
            and DECIMAL storage, float64 otherwise)
count(*)    per-group row counts
count       per-group non-null counts
avg         float sums + counts, divided after the merge
min/max     per-group extremes in the storage domain (int64-exact for
            INTEGER/DECIMAL/DATE, float64 for FLOAT; comparisons
            commute); object-domain best values for strings
median      not decomposable into fixed-size state — the partial state
            is the morsel's (values, gids) pair and the merge sorts the
            combined multiset, which is order-insensitive
stddev/var  (count, sum, sum-of-squares) moments
==========  ==========================================================

DISTINCT aggregates are not decomposable and are rejected upstream by
the fragment analysis (the program falls back to pack mode).  Float
sums/averages are merged by re-associated addition, so they can differ
from sequential answers in the last few ulps — integer, decimal-as-int,
count, min/max, and median merges are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatabaseError
from repro.mal import operators as ops
from repro.mal.vectors import V
from repro.storage import types as T

__all__ = ["PartialState", "partial_aggregate", "merge_partials"]

_EXACT_SUM_CATEGORIES = (T.TypeCategory.INTEGER, T.TypeCategory.DECIMAL)


@dataclass
class PartialState:
    """One morsel's per-group aggregate state for one aggregate."""

    func: str
    arg_type: T.SQLType | None
    ngroups: int
    data: tuple


def partial_aggregate(
    func: str, arg: V | None, gids: np.ndarray, ngroups: int
) -> PartialState:
    """Thread-local per-group state of one aggregate over one morsel."""
    if func == "count_star":
        counts = np.bincount(gids, minlength=ngroups).astype(np.int64)
        return PartialState(func, None, ngroups, (counts,))
    if arg is None:
        raise DatabaseError(f"aggregate {func} requires an argument")

    data = arg.data
    n = len(gids)
    if not isinstance(data, np.ndarray):  # broadcast scalar argument
        if arg.type.is_variable:
            data = np.full(n, 0, dtype=np.int64)
        else:
            fill = arg.type.null_value if arg.data is None else arg.data
            data = np.full(n, fill, dtype=arg.type.dtype)
        arg = V(arg.type, data, arg.heap)

    nulls = arg.null_mask(n)
    present = ~nulls if nulls is not None else np.ones(n, dtype=bool)

    if func == "count":
        counts = np.bincount(gids[present], minlength=ngroups).astype(np.int64)
        return PartialState(func, arg.type, ngroups, (counts,))

    if arg.type.is_variable:
        if func not in ("min", "max"):
            raise DatabaseError(f"aggregate {func} not defined for strings")
        best, missing = ops._string_minmax(func, arg, gids, ngroups)
        return PartialState(func, arg.type, ngroups, (best, missing))

    counts = np.bincount(gids[present], minlength=ngroups)
    if func in ("min", "max"):
        out = ops.group_extremes(
            func, arg.type, data[present], gids[present], ngroups
        )
        return PartialState(func, arg.type, ngroups, (out, counts))

    floats = ops._as_float(arg, data, nulls)

    if func == "sum":
        if arg.type.category in _EXACT_SUM_CATEGORIES:
            sums = np.zeros(ngroups, dtype=np.int64)
            np.add.at(sums, gids[present], data[present].astype(np.int64))
        else:
            sums = np.bincount(
                gids[present], weights=floats[present], minlength=ngroups
            )
        return PartialState(func, arg.type, ngroups, (sums, counts))
    if func == "avg":
        sums = np.bincount(
            gids[present], weights=floats[present], minlength=ngroups
        )
        return PartialState(func, arg.type, ngroups, (sums, counts))
    if func == "median":
        return PartialState(
            func, arg.type, ngroups, (floats[present], gids[present])
        )
    if func in ("stddev", "var"):
        sums = np.bincount(
            gids[present], weights=floats[present], minlength=ngroups
        )
        squares = np.bincount(
            gids[present], weights=floats[present] ** 2, minlength=ngroups
        )
        return PartialState(func, arg.type, ngroups, (counts, sums, squares))
    raise DatabaseError(f"no partial decomposition for aggregate {func!r}")


def merge_partials(states: list, gid_maps: list, ngroups: int):
    """Combine per-morsel states into final (values, null_mask) arrays.

    ``gid_maps[m]`` maps morsel ``m``'s local group ids to global group
    ids (an all-zero array for ungrouped aggregates); the output arrays
    have ``ngroups`` global entries and feed ``Interpreter._wrap_agg``
    unchanged, exactly like ``operators.aggregate`` results do.
    """
    first = states[0]
    func = first.func
    arg_type = first.arg_type

    if func in ("count_star", "count"):
        total = np.zeros(ngroups, dtype=np.int64)
        for state, gmap in zip(states, gid_maps):
            np.add.at(total, gmap, state.data[0])
        return total, None

    if arg_type is not None and arg_type.is_variable:
        return _merge_string_minmax(func, states, gid_maps, ngroups)

    if func == "sum":
        exact = arg_type.category in _EXACT_SUM_CATEGORIES
        total = np.zeros(ngroups, dtype=np.int64 if exact else np.float64)
        counts = np.zeros(ngroups, dtype=np.int64)
        for state, gmap in zip(states, gid_maps):
            sums, part_counts = state.data
            np.add.at(total, gmap, sums)
            np.add.at(counts, gmap, part_counts)
        if exact and arg_type.category == T.TypeCategory.DECIMAL:
            # same final descale as the blocking kernel: bit-identical
            return total.astype(np.float64) / 10**arg_type.scale, counts == 0
        return total, counts == 0
    if func == "avg":
        total = np.zeros(ngroups, dtype=np.float64)
        counts = np.zeros(ngroups, dtype=np.int64)
        for state, gmap in zip(states, gid_maps):
            sums, part_counts = state.data
            np.add.at(total, gmap, sums)
            np.add.at(counts, gmap, part_counts)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = total / counts
        return out, counts == 0
    if func in ("min", "max"):
        # a morsel's empty groups hold the identity, so merging them in is
        # a no-op; the merge stays in the storage domain like the kernel
        out = ops.group_extremes(
            func,
            arg_type,
            np.concatenate([state.data[0] for state in states]),
            np.concatenate(gid_maps),
            ngroups,
        )
        counts = np.zeros(ngroups, dtype=np.int64)
        for state, gmap in zip(states, gid_maps):
            np.add.at(counts, gmap, state.data[1])
        return out, counts == 0
    if func == "median":
        values = np.concatenate([state.data[0] for state in states])
        gids = np.concatenate(
            [gmap[state.data[1]] for state, gmap in zip(states, gid_maps)]
        )
        present = np.ones(len(values), dtype=bool)
        return ops._median(values, present, gids, ngroups)
    if func in ("stddev", "var"):
        counts = np.zeros(ngroups, dtype=np.float64)
        sums = np.zeros(ngroups, dtype=np.float64)
        squares = np.zeros(ngroups, dtype=np.float64)
        for state, gmap in zip(states, gid_maps):
            part_counts, part_sums, part_squares = state.data
            np.add.at(counts, gmap, part_counts)
            np.add.at(sums, gmap, part_sums)
            np.add.at(squares, gmap, part_squares)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = sums / counts
            variance = squares / counts - mean**2
            variance = np.where(
                counts > 1, variance * counts / (counts - 1), np.nan
            )
        if func == "var":
            return variance, counts <= 1
        return np.sqrt(np.maximum(variance, 0)), counts <= 1
    raise DatabaseError(f"cannot merge partial states for {func!r}")


def _merge_string_minmax(func, states, gid_maps, ngroups):
    best: list = [None] * ngroups
    better = (
        (lambda a, b: a < b) if func == "min" else (lambda a, b: a > b)
    )
    for state, gmap in zip(states, gid_maps):
        values, missing = state.data
        for local, value in enumerate(values):
            if missing[local] or value is None:
                continue
            gid = int(gmap[local])
            current = best[gid]
            if current is None or better(value, current):
                best[gid] = value
    return (
        np.array(best, dtype=object),
        np.array([b is None for b in best]),
    )
