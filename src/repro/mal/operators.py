"""Bulk relational operator kernels (grouping, joins, sorting, distinct).

All kernels are "blocking" MAL operators in the paper's terminology: they
consume whole columns and produce whole columns.  Every kernel first turns
its keys into int64 codes with :func:`factorize` — the one place key codes
are made — so every algorithm runs on plain int64 arrays regardless of the
original key types.  Grouping, distinct and joins then work on a
:class:`~repro.index.hashindex.HashIndex` built over those codes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatabaseError
from repro.index.hashindex import HashIndex
from repro.mal.vectors import V
from repro.storage import types as T

__all__ = [
    "factorize",
    "group_by",
    "aggregate",
    "join_pairs",
    "semijoin_rows",
    "sort_rows",
    "topn_rows",
    "distinct_rows",
    "WindowContext",
    "window_context",
    "window_apply",
]

_INT64_MAX = int(np.iinfo(np.int64).max)


def factorize(*sides: list) -> list:
    """Key codes for one or more sides in one shared code space.

    Each side is a list of key vectors, one per key column, and every side
    has the same columns.  Returns one int64 code array per side.  Two rows
    of any sides get the same code exactly when their keys are equal under
    grouping rules: NULL equals NULL and differs from every value (``''``
    included), NaN is NULL, -0.0 equals 0.0, and integers compare exactly
    in int64.  Within a column NULL gets the smallest code and values keep
    their order, so composite codes order rows lexicographically.  Columns
    combine by multiply-and-add; the running codes are re-densified only
    when the product of the column cardinalities would overflow int64, so
    codes are not necessarily dense.
    """

    def dense(values):
        if values.dtype == object:
            # fixed-width NumPy strings sort far faster than Python objects
            values = np.asarray(values.tolist())
        uniques, inverse = np.unique(values, return_inverse=True)
        return inverse.astype(np.int64, copy=False), len(uniques)

    def dense_with_nulls(values, nulls):
        """Code 0 for NULL, one plus the value's dense rank otherwise."""
        ranks, card = dense(values[~nulls])
        codes = np.zeros(len(values), dtype=np.int64)
        codes[~nulls] = ranks + 1
        return codes, card + 1

    combined, space = None, 1
    for column in zip(*sides):
        if any(vec.type.is_variable for vec in column):
            # rank the pooled values of all sides (a heap contributes each
            # distinct slot once), then gather the codes back to the rows
            values, rows, base = [], [], 0
            for vec in column:
                if vec.heap is not None:
                    slots, inverse = np.unique(vec.data, return_inverse=True)
                    values.append(vec.heap.values_array()[slots])
                else:
                    values.append(vec.data)
                    inverse = np.arange(len(vec.data))
                rows.append(inverse + base)
                base += len(values[-1])
            pooled = np.concatenate(values)
            value_codes, card = dense_with_nulls(
                pooled, np.equal(pooled, None).astype(bool)
            )
            codes = value_codes[np.concatenate(rows)]
        else:
            data = np.concatenate([vec.data for vec in column])
            if data.dtype.kind != "f" and all(
                vec.data.dtype == data.dtype for vec in column
            ):
                # one integer domain: the NULL sentinel is its minimum, so
                # ranking the raw values gives NULL the smallest code
                codes, card = dense(data)
            else:
                # floats (NaN is NULL) or integer widths whose NULL
                # sentinels differ; the binder never mixes ints and floats
                codes, card = dense_with_nulls(
                    data,
                    np.concatenate(
                        [vec.type.is_null_array(vec.data) for vec in column]
                    ),
                )
        if combined is None:
            combined, space = codes, card
            continue
        if space * card > _INT64_MAX:
            combined, space = dense(combined)
        combined = combined * card + codes
        space *= card
    bounds = np.cumsum([len(side[0].data) for side in sides])[:-1]
    return np.split(combined, bounds)


def group_by(key_vecs: list) -> tuple:
    """Group rows by key vectors; returns (gids, reps, ngroups).

    ``gids`` assigns each row its dense group id (groups numbered in key
    order), ``reps`` holds the first row of each group (for materializing
    group-key output columns).
    """
    if not key_vecs:
        raise DatabaseError("group_by requires at least one key")
    (codes,) = factorize(key_vecs)
    index = HashIndex(codes)
    return index.group_ids(), index.representatives(), index.group_count()


def aggregate(func: str, arg: V | None, gids, ngroups: int, distinct: bool = False):
    """Compute one aggregate per group; returns (values, null_mask).

    ``gids=None`` (with ngroups=1) means a full-column aggregate.
    """
    if gids is None:
        gids = np.zeros(len(arg.data) if arg is not None else 0, dtype=np.int64)

    if func == "count_star":
        counts = np.bincount(gids, minlength=ngroups).astype(np.int64)
        return counts, None

    if arg is None:
        raise DatabaseError(f"aggregate {func} requires an argument")

    data = arg.data
    n = len(data) if isinstance(data, np.ndarray) else len(gids)
    if not isinstance(data, np.ndarray):  # broadcast scalar argument
        if arg.type.is_variable:
            data = np.full(n, 0, dtype=np.int64)
        else:
            fill = arg.type.null_value if arg.data is None else arg.data
            data = np.full(n, fill, dtype=arg.type.dtype)
        arg = V(arg.type, data, arg.heap)

    nulls = arg.null_mask(n)
    present = ~nulls if nulls is not None else np.ones(n, dtype=bool)

    if distinct:
        rows = np.flatnonzero(present)
        (pair,) = factorize([V(T.BIGINT, gids[rows]), arg.take(rows)])
        keep = rows[HashIndex(pair).representatives()]
        gids = gids[keep]
        data = data[keep]
        arg = V(arg.type, data, arg.heap)
        present = np.ones(len(keep), dtype=bool)
        nulls = None

    if func == "count":
        counts = np.bincount(gids[present], minlength=ngroups).astype(np.int64)
        return counts, None

    if arg.type.is_variable:
        return _string_minmax(func, arg, gids, ngroups)

    if func in ("min", "max"):
        out = group_extremes(
            func, arg.type, data[present], gids[present], ngroups
        )
        return out, np.bincount(gids[present], minlength=ngroups) == 0

    floats = _as_float(arg, data, nulls)

    if func == "sum":
        counts = np.bincount(gids[present], minlength=ngroups)
        if arg.type.category in (T.TypeCategory.INTEGER, T.TypeCategory.DECIMAL):
            # exact integer accumulation in the storage domain; decimals
            # descale once at the end, so the result is independent of the
            # summation order (sequential and morsel-partial paths agree
            # bit for bit)
            out = np.zeros(ngroups, dtype=np.int64)
            np.add.at(out, gids[present], data[present].astype(np.int64))
            if arg.type.category == T.TypeCategory.DECIMAL:
                return out.astype(np.float64) / 10**arg.type.scale, counts == 0
            return out, counts == 0
        sums = np.bincount(gids[present], weights=floats[present], minlength=ngroups)
        return sums, counts == 0
    if func == "avg":
        sums = np.bincount(gids[present], weights=floats[present], minlength=ngroups)
        counts = np.bincount(gids[present], minlength=ngroups)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = sums / counts
        return out, counts == 0
    if func == "median":
        return _median(floats, present, gids, ngroups)
    if func in ("stddev", "var"):
        counts = np.bincount(gids[present], minlength=ngroups)
        sums = np.bincount(gids[present], weights=floats[present], minlength=ngroups)
        squares = np.bincount(
            gids[present], weights=floats[present] ** 2, minlength=ngroups
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = sums / counts
            variance = squares / counts - mean**2
            variance = np.where(counts > 1, variance * counts / (counts - 1), np.nan)
        if func == "var":
            return variance, counts <= 1
        return np.sqrt(np.maximum(variance, 0)), counts <= 1
    raise DatabaseError(f"unknown aggregate {func!r}")


def group_extremes(func: str, sql_type: T.SQLType, values, gids, ngroups: int):
    """Per-group min/max of non-NULL ``values`` in the storage domain.

    Integers, decimals and dates stay in their storage dtype, so no value
    takes a float64 round trip; floats compare in float64.  Groups without
    a value keep the identity (the dtype's far extreme) for the caller's
    NULL mask to cover.
    """
    if sql_type.category == T.TypeCategory.FLOAT:
        dtype = np.dtype(np.float64)
        init = np.inf if func == "min" else -np.inf
    else:
        dtype = sql_type.dtype
        info = np.iinfo(dtype)
        init = info.max if func == "min" else info.min
    out = np.full(ngroups, init, dtype=dtype)
    ufunc = np.minimum if func == "min" else np.maximum
    ufunc.at(out, gids, values.astype(dtype, copy=False))
    return out


def _as_float(arg: V, data: np.ndarray, nulls) -> np.ndarray:
    if arg.type.category == T.TypeCategory.FLOAT:
        return data.astype(np.float64, copy=False)
    if arg.type.category == T.TypeCategory.DECIMAL:
        out = data.astype(np.float64) / 10**arg.type.scale
    else:
        out = data.astype(np.float64)
    if nulls is not None and nulls.any():
        out = out.copy()
        out[nulls] = np.nan
    return out


def _median(floats, present, gids, ngroups):
    """Per-group median via one value sort plus a stable group sort."""
    idx = np.flatnonzero(present)
    values = floats[idx]
    groups = gids[idx]
    order = np.argsort(values, kind="stable")
    order = order[np.argsort(groups[order], kind="stable")]
    sorted_values = values[order]
    counts = np.bincount(groups, minlength=ngroups)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out = np.full(ngroups, np.nan)
    nonempty = counts > 0
    lo = offsets + (counts - 1) // 2
    hi = offsets + counts // 2
    lo_vals = np.where(nonempty, sorted_values[np.minimum(lo, len(sorted_values) - 1)], np.nan)
    hi_vals = np.where(nonempty, sorted_values[np.minimum(hi, len(sorted_values) - 1)], np.nan)
    out = (lo_vals + hi_vals) / 2.0
    return out, counts == 0


def _string_minmax(func: str, arg: V, gids, ngroups):
    objects = arg.objects()
    best: list = [None] * ngroups
    if func == "min":
        for gid, value in zip(gids, objects):
            if value is None:
                continue
            current = best[gid]
            if current is None or value < current:
                best[gid] = value
    elif func == "max":
        for gid, value in zip(gids, objects):
            if value is None:
                continue
            current = best[gid]
            if current is None or value > current:
                best[gid] = value
    else:
        raise DatabaseError(f"aggregate {func} not defined for strings")
    return np.array(best, dtype=object), np.array([b is None for b in best])


# -- joins -----------------------------------------------------------------------------------


def _match_codes(left_vecs: list, right_vecs: list, null_equal: bool = False):
    """Both sides' key codes; a row with a NULL key gets -1 and never
    matches — unless ``null_equal``, where NULL equals NULL (the grouping
    semantics set operations use)."""
    codes = factorize(left_vecs, right_vecs)
    if null_equal:
        return codes
    return [
        np.where(_any_null(vecs, len(side)), -1, side)
        for vecs, side in zip((left_vecs, right_vecs), codes)
    ]


def _any_null(vecs: list, n: int) -> np.ndarray:
    """Rows where at least one of ``vecs`` is NULL."""
    mask = np.zeros(n, dtype=bool)
    for vec in vecs:
        nulls = vec.null_mask(n)
        if nulls is not None:
            mask |= nulls
    return mask


def join_pairs(left_vecs: list, right_vecs: list):
    """All matching (left_row, right_row) pairs of an equi-join.

    Sort-merge style: the right side's codes are ordered once into a
    :class:`HashIndex`, and the non-NULL left codes probe it with one
    binary search each — the behavior of a bulk hash join, implemented on
    sorted arrays.
    """
    left_codes, right_codes = _match_codes(left_vecs, right_vecs)
    rows = np.flatnonzero(left_codes >= 0)
    probe_idx, right_idx = HashIndex(right_codes).probe(left_codes[rows])
    return rows[probe_idx], right_idx


def semijoin_rows(
    left_vecs: list,
    right_vecs: list,
    anti: bool = False,
    null_equal: bool = False,
    null_aware: bool = False,
) -> np.ndarray:
    """Left row ids with (or without, for anti) a match on the right.

    ``null_equal`` switches from join semantics (NULL matches nothing) to
    the grouping semantics of INTERSECT/EXCEPT, where NULL equals NULL.
    ``null_aware`` with ``anti`` applies NOT IN's three-valued logic:
    an empty right side keeps every left row, any NULL on the right
    keeps none, and NULL left keys are dropped.
    """
    left_codes, right_codes = _match_codes(left_vecs, right_vecs, null_equal)
    if anti and null_aware:
        n = len(left_codes)
        if len(right_codes) == 0:
            return np.arange(n, dtype=np.int64)
        if np.any(right_codes < 0):
            return np.empty(0, dtype=np.int64)
        member = np.isin(left_codes, right_codes) | (left_codes < 0)
        return np.flatnonzero(~member).astype(np.int64)
    if null_equal:
        member = np.isin(left_codes, right_codes)
    else:
        member = np.isin(left_codes, right_codes[right_codes >= 0])
        member &= left_codes >= 0
    if anti:
        member = ~member
    return np.flatnonzero(member).astype(np.int64)


# -- sorting / distinct -------------------------------------------------------------------------


def sort_rows(key_vecs: list, descending: list, nulls_first: list) -> np.ndarray:
    """Stable multi-key sort; returns the row order.

    Default NULL placement follows MonetDB's sentinel encoding: NULLs sort
    as the smallest value unless ``nulls_first`` overrides it.
    """
    sort_keys = _sort_keys(key_vecs, descending, nulls_first)
    # np.lexsort sorts by the LAST key first
    return np.lexsort(sort_keys[::-1]).astype(np.int64)


def topn_rows(
    key_vecs: list,
    descending: list,
    nulls_first: list,
    limit: int,
    offset: int = 0,
) -> np.ndarray:
    """Row order of the first ``offset + limit`` rows under the sort keys.

    Fused top-N: an O(n) partition on the primary key narrows the input to
    the candidate rows that can appear in the window, and only those are
    fully sorted — instead of sorting the world and slicing.  Candidates
    keep their original row order, so ties resolve exactly as the stable
    full sort would and swapping this in for Sort+Limit is invisible.
    """
    n = len(key_vecs[0].data)
    k = min(offset + limit, n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    sort_keys = _sort_keys(key_vecs, descending, nulls_first)
    primary = sort_keys[0]
    if k < n:
        # kth-smallest primary code; every row that can make the window has
        # a code <= pivot (ties at the pivot stay in, the tail sort and the
        # final slice settle them)
        pivot = np.partition(primary, k - 1)[k - 1]
        candidates = np.flatnonzero(primary <= pivot)
        sub_keys = [codes[candidates] for codes in sort_keys]
    else:
        candidates = np.arange(n, dtype=np.int64)
        sub_keys = sort_keys
    order = np.lexsort(sub_keys[::-1])
    return candidates[order[:k]][offset:].astype(np.int64)


def _sort_keys(key_vecs: list, descending: list, nulls_first: list) -> list:
    """One int64 key per sort column whose ascending order is the wanted
    order: codes negated for DESC, NULLs moved before every value (the
    default, NULL being the sentinel minimum) or after every value."""
    keys = []
    for vec, desc, first in zip(key_vecs, descending, nulls_first):
        (codes,) = factorize([vec])
        if desc:
            codes = -codes
        nulls = vec.null_mask(len(codes))
        if nulls is not None and nulls.any():
            if first is None or first:
                codes[nulls] = codes.min() - 1
            else:
                codes[nulls] = codes.max() + 1
        keys.append(codes)
    return keys


# -- window functions ---------------------------------------------------------------------------


class WindowContext:
    """Shared sorted-order context for one OVER specification.

    Built once per distinct OVER spec and reused by every window function
    over it.  All positional arrays live in *sorted* order (partition keys
    primary, then ORDER BY keys, stable on input row order); ``order``
    maps sorted position -> original row and ``inverse`` maps back, so a
    kernel computes in sorted space and scatters its result to the
    original row order at the end.

    Deliberately a ``__slots__`` object rather than a tuple: tracing
    inspects instruction results by shape, and a bare tuple would be
    mistaken for a group-by triple.
    """

    __slots__ = (
        "n",
        "order",
        "inverse",
        "part_ids",
        "part_start_pos",
        "part_end_pos",
        "peer_start_pos",
        "peer_end_pos",
        "nparts",
    )

    def __init__(
        self,
        n,
        order,
        inverse,
        part_ids,
        part_start_pos,
        part_end_pos,
        peer_start_pos,
        peer_end_pos,
        nparts,
    ):
        self.n = n
        self.order = order
        self.inverse = inverse
        self.part_ids = part_ids
        self.part_start_pos = part_start_pos
        self.part_end_pos = part_end_pos
        self.peer_start_pos = peer_start_pos
        self.peer_end_pos = peer_end_pos
        self.nparts = nparts


def window_context(
    part_vecs: list,
    order_vecs: list,
    descending: list,
    nulls_first: list,
    n: int,
) -> WindowContext:
    """Sort once per OVER spec; derive partition and peer-group extents."""
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return WindowContext(0, empty, empty, empty, empty, empty, empty, empty, 0)

    part_codes = (
        factorize(part_vecs)[0] if part_vecs else np.zeros(n, dtype=np.int64)
    )
    order_codes = _sort_keys(order_vecs, descending, nulls_first)
    # np.lexsort sorts by the LAST key first: partition is primary, then
    # the ORDER BY keys in sequence; stability preserves input row order
    order = np.lexsort(tuple(order_codes[::-1]) + (part_codes,)).astype(np.int64)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n, dtype=np.int64)

    part_sorted = part_codes[order]
    part_new = np.empty(n, dtype=bool)
    part_new[0] = True
    part_new[1:] = part_sorted[1:] != part_sorted[:-1]

    peer_new = part_new.copy()
    for codes in order_codes:
        codes_sorted = codes[order]
        peer_new[1:] |= codes_sorted[1:] != codes_sorted[:-1]

    starts = np.flatnonzero(part_new)
    counts = np.diff(np.append(starts, n))
    part_ids = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    part_start_pos = np.repeat(starts, counts).astype(np.int64)
    part_end_pos = np.repeat(starts + counts - 1, counts).astype(np.int64)

    pstarts = np.flatnonzero(peer_new)
    pcounts = np.diff(np.append(pstarts, n))
    peer_start_pos = np.repeat(pstarts, pcounts).astype(np.int64)
    peer_end_pos = np.repeat(pstarts + pcounts - 1, pcounts).astype(np.int64)

    return WindowContext(
        n,
        order,
        inverse,
        part_ids,
        part_start_pos,
        part_end_pos,
        peer_start_pos,
        peer_end_pos,
        len(starts),
    )


def window_apply(func: str, arg: V | None, ctx: WindowContext, frame):
    """Evaluate one window function; returns (values, null_mask) in the
    ORIGINAL row order (``aggregate``'s return convention).

    ``frame`` is the normalized ``(unit, start, end)`` tuple or None for
    whole-partition evaluation.
    """
    n = ctx.n
    if n == 0:
        return np.empty(0, dtype=np.int64), None

    if arg is not None and not isinstance(arg.data, np.ndarray):
        # broadcast a scalar argument (same convention as ``aggregate``)
        if arg.type.is_variable:
            data = np.full(n, 0, dtype=np.int64)
        else:
            fill = arg.type.null_value if arg.data is None else arg.data
            data = np.full(n, fill, dtype=arg.type.dtype)
        arg = V(arg.type, data, arg.heap)

    idx = np.arange(n, dtype=np.int64)

    if func in ("row_number", "rank", "dense_rank"):
        if func == "row_number":
            out = idx - ctx.part_start_pos + 1
        elif func == "rank":
            out = ctx.peer_start_pos - ctx.part_start_pos + 1
        else:
            is_peer_start = idx == ctx.peer_start_pos
            peer_cum = np.cumsum(is_peer_start)
            out = peer_cum - peer_cum[ctx.part_start_pos] + 1
        return out[ctx.inverse].astype(np.int64), None

    if frame is None:
        # whole-partition aggregate, broadcast back over the rows
        sorted_arg = (
            V(arg.type, arg.data[ctx.order], arg.heap) if arg is not None else None
        )
        values, null_mask = aggregate(func, sorted_arg, ctx.part_ids, ctx.nparts)
        out = values[ctx.part_ids][ctx.inverse]
        mask = null_mask[ctx.part_ids][ctx.inverse] if null_mask is not None else None
        return out, mask

    lo, hi, valid = _frame_extents(ctx, frame, idx)

    if func == "count_star":
        cnt = np.where(valid, hi - lo + 1, 0).astype(np.int64)
        return cnt[ctx.inverse], None

    if arg is None:
        raise DatabaseError(f"window aggregate {func} requires an argument")

    data_s = arg.data[ctx.order]
    sorted_arg = V(arg.type, data_s, arg.heap)
    nulls_s = sorted_arg.null_mask(n)
    present = ~nulls_s if nulls_s is not None else np.ones(n, dtype=bool)

    lo_c = np.clip(lo, 0, n)
    hi1 = np.clip(hi + 1, 0, n)
    pcum = np.concatenate([[0], np.cumsum(present)])
    cnt = np.where(valid, pcum[hi1] - pcum[lo_c], 0).astype(np.int64)

    if func == "count":
        return cnt[ctx.inverse], None

    if func in ("sum", "avg"):
        if func == "sum" and arg.type.category in (
            T.TypeCategory.INTEGER,
            T.TypeCategory.DECIMAL,
        ):
            # exact int64 prefix sums in the storage domain (mirrors the
            # grouped kernel: decimals descale once at the end)
            ints = np.where(present, data_s.astype(np.int64), 0)
            prefix = np.concatenate([[0], np.cumsum(ints)])
            sums = np.where(valid, prefix[hi1] - prefix[lo_c], 0)
            if arg.type.category == T.TypeCategory.DECIMAL:
                out = sums.astype(np.float64) / 10**arg.type.scale
            else:
                out = sums
            return out[ctx.inverse], (cnt == 0)[ctx.inverse]
        floats = _as_float(sorted_arg, data_s, nulls_s)
        fvals = np.where(present, floats, 0.0)
        prefix = np.concatenate([[0.0], np.cumsum(fvals)])
        sums = np.where(valid, prefix[hi1] - prefix[lo_c], 0.0)
        if func == "avg":
            with np.errstate(invalid="ignore", divide="ignore"):
                sums = sums / cnt
        return sums[ctx.inverse], (cnt == 0)[ctx.inverse]

    if func in ("min", "max"):
        # the binder only admits UNBOUNDED PRECEDING .. CURRENT ROW here,
        # so a running (cumulative) extreme sampled at the frame end works
        return _window_running_extreme(
            func, sorted_arg, data_s, present, ctx, hi, cnt
        )

    raise DatabaseError(f"unknown window function {func!r}")


def _frame_extents(ctx: WindowContext, frame, idx):
    """Per-sorted-row frame [lo, hi] (inclusive) plus a non-empty mask."""
    unit, start, end = frame

    def bound_pos(bound, default):
        kind = bound[0]
        if kind == "unbounded_preceding":
            return ctx.part_start_pos
        if kind == "unbounded_following":
            return ctx.part_end_pos
        if kind == "current_row":
            return default
        offset = int(bound[1])
        return idx - offset if kind == "preceding" else idx + offset

    if unit == "range":
        # only UNBOUNDED PRECEDING .. CURRENT ROW survives binding: the
        # frame of a row extends to the end of its peer group
        lo = ctx.part_start_pos
        hi = ctx.peer_end_pos
    else:
        lo = np.maximum(bound_pos(start, idx), ctx.part_start_pos)
        hi = np.minimum(bound_pos(end, idx), ctx.part_end_pos)
    valid = lo <= hi
    return lo, hi, valid


def _window_running_extreme(func, sorted_arg, data_s, present, ctx, hi, cnt):
    """Cumulative per-partition min/max sampled at each row's frame end."""
    n = ctx.n
    if sorted_arg.type.is_variable:
        objects = sorted_arg.objects()
        running: list = [None] * n
        best = None
        for pos in range(n):
            if pos == ctx.part_start_pos[pos]:
                best = None
            value = objects[pos]
            if value is not None and (
                best is None
                or (func == "min" and value < best)
                or (func == "max" and value > best)
            ):
                best = value
            running[pos] = best
        out = np.array(running, dtype=object)[hi]
        mask = np.array([value is None for value in out])
        return out[ctx.inverse], mask[ctx.inverse]

    # segmented cumulative extreme over order-preserving value codes: each
    # partition's codes shift into their own disjoint int64 band (bands
    # decrease for min, increase for max) so earlier partitions can never
    # win inside later ones; absent values get a code outside every value
    # (below for max, above for min), and ``cnt`` masks all-NULL prefixes
    (codes,) = factorize([sorted_arg])
    ncodes = int(codes.max()) + 1 if n else 0
    values = np.empty(ncodes, dtype=data_s.dtype)
    values[codes] = data_s
    band = ctx.part_ids.astype(np.int64) * (ncodes + 1)
    if func == "min":
        run = np.minimum.accumulate(np.where(present, codes, ncodes) - band)
        run += band
    else:
        run = np.maximum.accumulate(np.where(present, codes, -1) + band)
        run -= band
    out = values[np.clip(run[hi], 0, max(ncodes - 1, 0))]
    return out[ctx.inverse], (cnt == 0)[ctx.inverse]


def distinct_rows(vecs: list) -> np.ndarray:
    """Row ids of the first occurrence of each distinct full row."""
    if not vecs:
        return np.zeros(1, dtype=np.int64)
    (codes,) = factorize(vecs)
    return np.sort(HashIndex(codes).representatives())
