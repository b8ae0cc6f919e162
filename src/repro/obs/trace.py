"""Per-instruction accounting for instruction spans (MonetDB's TRACE).

The interpreter's instrumented loop annotates each instruction span with
the input and output cardinality (:func:`instruction_inputs`,
:func:`cardinality`) and the bytes touched (:func:`value_nbytes`) of the
instruction it ran; the morsel executor's fragment analysis reuses
:func:`instruction_inputs`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cardinality",
    "instruction_inputs",
    "value_nbytes",
]


# -- cardinality extraction ---------------------------------------------------------


def cardinality(value) -> int:
    """Row count carried by one interpreter value.

    Values are vectors (V), predicates (BoolVec), id arrays, join pairs
    ``(lidx, ridx)``, or groupby triples ``(gids, reps, ngroups)``.
    """
    if value is None:
        return 0
    # V / Column duck type: .data plus .is_scalar
    is_scalar = getattr(value, "is_scalar", None)
    if is_scalar is not None:
        if is_scalar:
            return 1
        return len(value.data)
    truth = getattr(value, "truth", None)  # BoolVec
    if truth is not None:
        return len(truth)
    if isinstance(value, np.ndarray):
        return int(value.shape[0]) if value.ndim else 1
    if isinstance(value, tuple):
        if len(value) == 3:  # groupby: (gids, reps, ngroups)
            return int(value[2])
        if len(value) == 2:  # join pair: (lidx, ridx)
            return len(value[0])
    n = getattr(value, "n", None)  # WindowContext
    if n is not None:
        return int(n)
    return 0


def value_nbytes(value) -> int:
    """Approximate bytes touched producing one interpreter value.

    Sums the backing array sizes of the shapes the interpreter passes
    around (vectors, predicates, id arrays, join pairs, groupby triples);
    string heap bytes are not counted — this prices array traffic, the
    quantity the span tracer reports as ``bytes``.
    """
    if value is None:
        return 0
    data = getattr(value, "data", None)  # V duck type
    if data is not None and hasattr(data, "nbytes"):
        return int(data.nbytes)
    truth = getattr(value, "truth", None)  # BoolVec
    if truth is not None:
        total = int(truth.nbytes)
        valid = getattr(value, "valid", None)
        if valid is not None:
            total += int(valid.nbytes)
        return total
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, tuple):
        return sum(
            int(part.nbytes)
            for part in value
            if isinstance(part, np.ndarray)
        )
    return 0


#: arg positions (or nested tuples of positions) holding variable references,
#: per op.  Used to reconstruct an instruction's input cardinality.
def instruction_inputs(instruction) -> tuple:
    """Variable indexes read by one instruction."""
    op = instruction.op
    args = instruction.args
    if op in ("bind", "dual"):
        return ()
    if op in ("map", "pred"):
        return tuple(args[1])
    if op in ("ids", "head", "pair_left", "pair_right", "gb_ids", "gb_reps"):
        return (args[0],)
    if op in ("take", "concat"):
        return (args[0], args[1])
    if op == "join":
        anchors = tuple(a for a in args[3] if a is not None)
        return tuple(args[0]) + tuple(args[1]) + anchors
    if op == "semijoin":
        return tuple(args[0]) + tuple(args[1])
    if op in ("groupby", "sort", "topn", "distinct", "result"):
        return tuple(args[0])
    if op == "agg":
        # (func, arg_var, gids_var, group_var, distinct, anchor_var, rtype,
        #  filter_var)
        keep = args[7] if len(args) > 7 else None
        return tuple(
            v
            for v in (args[1], args[2], args[3], args[5], keep)
            if v is not None
        )
    if op == "winctx":
        # (part_vars, order_vars, descending, nulls_first, anchor_var)
        anchor = (args[4],) if args[4] is not None else ()
        return tuple(args[0]) + tuple(args[1]) + anchor
    if op == "winfunc":
        # (func, arg_var, wctx_var, frame, rtype, anchor_var)
        return tuple(
            v for v in (args[1], args[2], args[5]) if v is not None
        )
    if op == "setop_ids":
        return tuple(args[2]) + tuple(args[3])
    return ()
