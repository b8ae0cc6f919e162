"""Hash index over a column, built automatically for join/group keys.

Physically a CSR layout over the *sorted distinct values* of the column:
``values`` (sorted unique), ``starts`` (group offsets), and ``rowids``
(row numbers ordered by value).  Probing vectorizes to one
``np.searchsorted`` per probe array — behaviorally a bulk hash lookup,
which is what MonetDB's hash BATs provide to joins and group-bys.  The
bulk kernels in :mod:`repro.mal.operators` build a transient one over key
codes for grouping, distinct and the sort-merge join.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HashIndex"]


class HashIndex:
    """CSR-shaped value -> rowids index over one storage array."""

    __slots__ = ("values", "starts", "rowids", "nrows")

    def __init__(self, data: np.ndarray):
        order = np.argsort(data, kind="stable")
        sorted_values = data[order]
        boundaries = np.empty(len(data), dtype=bool)
        if len(data):
            boundaries[0] = True
            np.not_equal(sorted_values[1:], sorted_values[:-1], out=boundaries[1:])
        self.values = sorted_values[boundaries]
        self.starts = np.flatnonzero(boundaries)
        self.rowids = order.astype(np.int64)
        self.nrows = len(data)

    def group_count(self) -> int:
        """Number of distinct values."""
        return len(self.values)

    def group_ids(self) -> np.ndarray:
        """Per-row dense group id (rows sharing a value share an id)."""
        gids = np.empty(self.nrows, dtype=np.int64)
        sizes = np.diff(np.append(self.starts, self.nrows))
        gids[self.rowids] = np.repeat(np.arange(len(self.values)), sizes)
        return gids

    def representatives(self) -> np.ndarray:
        """One row id per distinct value (the first in value order)."""
        return self.rowids[self.starts]

    def probe(self, probes: np.ndarray):
        """Bulk lookup: returns (probe_idx, row_idx) match pairs.

        For every probe value, every row holding that value is paired with
        the probe's position — the building block of a hash join where this
        column is the build side.  Pairs come out by probe position, and
        the rows of one probe in row order.
        """
        positions, hit = self._lookup(probes)
        hits = np.flatnonzero(hit)
        ends = np.append(self.starts, self.nrows)
        group = positions[hits]
        counts = ends[group + 1] - ends[group]
        # expand each hit into its group's slice of ``rowids``
        offsets = np.arange(int(counts.sum())) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        row_idx = self.rowids[np.repeat(ends[group], counts) + offsets]
        return np.repeat(hits, counts), row_idx

    def contains(self, probes: np.ndarray) -> np.ndarray:
        """Vectorized membership test (semi-join support)."""
        return self._lookup(probes)[1]

    def _lookup(self, probes: np.ndarray):
        """(candidate group, hit mask) per probe: one binary search each."""
        if not len(self.values):
            return np.zeros(len(probes), dtype=np.int64), np.zeros(
                len(probes), dtype=bool
            )
        positions = np.searchsorted(self.values, probes)
        np.minimum(positions, len(self.values) - 1, out=positions)
        return positions, self.values[positions] == probes

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.starts.nbytes + self.rowids.nbytes
