"""Supernode detection and relaxed amalgamation.

A *supernode* is a maximal range of consecutive columns of ``L`` sharing the
same off-diagonal structure (paper Section 2.2).  Detection uses the
classic criterion: column ``j`` extends the supernode of ``j-1`` iff
``parent[j-1] == j`` and ``count[j-1] == count[j] + 1``, which together
force ``struct(j-1) = {j-1} ∪ struct(j)``.

Relaxed amalgamation optionally merges a child supernode into its parent
when that introduces only a small number of explicit zeros, trading storage
for larger dense blocks (bigger BLAS-3 calls, fewer tasks) — the classic
supernodal-solver knob the paper's block partitioning builds upon.

The production helpers here are vectorised over the flat
``(struct_ptr, struct_rows)`` arrays of :class:`~repro.symbolic.structure.
SymbolicL`; the original per-column loops are kept as bit-identity test
oracles.  Two structural facts make the vectorised path exact rather than
approximate:

* within a fundamental supernode ``[f..lc]``, ``struct(f)`` is exactly
  ``{f..lc}`` followed by the supernode's off-diagonal rows, so the
  member union is one slice of column ``f``'s structure — no per-member
  union needed; and
* a fundamental partition introduces exactly zero explicit zeros (each
  member's structure nests perfectly), so the original zero-counting pass
  is skipped outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .structure import SymbolicL

__all__ = [
    "AmalgamationOptions",
    "SupernodePartition",
    "detect_supernodes",
]


@dataclass(frozen=True)
class AmalgamationOptions:
    """Relaxation parameters for supernode amalgamation.

    Attributes
    ----------
    enabled:
        Master switch; when ``False`` only fundamental supernodes are used.
    max_zeros_ratio:
        A merge is allowed when the explicit zeros it introduces are at most
        this fraction of the merged panel's entries.
    max_width:
        Upper bound on merged supernode width (columns).
    """

    enabled: bool = True
    max_zeros_ratio: float = 0.15
    max_width: int = 256


@dataclass
class SupernodePartition:
    """Partition of columns into supernodes plus per-supernode structure.

    Attributes
    ----------
    sn_start:
        ``(nsup + 1,)`` first column of each supernode; ``sn_start[-1] == n``.
    sn_of_col:
        Supernode index of every column.
    structs:
        Per-supernode sorted off-diagonal row indices (all rows strictly
        greater than the supernode's last column).  When amalgamation is
        active these are unions over member columns, so member columns are
        treated as dense over this row set (explicit zeros allowed).
    parent_sn:
        Supernodal elimination tree (``-1`` for roots).
    zeros_introduced:
        Count of explicit zero entries stored due to amalgamation.
    """

    sn_start: np.ndarray
    sn_of_col: np.ndarray
    structs: list[np.ndarray]
    parent_sn: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    zeros_introduced: int = 0
    _struct_sizes: np.ndarray | None = field(default=None, repr=False, compare=False)
    _factor_nnz: int | None = field(default=None, repr=False, compare=False)

    @property
    def nsup(self) -> int:
        """Number of supernodes."""
        return self.sn_start.size - 1

    @property
    def n(self) -> int:
        """Number of columns."""
        return self.sn_of_col.size

    def columns(self, s: int) -> np.ndarray:
        """Column indices of supernode ``s``."""
        return np.arange(self.sn_start[s], self.sn_start[s + 1], dtype=np.int64)

    def width(self, s: int) -> int:
        """Number of columns of supernode ``s``."""
        return int(self.sn_start[s + 1] - self.sn_start[s])

    def first_col(self, s: int) -> int:
        """First column of supernode ``s``."""
        return int(self.sn_start[s])

    def last_col(self, s: int) -> int:
        """Last column of supernode ``s``."""
        return int(self.sn_start[s + 1] - 1)

    def panel_rows(self, s: int) -> np.ndarray:
        """All rows of supernode ``s``'s dense panel: own columns + struct."""
        return np.concatenate([self.columns(s), self.structs[s]])

    @property
    def struct_sizes(self) -> np.ndarray:
        """Off-diagonal row count per supernode (computed once, cached)."""
        if self._struct_sizes is None:
            self._struct_sizes = np.fromiter(
                (s.size for s in self.structs), dtype=np.int64, count=self.nsup)
        return self._struct_sizes

    def factor_nnz(self) -> int:
        """Entries stored in the supernodal factor (dense panels, lower part).

        Vectorised over the cached per-supernode sizes and memoised —
        planners and the service call this repeatedly on hot paths.
        """
        if self._factor_nnz is None:
            w = np.diff(self.sn_start)
            self._factor_nnz = int((w * (w + 1) // 2 + self.struct_sizes * w).sum())
        return self._factor_nnz


def _fundamental_boundaries(sym: SymbolicL) -> np.ndarray:
    """Boolean mask: ``True`` where a new supernode starts at that column."""
    n = sym.n
    new = np.ones(n, dtype=bool)
    if n > 1:
        chain = (sym.parent[:-1] == np.arange(1, n)) & \
                (sym.counts[:-1] == sym.counts[1:] + 1)
        new[1:] = ~chain
    return new


def _build_partition(sym: SymbolicL, new_mask: np.ndarray) -> SupernodePartition:
    """Assemble a partition from *fundamental* start-of-supernode flags.

    Exploits the fundamental chain identity: for supernode ``[f..lc]``,
    ``struct(f)`` starts with the member columns ``f..lc`` followed by
    exactly the supernode's off-diagonal union, so each supernode's rows
    are one slice of the flat structure arrays and no explicit zeros ever
    arise.  ``new_mask`` must therefore describe a fundamental partition
    (the general-mask original is kept as a test oracle).
    """
    n = sym.n
    starts = np.flatnonzero(new_mask)
    sn_start = np.append(starts, n).astype(np.int64)
    nsup = starts.size
    widths = np.diff(sn_start)
    sn_of_col = np.repeat(np.arange(nsup, dtype=np.int64), widths)

    ptr, rows = sym.struct_ptr, sym.struct_rows
    first = sn_start[:-1]
    lo = ptr[first] + widths  # skip the leading member columns f..lc
    hi = ptr[first + 1]
    structs = [rows[a:b] for a, b in zip(lo.tolist(), hi.tolist())]

    parent_sn = np.full(nsup, -1, dtype=np.int64)
    nz = hi > lo
    parent_sn[nz] = sn_of_col[rows[lo[nz]]]
    return SupernodePartition(sn_start=sn_start, sn_of_col=sn_of_col,
                              structs=structs, parent_sn=parent_sn,
                              zeros_introduced=0)


def _entries(width: int, nrows: int) -> int:
    """Stored entries of a ``width``-column panel with ``nrows`` off-diag rows."""
    return width * (width + 1) // 2 + nrows * width


def _amalgamate(fund: SupernodePartition, opts: AmalgamationOptions) -> tuple[np.ndarray, int]:
    """Greedy left-to-right merge pass over the fundamental partition.

    Returns the kept-start mask over fundamental supernodes and the
    explicit-zero total.  Scoring runs on flat width/size arrays; the
    running union stays a sorted array sliced by ``searchsorted`` (the
    structures are sorted, so the slice equals the original's boolean
    filter).
    """
    widths = np.diff(fund.sn_start).tolist()
    last_cols = (fund.sn_start[1:] - 1).tolist()
    sn_of_col = fund.sn_of_col
    keep_start = np.ones(fund.nsup, dtype=bool)
    cur_width = widths[0]
    cur_struct = fund.structs[0]
    cur_exact = _entries(cur_width, cur_struct.size)
    total_zeros = 0
    for s in range(1, fund.nsup):
        lc_s = last_cols[s]
        mergeable = (
            cur_struct.size > 0
            and sn_of_col[cur_struct[0]] == s
            and cur_width + widths[s] <= opts.max_width
        )
        if mergeable:
            w = cur_width + widths[s]
            tail = cur_struct[np.searchsorted(cur_struct, lc_s, side="right"):]
            merged_struct = np.union1d(tail, fund.structs[s])
            merged_entries = _entries(w, merged_struct.size)
            exact = cur_exact + _entries(widths[s], fund.structs[s].size)
            zeros = merged_entries - exact
            if zeros <= opts.max_zeros_ratio * merged_entries:
                keep_start[s] = False
                cur_width = w
                cur_struct = merged_struct
                cur_exact = exact
                total_zeros += zeros
                continue
        cur_width = widths[s]
        cur_struct = fund.structs[s]
        cur_exact = _entries(cur_width, cur_struct.size)
    return keep_start, int(total_zeros)


def _regroup(fund: SupernodePartition, keep_start: np.ndarray, n: int,
             total_zeros: int) -> SupernodePartition:
    """Materialise the amalgamated partition from the kept-start mask.

    Group membership is recovered with two ``searchsorted`` passes
    (fundamental supernodes fall in contiguous runs per group) instead of
    the original O(nsup²) member scan; single-member groups reuse the
    fundamental structure array outright.
    """
    starts = fund.sn_start[:-1][keep_start]
    sn_start = np.append(starts, n).astype(np.int64)
    nsup = starts.size
    sn_of_col = np.repeat(np.arange(nsup, dtype=np.int64), np.diff(sn_start))

    grp = np.searchsorted(sn_start, fund.sn_start[:-1], side="right") - 1
    gids = np.arange(nsup)
    lo = np.searchsorted(grp, gids, side="left").tolist()
    hi = np.searchsorted(grp, gids, side="right").tolist()
    last_cols = (sn_start[1:] - 1).tolist()

    structs: list[np.ndarray] = []
    for g in range(nsup):
        a, b = lo[g], hi[g]
        if b - a == 1:
            structs.append(fund.structs[a])
        else:
            union = np.unique(np.concatenate(fund.structs[a:b]))
            structs.append(union[np.searchsorted(union, last_cols[g], side="right"):])

    firsts = np.fromiter((s[0] if s.size else -1 for s in structs),
                         dtype=np.int64, count=nsup)
    parent_sn = np.full(nsup, -1, dtype=np.int64)
    nz = firsts >= 0
    parent_sn[nz] = sn_of_col[firsts[nz]]
    return SupernodePartition(sn_start=sn_start, sn_of_col=sn_of_col,
                              structs=structs, parent_sn=parent_sn,
                              zeros_introduced=total_zeros)


def detect_supernodes(
    sym: SymbolicL, amalgamation: AmalgamationOptions | None = None
) -> SupernodePartition:
    """Partition columns into supernodes (fundamental, optionally relaxed).

    Relaxation is a single left-to-right greedy pass over the fundamental
    partition: a running group absorbs the next fundamental supernode when
    (a) the group's parent in the supernodal etree is exactly that next
    supernode (so columns stay contiguous and dependencies nest), and
    (b) the explicit zeros introduced stay within the configured budget.
    """
    opts = amalgamation or AmalgamationOptions(enabled=False)
    fund = _build_partition(sym, _fundamental_boundaries(sym))
    if not opts.enabled or fund.nsup <= 1:
        return fund
    keep_start, total_zeros = _amalgamate(fund, opts)
    return _regroup(fund, keep_start, sym.n, total_zeros)
