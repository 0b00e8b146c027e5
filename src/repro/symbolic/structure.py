"""Column structures of the Cholesky factor.

Computes, for every column ``j``, the sorted row indices of the nonzeros of
``L[:, j]`` (diagonal included).

:func:`column_structures_flat` does one row walk per nonzero of ``A``: row
``i`` is appended to every column on the etree path from each
``a_ij != 0`` up toward ``i`` (the *row subtree* of ``i``), deduplicated
with an ``O(n)`` mark array.  Total work is ``O(nnz(L))`` native-int
operations, the output is a CSR-style pair of flat
``(struct_ptr, struct_rows)`` arrays preallocated from the
Gilbert-Ng-Peyton column counts — no per-column Python lists.  The walk
cross-validates its fill pointers against those independently derived
counts on every call; property tests assert bit-identity with the
original subtree merge (kept as a test oracle).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .colcounts import column_counts_gnp
from .etree import elimination_tree

__all__ = [
    "SymbolicL",
    "column_counts",
    "column_structures_flat",
    "factor_nnz",
]


def column_structures_flat(
    lower: sp.csc_matrix,
    parent: np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat CSR-style column structures ``(struct_ptr, struct_rows)``.

    ``struct_rows[struct_ptr[j]:struct_ptr[j + 1]]`` holds the sorted
    nonzero row indices of ``L[:, j]`` (diagonal included) — bit-identical
    to the original per-column subtree merge.

    Parameters
    ----------
    lower:
        Lower triangle of the symmetric input matrix (canonical CSC).
    parent:
        Optional precomputed elimination tree.
    counts:
        Optional precomputed column counts (used to preallocate).
    """
    lower = sp.csc_matrix(lower)
    n = lower.shape[0]
    if parent is None:
        parent = elimination_tree(lower)
    if counts is None:
        counts = column_counts_gnp(lower, parent)
    struct_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=struct_ptr[1:])
    if n == 0:
        return struct_ptr, np.empty(0, dtype=np.int64)

    # Root sentinel n makes the `j < i` walk guard double as the
    # end-of-path test (n is never < i).
    par = [n if p == -1 else p for p in np.asarray(parent).tolist()]
    rows: list[int] = [0] * int(struct_ptr[n])
    fill = struct_ptr[:n].tolist()
    for j in range(n):  # diagonal first: the smallest entry of each column
        f = fill[j]
        rows[f] = j
        fill[j] = f + 1

    csr = lower.tocsr()
    rptr = csr.indptr.tolist()
    rind = csr.indices.tolist()
    mark = [-1] * n
    for i in range(n):
        for p in range(rptr[i], rptr[i + 1]):
            j = rind[p]
            while j < i and mark[j] != i:
                mark[j] = i
                f = fill[j]
                rows[f] = i
                fill[j] = f + 1
                j = par[j]

    # Cross-validation: the row walk must land exactly on the
    # Gilbert-Ng-Peyton counts used for preallocation.
    if fill != struct_ptr[1:].tolist():
        raise ValueError("row-walk structure sizes disagree with "
                         "Gilbert-Ng-Peyton column counts")
    return struct_ptr, np.asarray(rows, dtype=np.int64)


def column_counts(lower: sp.csc_matrix, parent: np.ndarray | None = None) -> np.ndarray:
    """Nonzero count of every column of ``L`` (diagonal included)."""
    ptr, _ = column_structures_flat(lower, parent)
    return np.diff(ptr)


def factor_nnz(lower: sp.csc_matrix) -> int:
    """Total nonzeros of ``L`` (diagonal included)."""
    return int(column_counts_gnp(lower).sum())


def _struct_views(struct_ptr: np.ndarray, struct_rows: np.ndarray) -> list[np.ndarray]:
    """Per-column views into the flat row array (no copies)."""
    bounds = struct_ptr.tolist()
    return [struct_rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class SymbolicL:
    """The symbolic Cholesky factor: elimination tree + column structures.

    A light bundle so downstream phases (supernode detection, block
    partitioning) do not recompute the structure pass.  The structures
    live in flat ``(struct_ptr, struct_rows)`` arrays; ``structs`` holds
    per-column views into them for consumers indexed by column.
    """

    def __init__(self, lower: sp.csc_matrix):
        self.lower = sp.csc_matrix(lower)
        self.n = self.lower.shape[0]
        self.parent = elimination_tree(self.lower)
        self.struct_ptr, self.struct_rows = column_structures_flat(
            self.lower, self.parent)
        self.structs = _struct_views(self.struct_ptr, self.struct_rows)
        self.counts = np.diff(self.struct_ptr)

    @classmethod
    def from_arrays(cls, lower: sp.csc_matrix, parent: np.ndarray,
                    struct_ptr: np.ndarray, struct_rows: np.ndarray) -> "SymbolicL":
        """Rebuild from precomputed arrays (the AnalysisCache hit path).

        Skips both the elimination-tree and the structure pass entirely.
        """
        self = cls.__new__(cls)
        self.lower = sp.csc_matrix(lower)
        self.n = self.lower.shape[0]
        self.parent = np.asarray(parent, dtype=np.int64)
        self.struct_ptr = np.asarray(struct_ptr, dtype=np.int64)
        self.struct_rows = np.asarray(struct_rows, dtype=np.int64)
        self.structs = _struct_views(self.struct_ptr, self.struct_rows)
        self.counts = np.diff(self.struct_ptr)
        return self

    @property
    def nnz(self) -> int:
        """Total structural nonzeros of ``L``."""
        return int(self.counts.sum())

    def fill_in(self) -> int:
        """Number of fill entries (nonzeros of ``L`` absent from ``A``)."""
        return self.nnz - int(self.lower.nnz)
