"""Symbolic-phase oracles: the original per-column loops, verbatim.

``column_structures`` (subtree merge), ``detect_supernodes_reference``
(per-column partition build + O(nsup²) regroup) and
``partition_blocks_reference`` (per-supernode block loop) are the
implementations the flat/vectorised ``repro.symbolic`` code replaced.
:func:`analyze_reference` chains them behind the oracle orderings of
:mod:`tests.oracles.ordering` — the whole original cold path, phase for
phase — so ``tests/property/test_coldpath_identity.py`` can compare it
with :func:`repro.symbolic.analyze`.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.ordering.base import compute_ordering
from repro.ordering.permutation import Permutation
from repro.sparse.csc import SymmetricCSC
from repro.symbolic.analysis import SymbolicAnalysis
from repro.symbolic.blocks import Block, BlockPartition
from repro.symbolic.etree import children_lists, elimination_tree
from repro.symbolic.structure import SymbolicL
from repro.symbolic.supernodes import AmalgamationOptions, SupernodePartition

from .ordering import (
    amd_reference_order,
    minimum_degree_order_reference,
    nd_order,
    rcm_order,
    scotch_like_order,
)


def column_structures(
    lower: sp.csc_matrix, parent: np.ndarray | None = None
) -> list[np.ndarray]:
    """Sorted nonzero row indices of every column of ``L`` (reference).

    The retained subtree-merge implementation; the production path is
    :func:`repro.symbolic.column_structures_flat`.

    Parameters
    ----------
    lower:
        Lower triangle of the symmetric input matrix (canonical CSC).
    parent:
        Optional precomputed elimination tree.
    """
    lower = sp.csc_matrix(lower)
    n = lower.shape[0]
    if parent is None:
        parent = elimination_tree(lower)
    kids = children_lists(parent)
    structs: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    indptr, indices = lower.indptr, lower.indices
    for j in range(n):
        pieces = [np.asarray([j], dtype=np.int64)]
        a_rows = indices[indptr[j] : indptr[j + 1]]
        pieces.append(a_rows[a_rows > j].astype(np.int64))
        for c in kids[j]:
            child = structs[c]
            pieces.append(child[child > j])
        merged = np.unique(np.concatenate(pieces))
        structs[j] = merged
    return structs


def symbolic_reference(lower: sp.csc_matrix) -> SymbolicL:
    """``SymbolicL`` whose structures come from :func:`column_structures`."""
    lower = sp.csc_matrix(lower)
    parent = elimination_tree(lower)
    structs = column_structures(lower, parent)
    struct_ptr = np.zeros(len(structs) + 1, dtype=np.int64)
    np.cumsum([s.size for s in structs], out=struct_ptr[1:])
    struct_rows = np.concatenate(structs) if structs else np.empty(0, np.int64)
    return SymbolicL.from_arrays(lower, parent, struct_ptr, struct_rows)


def _entries(width: int, nrows: int) -> int:
    """Stored entries of a ``width``-column panel with ``nrows`` off-diag rows."""
    return width * (width + 1) // 2 + nrows * width


def _fundamental_boundaries_reference(sym: SymbolicL) -> np.ndarray:
    """Per-column loop version of ``_fundamental_boundaries`` (oracle)."""
    n = sym.n
    new = np.ones(n, dtype=bool)
    for j in range(1, n):
        if sym.parent[j - 1] == j and sym.counts[j - 1] == sym.counts[j] + 1:
            new[j] = False
    return new


def _build_partition_reference(sym: SymbolicL, new_mask: np.ndarray) -> SupernodePartition:
    """Per-column partition assembly for an arbitrary mask (oracle)."""
    n = sym.n
    starts = np.flatnonzero(new_mask)
    sn_start = np.append(starts, n).astype(np.int64)
    sn_of_col = np.empty(n, dtype=np.int64)
    nsup = starts.size
    for s in range(nsup):
        sn_of_col[sn_start[s] : sn_start[s + 1]] = s

    structs: list[np.ndarray] = []
    zeros = 0
    for s in range(nsup):
        lc = sn_start[s + 1] - 1
        pieces = [st[st > lc] for st in
                  (sym.structs[j] for j in range(sn_start[s], sn_start[s + 1]))]
        union = np.unique(np.concatenate(pieces)) if pieces else np.empty(0, np.int64)
        structs.append(union.astype(np.int64))
        # Explicit zeros: panel cells present in the union but absent from a
        # member column's true structure.
        width = int(sn_start[s + 1] - sn_start[s])
        true_offdiag = sum(p.size for p in pieces)
        zeros += union.size * width - true_offdiag
        # Dense triangle zeros inside the diagonal block:
        for j in range(sn_start[s], sn_start[s + 1]):
            in_block = sym.structs[j][(sym.structs[j] >= j) & (sym.structs[j] <= lc)]
            zeros += (lc - j + 1) - in_block.size

    parent_sn = np.full(nsup, -1, dtype=np.int64)
    for s in range(nsup):
        if structs[s].size:
            parent_sn[s] = sn_of_col[structs[s][0]]
    return SupernodePartition(sn_start=sn_start, sn_of_col=sn_of_col,
                              structs=structs, parent_sn=parent_sn,
                              zeros_introduced=int(zeros))


def detect_supernodes_reference(
    sym: SymbolicL, amalgamation: AmalgamationOptions | None = None
) -> SupernodePartition:
    """The retained per-column/per-supernode loop pipeline (oracle).

    Bit-identical to :func:`repro.symbolic.detect_supernodes`.
    """
    opts = amalgamation or AmalgamationOptions(enabled=False)
    fund = _build_partition_reference(sym, _fundamental_boundaries_reference(sym))
    if not opts.enabled or fund.nsup <= 1:
        return fund

    keep_start = np.ones(fund.nsup, dtype=bool)  # group boundaries to keep
    cur_width = fund.width(0)
    cur_struct = fund.structs[0]
    cur_exact = _entries(cur_width, cur_struct.size)
    total_zeros = 0
    for s in range(1, fund.nsup):
        lc_s = fund.last_col(s)
        mergeable = (
            cur_struct.size > 0
            and fund.sn_of_col[cur_struct[0]] == s
            and cur_width + fund.width(s) <= opts.max_width
        )
        if mergeable:
            w = cur_width + fund.width(s)
            merged_struct = np.union1d(cur_struct[cur_struct > lc_s],
                                       fund.structs[s])
            merged_entries = _entries(w, merged_struct.size)
            exact = cur_exact + _entries(fund.width(s), fund.structs[s].size)
            zeros = merged_entries - exact
            if zeros <= opts.max_zeros_ratio * merged_entries:
                keep_start[s] = False
                cur_width = w
                cur_struct = merged_struct
                cur_exact = exact
                total_zeros += zeros
                continue
        cur_width = fund.width(s)
        cur_struct = fund.structs[s]
        cur_exact = _entries(cur_width, cur_struct.size)

    starts = fund.sn_start[:-1][keep_start]
    n = sym.n
    sn_start = np.append(starts, n).astype(np.int64)
    nsup = starts.size
    sn_of_col = np.empty(n, dtype=np.int64)
    for g in range(nsup):
        sn_of_col[sn_start[g] : sn_start[g + 1]] = g

    structs: list[np.ndarray] = []
    for g in range(nsup):
        lc = sn_start[g + 1] - 1
        members = [fund.structs[s] for s in range(fund.nsup)
                   if sn_start[g] <= fund.sn_start[s] < sn_start[g + 1]]
        union = np.unique(np.concatenate(members)) if members else np.empty(0, np.int64)
        structs.append(union[union > lc].astype(np.int64))

    parent_sn = np.full(nsup, -1, dtype=np.int64)
    for g in range(nsup):
        if structs[g].size:
            parent_sn[g] = sn_of_col[structs[g][0]]
    return SupernodePartition(sn_start=sn_start, sn_of_col=sn_of_col,
                              structs=structs, parent_sn=parent_sn,
                              zeros_introduced=int(total_zeros))


def partition_blocks_reference(part: SupernodePartition) -> BlockPartition:
    """The retained per-supernode loop (bit-identity oracle)."""
    blocks: list[list[Block]] = []
    sn_of_col = part.sn_of_col
    for k in range(part.nsup):
        struct = part.structs[k]
        out: list[Block] = []
        if struct.size:
            owner = sn_of_col[struct]
            # Run boundaries where the owning supernode changes.
            cut = np.flatnonzero(np.diff(owner)) + 1
            starts = np.concatenate([[0], cut])
            ends = np.concatenate([cut, [struct.size]])
            for s, e in zip(starts, ends):
                out.append(Block(src=k, tgt=int(owner[s]),
                                 rows=struct[s:e], offset=int(s)))
        blocks.append(out)
    return BlockPartition(part=part, blocks=blocks)


def analyze_reference(
    a: SymmetricCSC,
    ordering: str | Permutation = "scotch_like",
    amalgamation: AmalgamationOptions | None = None,
) -> SymbolicAnalysis:
    """The original cold path, phase for phase.

    Runs the same pipeline as :func:`repro.symbolic.analyze` but through
    the oracle of every accelerated stage: the per-vertex graph helpers
    and set-of-sets minimum degree inside nested dissection, the
    original Cuthill-McKee, the subtree-merge column structures, the
    per-column supernode build and O(nsup²) regroup, and the
    per-supernode block loop.
    """
    t0 = time.perf_counter()
    if isinstance(ordering, Permutation):
        perm = ordering
    elif ordering == "scotch_like":
        perm = Permutation(scotch_like_order(a, md=minimum_degree_order_reference))
    elif ordering == "nd":
        perm = Permutation(nd_order(a, md=minimum_degree_order_reference))
    elif ordering == "amd":
        perm = Permutation(amd_reference_order(a))
    elif ordering == "rcm":
        perm = Permutation(rcm_order(a))
    else:
        perm = compute_ordering(a, ordering)
    a_perm = a.permuted(perm.perm)

    t1 = time.perf_counter()
    symbolic = symbolic_reference(a_perm.lower)
    t2 = time.perf_counter()
    amalg = amalgamation if amalgamation is not None else AmalgamationOptions()
    supernodes = detect_supernodes_reference(symbolic, amalg)
    blocks = partition_blocks_reference(supernodes)
    t3 = time.perf_counter()
    phases = {"ordering": t1 - t0, "symbolic": t2 - t1, "blocks": t3 - t2}
    return SymbolicAnalysis(a_perm=a_perm, perm=perm, symbolic=symbolic,
                            supernodes=supernodes, blocks=blocks,
                            phase_seconds=phases)
