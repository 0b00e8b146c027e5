"""Symbolic analysis facade.

Bundles the full symbolic phase of symPACK — ordering, elimination tree,
column structures, supernode detection, block partitioning — behind one
object, mirroring the solver's "analyze once, factorize many times"
workflow (the repeated-factorization applications in paper Section 5.3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..ordering.base import compute_ordering
from ..ordering.permutation import Permutation
from ..sparse.csc import SymmetricCSC
from .blocks import BlockPartition, partition_blocks
from .structure import SymbolicL
from .supernodes import AmalgamationOptions, SupernodePartition, detect_supernodes

__all__ = ["SymbolicAnalysis", "analyze", "rebind_analysis_values"]


@dataclass
class SymbolicAnalysis:
    """Complete symbolic factorization of a permuted SPD matrix.

    Attributes
    ----------
    a_perm:
        The permuted matrix ``P A P^T`` (lower triangle) that the numeric
        phase factors.
    perm:
        The fill-reducing permutation applied.
    symbolic:
        Column-level structures and elimination tree of ``L``.
    supernodes:
        The supernode partition (possibly amalgamated).
    blocks:
        Algorithm 2 block partition.
    phase_seconds:
        Wall-clock seconds per cold-path phase (``ordering`` /
        ``symbolic`` / ``blocks``; ``cache_load`` when rebuilt from the
        AnalysisCache, in which case the compute phases report 0.0).
    """

    a_perm: SymmetricCSC
    perm: Permutation
    symbolic: SymbolicL
    supernodes: SupernodePartition
    blocks: BlockPartition
    phase_seconds: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.a_perm.n

    @property
    def nsup(self) -> int:
        """Number of supernodes."""
        return self.supernodes.nsup

    def factor_nnz(self) -> int:
        """Entries stored in the supernodal factor panels."""
        return self.supernodes.factor_nnz()

    def factor_flops(self) -> float:
        """Cholesky flop count: ``sum_j count(j)^2`` (classic estimate)."""
        c = self.symbolic.counts.astype(np.float64)
        return float(np.sum(c * c))

    def stats(self) -> dict[str, float]:
        """Headline symbolic statistics for reports and tests."""
        widths = np.diff(self.supernodes.sn_start)
        return {
            "n": float(self.n),
            "nnz_A": float(self.a_perm.nnz_full),
            "nnz_L": float(self.symbolic.nnz),
            "fill_in": float(self.symbolic.fill_in()),
            "nsup": float(self.nsup),
            "max_supernode_width": float(widths.max()) if widths.size else 0.0,
            "mean_supernode_width": float(widths.mean()) if widths.size else 0.0,
            "n_blocks": float(self.blocks.n_blocks()),
            "factor_flops": self.factor_flops(),
            "amalgamation_zeros": float(self.supernodes.zeros_introduced),
        }


def analyze(
    a: SymmetricCSC,
    ordering: str | Permutation = "scotch_like",
    amalgamation: AmalgamationOptions | None = None,
    postorder_etree: bool = False,
) -> SymbolicAnalysis:
    """Run the full symbolic phase on ``a``.

    Parameters
    ----------
    a:
        Symmetric positive definite input matrix.
    ordering:
        Either a registered ordering name (default the Scotch-like nested
        dissection used in the paper) or an explicit permutation.
    amalgamation:
        Supernode relaxation options; defaults to a mild relaxation, which
        matches production supernodal solvers.
    postorder_etree:
        Apply the elimination-tree postorder as an *equivalent reordering*
        before supernode detection.  This leaves ``nnz(L)`` unchanged
        (topological reorderings of the etree are fill-equivalent) but
        makes subtrees contiguous, which helps fundamental supernode
        detection on some orderings.  Off by default to match the recorded
        benchmark numbers.
    """
    t0 = time.perf_counter()
    if isinstance(ordering, Permutation):
        perm = ordering
    else:
        perm = compute_ordering(a, ordering)
    a_perm = a.permuted(perm.perm)

    if postorder_etree:
        from .etree import elimination_tree, postorder

        parent = elimination_tree(a_perm.lower)
        post = postorder(parent)
        perm = Permutation(post).compose(perm)
        a_perm = a.permuted(perm.perm)

    t1 = time.perf_counter()
    symbolic = SymbolicL(a_perm.lower)
    t2 = time.perf_counter()
    amalg = amalgamation if amalgamation is not None else AmalgamationOptions()
    supernodes = detect_supernodes(symbolic, amalg)
    blocks = partition_blocks(supernodes)
    t3 = time.perf_counter()
    phases = {"ordering": t1 - t0, "symbolic": t2 - t1, "blocks": t3 - t2}
    return SymbolicAnalysis(a_perm=a_perm, perm=perm, symbolic=symbolic,
                            supernodes=supernodes, blocks=blocks,
                            phase_seconds=phases)


def rebind_analysis_values(analysis: SymbolicAnalysis, a: SymmetricCSC
                           ) -> SymbolicAnalysis:
    """A copy of ``analysis`` carrying the numeric values of ``a``.

    Every pattern-derived structure — ordering, elimination tree, column
    structures, supernodes, blocks — depends only on the sparsity pattern
    and is *shared* with the input analysis; only the permuted matrix
    ``a_perm`` is recomputed so the numeric phase factors ``a``'s values.
    This is the symbolic-cache hit path of :mod:`repro.service`: a
    structurally identical matrix skips the whole symbolic phase
    (Algorithm 2 included) at the cost of one value permutation.

    Raises :class:`ValueError` if ``a``'s pattern differs from the pattern
    the analysis was computed on.
    """
    a_perm = a.permuted(analysis.perm.perm)
    old, new = analysis.a_perm.lower, a_perm.lower
    if not (np.array_equal(old.indptr, new.indptr)
            and np.array_equal(old.indices, new.indices)):
        raise ValueError(
            "matrix sparsity pattern differs from the analyzed pattern")
    return replace(analysis, a_perm=a_perm)
