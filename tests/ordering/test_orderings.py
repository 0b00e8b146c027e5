"""Tests of the fill-reducing orderings (RCM, AMD, ND, Scotch-like)."""

import numpy as np
import pytest

from repro.ordering import (
    ORDERINGS,
    Permutation,
    compute_ordering,
    is_permutation,
    minimum_degree_order,
    nested_dissection_order,
    NDOptions,
)
from repro.sparse import (
    AdjacencyGraph,
    SymmetricCSC,
    bone_like,
    grid_laplacian_2d,
    random_spd,
    tridiagonal_spd,
)
from repro.symbolic import SymbolicL
from tests.oracles.ordering import amd_reference_order

# The set-of-sets minimum degree is a test oracle, not a registered
# ordering; it is held to the same validity checks as every ordering.
ORACLE_METHODS = {"amd_reference": amd_reference_order}
ALL_METHODS = sorted([*ORDERINGS, *ORACLE_METHODS])


def _ordering(a, method):
    if method in ORACLE_METHODS:
        return Permutation(ORACLE_METHODS[method](a))
    return compute_ordering(a, method)


@pytest.mark.parametrize("method", ALL_METHODS)
class TestAllOrderingsAreValid:
    def test_valid_permutation(self, method, lap2d):
        perm = _ordering(lap2d, method)
        assert is_permutation(perm.perm)

    def test_handles_corner_cases(self, method, corner_case):
        perm = _ordering(corner_case, method)
        assert is_permutation(perm.perm)

    def test_disconnected_graph(self, method):
        a = SymmetricCSC.from_any(np.diag([1.0, 2.0, 3.0, 4.0]))
        perm = _ordering(a, method)
        assert is_permutation(perm.perm)


class TestRegistry:
    def test_unknown_method_rejected(self, lap2d):
        with pytest.raises(ValueError, match="unknown ordering"):
            compute_ordering(lap2d, "does-not-exist")

    def test_natural_is_identity(self, lap2d):
        perm = compute_ordering(lap2d, "natural")
        assert np.array_equal(perm.perm, np.arange(lap2d.n))


class TestFillReduction:
    """Orderings must beat the natural ordering on structured problems."""

    def _fill(self, a, method):
        perm = compute_ordering(a, method)
        return SymbolicL(a.permuted(perm.perm).lower).nnz

    @pytest.mark.parametrize("method", ["amd", "nd", "scotch_like"])
    def test_reduces_fill_on_grid(self, method):
        a = grid_laplacian_2d(14, 14)
        assert self._fill(a, method) < self._fill(a, "natural")

    @pytest.mark.parametrize("method", ["amd", "nd", "scotch_like"])
    def test_reduces_fill_on_bone(self, method):
        a = bone_like(scale=8, seed=2)
        assert self._fill(a, method) <= self._fill(a, "natural")

    def test_tridiagonal_needs_no_reordering_benefit(self):
        # Natural ordering of a tridiagonal matrix is already fill-free;
        # good orderings must not blow it up by more than a small factor.
        a = tridiagonal_spd(50)
        natural = self._fill(a, "natural")
        assert natural == 99  # 50 diag + 49 sub-diagonal
        assert self._fill(a, "scotch_like") <= 2 * natural


class TestMinimumDegree:
    def test_star_center_eliminated_near_last(self):
        # Star graph: the center has maximal degree, so min-degree keeps it
        # until only leaves of equal degree remain (index ties then allow
        # the center at position n-2).
        n = 8
        a = np.eye(n) * 4
        a[0, 1:] = a[1:, 0] = -0.5
        g = AdjacencyGraph.from_symmetric(SymmetricCSC.from_any(a))
        order = minimum_degree_order(g)
        assert int(np.flatnonzero(order == 0)[0]) >= n - 2

    def test_produces_no_fill_on_tree(self):
        # Elimination of leaves first yields zero fill on any tree.
        a = tridiagonal_spd(20)
        g = AdjacencyGraph.from_symmetric(a)
        order = minimum_degree_order(g)
        perm_a = a.permuted(order)
        assert SymbolicL(perm_a.lower).fill_in() == 0


class TestNestedDissection:
    def test_separator_ordered_last_on_grid(self):
        a = grid_laplacian_2d(9, 9)
        order = nested_dissection_order(a, NDOptions(leaf_size=8))
        # The last few eliminated vertices must form a separator: removing
        # them disconnects the rest into >= 2 components.
        import scipy.sparse.csgraph as csgraph
        sep = set(order[-9:].tolist())
        keep = np.array([v for v in range(a.n) if v not in sep])
        sub = a.full()[np.ix_(keep, keep)]
        ncomp, _ = csgraph.connected_components(sub, directed=False)
        assert ncomp >= 2

    def test_leaf_size_respected_smaller_gives_same_coverage(self):
        a = grid_laplacian_2d(10, 10)
        for leaf in (4, 16, 64):
            order = nested_dissection_order(a, NDOptions(leaf_size=leaf))
            assert is_permutation(order)

    def test_random_matrix_valid(self):
        a = random_spd(80, density=0.08, seed=7)
        assert is_permutation(nested_dissection_order(a))
