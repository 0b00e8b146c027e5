"""Unit tests for symbolic column structures of L."""

import numpy as np
import pytest
import scipy.linalg as la

from repro.sparse import random_spd, tridiagonal_spd
from repro.symbolic import SymbolicL, column_counts, factor_nnz
from tests.oracles.symbolic import column_structures


def dense_factor_pattern(a_dense):
    """Structure of L from an actual dense Cholesky on a shifted pattern.

    Uses a numeric factorization of a structurally-identical SPD matrix
    with random values (no accidental cancellation, entries generic).
    """
    n = a_dense.shape[0]
    rng = np.random.default_rng(99)
    pattern = (a_dense != 0)
    vals = np.where(pattern, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    vals = (vals + vals.T) / 2
    vals += np.diag(np.abs(vals).sum(axis=1) + 1.0)
    l = la.cholesky(vals, lower=True)
    return np.abs(l) > 1e-14


class TestColumnStructures:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numeric_factor(self, seed):
        a = random_spd(20, density=0.18, seed=seed)
        structs = SymbolicL(a.lower).structs
        lpat = dense_factor_pattern(a.to_dense())
        for j in range(a.n):
            expected = np.flatnonzero(lpat[:, j])
            assert np.array_equal(structs[j], expected), f"column {j}"

    def test_diagonal_always_present(self, lap2d):
        structs = SymbolicL(lap2d.lower).structs
        for j, s in enumerate(structs):
            assert s[0] == j

    def test_rows_are_ancestors(self, corner_case):
        sym = SymbolicL(corner_case.lower)
        for j, s in enumerate(sym.structs):
            for i in s[1:]:
                # walk up from j; i must appear on the ancestor path
                node = j
                seen = False
                while node != -1:
                    if node == i:
                        seen = True
                        break
                    node = sym.parent[node]
                assert seen, f"row {i} of column {j} is not an ancestor"

    def test_tridiagonal_no_fill(self):
        a = tridiagonal_spd(15)
        assert SymbolicL(a.lower).fill_in() == 0

    def test_counts_match_structures(self, lap3d):
        # Flat row-walk counts against the independent subtree merge.
        counts = column_counts(lap3d.lower)
        structs = column_structures(lap3d.lower)
        assert np.array_equal(counts, [s.size for s in structs])

    def test_factor_nnz_totals(self, lap2d):
        assert factor_nnz(lap2d.lower) == column_counts(lap2d.lower).sum()

    def test_structure_contains_a(self, corner_case):
        """Every entry of A's lower triangle appears in L's structure."""
        structs = SymbolicL(corner_case.lower).structs
        low = corner_case.lower.tocoo()
        for i, j in zip(low.row, low.col):
            assert i in structs[j]
