"""Unit tests for the dense BLAS-3/LAPACK kernel wrappers."""

import numpy as np
import pytest

from scipy.linalg import solve_triangular

from repro.kernels import gemm_nt, potrf, syrk_lower, trsm_right_lower_trans
from repro.kernels.dense import trsv
from repro.sparse import NotPositiveDefiniteError


def spd(n, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return g @ g.T + n * np.eye(n)


class TestPotrf:
    def test_reconstructs_input(self):
        a = spd(8)
        l = potrf(a)
        assert np.allclose(l @ l.T, a)

    def test_lower_triangular(self):
        l = potrf(spd(6))
        assert np.allclose(l, np.tril(l))

    def test_raises_on_indefinite(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NotPositiveDefiniteError):
            potrf(a)

    def test_1x1(self):
        assert np.allclose(potrf(np.array([[4.0]])), [[2.0]])


class TestTrsm:
    def test_solves_block_equation(self, rng):
        """B = X L^T must hold after X = trsm(B, L)."""
        l = potrf(spd(5, seed=1))
        b = rng.standard_normal((7, 5))
        x = trsm_right_lower_trans(b, l)
        assert np.allclose(x @ l.T, b)

    def test_output_contiguous(self, rng):
        l = potrf(spd(4, seed=2))
        x = trsm_right_lower_trans(rng.standard_normal((3, 4)), l)
        assert x.flags["C_CONTIGUOUS"]

    def test_identity_diag(self, rng):
        b = rng.standard_normal((6, 3))
        assert np.allclose(trsm_right_lower_trans(b, np.eye(3)), b)


class TestTrsv:
    @pytest.mark.parametrize("w", [1, 2, 5, 17, 64])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bit_identical_to_solve_triangular(self, rng, w, layout):
        """Same bits as the SciPy wrapper for every operand layout the
        solve sweeps hand it (diag block / its transpose, strided rhs
        column)."""
        l = potrf(spd(w, seed=w))
        if layout == "F":
            l = np.asfortranarray(l)
        elif layout == "strided":
            big = np.zeros((w + 3, w + 5))
            big[1 : w + 1, 2 : w + 2] = l
            l = big[1 : w + 1, 2 : w + 2]
        rhs = rng.standard_normal((w, 3))
        for mat, lower in ((l, True), (l.T, False)):
            for c in range(rhs.shape[1]):
                ref = solve_triangular(mat, rhs[:, c], lower=lower,
                                       check_finite=False)
                got = trsv(mat, rhs[:, c], lower)
                assert got.shape == ref.shape
                assert np.array_equal(got, ref)

    def test_raises_on_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            trsv(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2), True)


class TestSyrk:
    def test_matches_explicit_product(self, rng):
        a = rng.standard_normal((5, 3))
        assert np.allclose(syrk_lower(a), a @ a.T)

    def test_result_symmetric_psd(self, rng):
        a = rng.standard_normal((6, 4))
        s = syrk_lower(a)
        assert np.allclose(s, s.T)
        assert np.linalg.eigvalsh(s).min() >= -1e-12


class TestGemm:
    def test_matches_explicit_product(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        assert np.allclose(gemm_nt(a, b), a @ b.T)

    def test_shapes(self, rng):
        out = gemm_nt(rng.standard_normal((2, 7)), rng.standard_normal((9, 7)))
        assert out.shape == (2, 9)


class TestKernelsCompose:
    def test_blocked_cholesky_via_kernels(self, rng):
        """A 2x2 blocked Cholesky using exactly the four kernels must
        reproduce LAPACK's answer — the core supernodal recursion."""
        n1, n2 = 4, 5
        a = spd(n1 + n2, seed=3)
        a11, a21, a22 = a[:n1, :n1], a[n1:, :n1], a[n1:, n1:]
        l11 = potrf(a11)
        l21 = trsm_right_lower_trans(a21, l11)
        a22_updated = a22 - syrk_lower(l21)
        l22 = potrf(a22_updated)
        full = np.linalg.cholesky(a)
        assert np.allclose(l11, full[:n1, :n1])
        assert np.allclose(l21, full[n1:, :n1])
        assert np.allclose(l22, full[n1:, n1:])
