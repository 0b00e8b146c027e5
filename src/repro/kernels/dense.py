"""Dense BLAS-3 / LAPACK kernels used by the supernodal factorization.

symPACK performs all local computation with four routines (paper
Section 3.2): POTRF (diagonal block factorization), TRSM (panel
factorization), SYRK (update to a diagonal block) and GEMM (update to an
off-diagonal block).  These wrappers give them solver-shaped signatures on
NumPy arrays; SciPy routes them to the platform BLAS/LAPACK.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg.blas import dtrsm as _dtrsm
from scipy.linalg.lapack import dtrtrs as _dtrtrs

from ..sparse.validate import NotPositiveDefiniteError

__all__ = ["potrf", "trsm_right_lower_trans", "trsv", "syrk_lower", "gemm_nt",
           "pin_blas_threads", "OP_POTRF", "OP_TRSM", "OP_SYRK", "OP_GEMM"]

OP_POTRF = "POTRF"
OP_TRSM = "TRSM"
OP_SYRK = "SYRK"
OP_GEMM = "GEMM"

# The OpenBLAS builds the NumPy and SciPy wheels bundle, and the thread
# setter each exports.  NumPy's serves ``np.linalg`` and ``@``; SciPy's
# serves the ``scipy.linalg`` BLAS/LAPACK wrappers below.
_BUNDLED_BLAS = ((np, "scipy_openblas_set_num_threads64_"),
                 (scipy, "scipy_openblas_set_num_threads"))


def pin_blas_threads() -> None:
    """Run the bundled OpenBLAS libraries on one thread.

    The solver's parallelism is its simulated ranks, not BLAS threads,
    and a threaded OpenBLAS splits large POTRF / TRSM calls differently
    from a serial one, so the factor's bits would depend on
    ``OPENBLAS_NUM_THREADS``.  Called once when :mod:`repro.kernels` is
    imported.  A BLAS that exports no setter (another build, another
    vendor) is left as it is.
    """
    for package, setter in _BUNDLED_BLAS:
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            try:
                fn = getattr(ctypes.CDLL(str(path)), setter, None)
            except OSError:
                continue
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)


def potrf(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of a dense SPD block: returns lower-triangular ``L``.

    Uses ``np.linalg.cholesky`` — a gufunc, so a ``(k, w, w)`` stack of
    blocks factors in one call with results bitwise identical to ``k``
    single calls (the batched executor paths rely on exactly this), and
    per-call overhead is far below the high-level SciPy wrapper the solver
    originally used.  Returns a clean lower triangle (zero upper).

    Raises :class:`NotPositiveDefiniteError` on a non-positive pivot, the
    numeric signal that the (permuted) input was not SPD.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def trsm_right_lower_trans(b: np.ndarray, l_diag: np.ndarray) -> np.ndarray:
    """Solve ``X @ L^T = B`` for a panel ``B`` given the diagonal factor ``L``.

    This is the off-diagonal factorization step: ``L[rows, snode] =
    A[rows, snode] @ L_diag^{-T}`` (paper task ``F``).  Calls BLAS
    ``dtrsm`` (side=right, lower, transposed) directly for the same
    per-call-overhead reason as :func:`potrf`.
    """
    if b.size == 0:
        return np.array(b, copy=True)
    # Solve L X^T = B^T.  Passing the transposed views hands BLAS
    # Fortran-ordered operands without copies, and transposing the
    # Fortran-ordered result back yields a C-contiguous X.
    return _dtrsm(1.0, l_diag.T, b.T, side=0, lower=0, trans_a=1).T


def trsv(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Solve ``a @ x = b`` for one vector ``b`` against a triangular ``a``.

    Makes the very LAPACK ``trtrs`` call that
    ``scipy.linalg.solve_triangular(a, b, lower=lower)`` makes — same
    routine, same operand layout, so the same bits — without the
    wrapper's per-call validation, which costs ~10x the solve itself on
    the narrow supernodes a triangular sweep visits thousands of times.
    """
    if a.flags.f_contiguous:
        x, info = _dtrtrs(a, b, lower=lower)
    else:
        # trtrs expects Fortran ordering: solve the transposed system.
        x, info = _dtrtrs(a.T, b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def syrk_lower(l_panel: np.ndarray) -> np.ndarray:
    """Symmetric rank-k update contribution ``L_panel @ L_panel^T``.

    Used for updates to diagonal blocks (paper task ``U`` with the target
    on the diagonal); only the lower triangle of the result is meaningful.
    """
    return l_panel @ l_panel.T


def gemm_nt(l_a: np.ndarray, l_b: np.ndarray) -> np.ndarray:
    """General update contribution ``L_a @ L_b^T`` (off-diagonal targets)."""
    return l_a @ l_b.T
