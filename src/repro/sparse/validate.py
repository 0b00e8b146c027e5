"""Input validation for SPD solver inputs."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .csc import SymmetricCSC

__all__ = ["NotSymmetricError", "NotPositiveDefiniteError", "check_square",
           "check_symmetric", "check_finite", "check_rhs", "probable_spd"]


class NotSymmetricError(ValueError):
    """Raised when an input matrix is not (numerically) symmetric."""


class NotPositiveDefiniteError(ValueError):
    """Raised when a factorization encounters a non-positive pivot."""


def check_square(a: sp.spmatrix | np.ndarray) -> None:
    """Raise ``ValueError`` unless ``a`` is square."""
    shape = a.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"matrix must be square, got shape {shape}")


def check_symmetric(a: sp.spmatrix, rtol: float = 1e-12) -> None:
    """Raise :class:`NotSymmetricError` unless ``a`` is symmetric."""
    check_square(a)
    a = sp.csc_matrix(a)
    diff = abs(a - a.T)
    scale = max(1.0, abs(a).max() if a.nnz else 0.0)
    if diff.nnz and diff.max() > rtol * scale:
        raise NotSymmetricError(
            f"matrix is not symmetric (max asymmetry {diff.max():.3e})"
        )


def check_finite(a: SymmetricCSC) -> None:
    """Raise ``ValueError`` if the matrix contains NaN or infinity."""
    if not np.all(np.isfinite(a.lower.data)):
        raise ValueError("matrix contains non-finite entries")


def check_rhs(b: np.ndarray, n: int) -> np.ndarray:
    """``b`` as float64, if it is a length-``n`` vector or has ``n`` rows
    and two dimensions; ``ValueError`` otherwise (a wrong height would
    otherwise reshape silently into a different number of columns)."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs of shape {b.shape} does not fit a matrix "
                         f"with n={n}: expected ({n},) or ({n}, k)")
    return b


def probable_spd(a: SymmetricCSC) -> bool:
    """Cheap necessary conditions for positive definiteness.

    Checks positive diagonal entries; definiteness proper is established by
    the factorization itself, which raises
    :class:`NotPositiveDefiniteError` on failure.
    """
    diag = a.lower.diagonal()
    return bool(diag.size == a.n and np.all(diag > 0))
