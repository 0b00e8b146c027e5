"""Independent correctness gate: what counts as a failed operation.

Every cold start, warm cycle, wide solve and service request is one
attempted operation.  It fails when the call raised, the answer is not
finite, the relative residual recomputed here with SciPy (not through the
solver's own ``residual_norm``) exceeds ``RESIDUAL_LIMIT``, or the
solution's sha256 differs from an earlier solution of the same
(pattern, values, right-hand side) — the repository's bit-identity claim.
All checks run outside the timed regions.
"""

from __future__ import annotations

import hashlib

import numpy as np

RESIDUAL_LIMIT = 1e-10


class Gate:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.residual_max = 0.0
        self._digests: dict[tuple, str] = {}

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def solution(self, key: tuple, full, x: np.ndarray, b: np.ndarray,
                 *, bitwise: bool = True) -> bool:
        """Judge one returned solution of ``full @ x = b``.

        ``key`` names the (pattern, values version, rhs) triple; with
        ``bitwise`` every solution under one key must have the same bits.
        """
        self.attempted += 1
        if x.shape != b.shape or not np.all(np.isfinite(x)):
            self._fail(f"{key}: non-finite or misshapen solution")
            return False
        residual = float(np.linalg.norm(full @ x - b) / np.linalg.norm(b))
        self.residual_max = max(self.residual_max, residual)
        if not residual <= RESIDUAL_LIMIT:
            self._fail(f"{key}: residual {residual:.3e}")
            return False
        if not bitwise:
            return True
        digest = hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
        if self._digests.setdefault(key, digest) != digest:
            self._fail(f"{key}: solution bits changed between solves")
            return False
        return True

    def error(self, what: str, exc: BaseException) -> None:
        """An operation that raised instead of answering."""
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def require(self, ok: bool, reason: str) -> None:
        """A run-level invariant (no attempt of its own), e.g. leaked bytes."""
        if not ok:
            self._fail(reason)

    def digests(self) -> dict[str, str]:
        """Solution hash per key, to compare whole runs of one seed."""
        return {repr(key): sha for key, sha in self._digests.items()}
