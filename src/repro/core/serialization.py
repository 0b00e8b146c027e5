"""Factor serialization: save a computed factorization, reuse it later.

The paper motivates symPACK with applications that reuse factorizations
heavily (PEXSI, spectrum slicing).  A complementary workflow is reusing a
factor *across program runs* — factor once on the big machine, solve many
times elsewhere.  This module persists the Cholesky factor plus its
permutation to a single ``.npz`` file and provides a lightweight solve-only
handle for the loaded factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

__all__ = ["SerializedFactor", "save_factor", "load_factor",
           "checkpoint_path", "save_checkpoint", "load_checkpoint"]

_FORMAT_VERSION = 1
_CHECKPOINT_VERSION = 3


@dataclass
class SerializedFactor:
    """A loaded Cholesky factor: solve-capable, no solver state needed.

    Attributes
    ----------
    l_factor:
        Lower-triangular factor in the permuted ordering (CSC, or CSR for
        the forward sweep — converted as needed).
    perm / iperm:
        Fill-reducing permutation and its inverse.
    matrix_name:
        Provenance tag recorded at save time.
    """

    l_factor: sp.csc_matrix
    perm: np.ndarray
    iperm: np.ndarray
    matrix_name: str = "matrix"
    pattern_key: str = ""    # sparsity-structure digest of the factored A

    @property
    def n(self) -> int:
        """Dimension of the factored matrix."""
        return self.l_factor.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the stored factor (sequential sweeps)."""
        b = np.asarray(b, dtype=np.float64)
        squeeze = b.ndim == 1
        rhs = b.reshape(self.n, -1)[self.perm]
        lcsr = self.l_factor.tocsr()
        y = spsolve_triangular(lcsr, rhs, lower=True)
        x = spsolve_triangular(lcsr.T.tocsr(), y, lower=False)
        x = x[self.iperm]
        return x.ravel() if squeeze else x

    def logdet(self) -> float:
        """``log det(A) = 2 * sum(log(diag(L)))`` — free from the factor."""
        return 2.0 * float(np.sum(np.log(self.l_factor.diagonal())))

    def factor_residual(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative residual of ``x`` against the *stored factor*:
        ``||L L^T (P x) - P b|| / ||b||``.

        Verifies a solve without access to the original matrix (the
        ``repro resolve`` path, where only the factor file exists).
        """
        x = np.asarray(x, dtype=np.float64).reshape(self.n, -1)
        b = np.asarray(b, dtype=np.float64).reshape(self.n, -1)
        r = self.l_factor @ (self.l_factor.T @ x[self.perm]) - b[self.perm]
        denom = float(np.linalg.norm(b))
        return float(np.linalg.norm(r)) / (denom if denom > 0 else 1.0)


def save_factor(solver, path: str | Path) -> None:
    """Persist a factorized solver's ``L`` and permutation to ``path``.

    Works with any solver exposing ``storage.to_sparse_factor()``,
    ``analysis.perm`` and ``a.name`` (SymPackSolver, FanInSolver,
    MultifrontalSolver, PastixLikeSolver).
    """
    if getattr(solver, "storage", None) is None:
        raise RuntimeError("solver has no factor; call factorize() first")
    from ..service.keys import pattern_key  # deferred: avoids a cycle

    l_factor = solver.storage.to_sparse_factor().tocsc()
    l_factor.sort_indices()
    np.savez_compressed(
        Path(path),
        version=np.int64(_FORMAT_VERSION),
        name=np.bytes_(getattr(solver.a, "name", "matrix").encode()),
        pattern=np.bytes_(pattern_key(solver.a).encode()),
        perm=solver.analysis.perm.perm,
        indptr=l_factor.indptr,
        indices=l_factor.indices,
        data=l_factor.data,
        shape=np.asarray(l_factor.shape, dtype=np.int64),
    )


def load_factor(path: str | Path) -> SerializedFactor:
    """Load a factor saved by :func:`save_factor`."""
    with np.load(Path(path)) as archive:
        version = int(archive["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported factor file version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        shape = tuple(archive["shape"])
        l_factor = sp.csc_matrix(
            (archive["data"], archive["indices"], archive["indptr"]),
            shape=shape,
        )
        perm = archive["perm"].astype(np.int64)
        name = bytes(archive["name"]).decode()
        pattern = (bytes(archive["pattern"]).decode()
                   if "pattern" in archive.files else "")
    iperm = np.empty_like(perm)
    iperm[perm] = np.arange(perm.size)
    return SerializedFactor(l_factor=l_factor, perm=perm, iperm=iperm,
                            matrix_name=name, pattern_key=pattern)


# --------------------------------------------------------------- checkpoints
#
# Mid-factorization checkpoints (repro.resilience): the numeric snapshot
# is supernode-granular — one ``diag_<s>`` / ``panel_<s>`` array pair per
# supernode — plus one copy of the graph context's workspace and the
# task-graph progress (executed set, frontier) in a JSON manifest.  All
# I/O failures surface as the typed ``CheckpointIOError`` so callers (CLI
# exit code 4, service events) can tell them from solver errors.


def checkpoint_path(directory: str | Path, label: str = "factor") -> Path:
    """Canonical on-disk location of a run's rolling checkpoint."""
    return Path(directory) / f"{label}_checkpoint.npz"


def save_checkpoint(state, directory: str | Path,
                    label: str = "factor") -> Path:
    """Persist a :class:`~repro.resilience.checkpoint.CheckpointState`."""
    from ..resilience.errors import CheckpointIOError

    path = checkpoint_path(directory, label)
    manifest = {
        "version": _CHECKPOINT_VERSION,
        "frontier": state.frontier,
        "nsuper": len(state.panels),
    }
    arrays: dict[str, np.ndarray] = {
        "executed": np.asarray(state.executed, dtype=np.int64),
        "manifest": np.bytes_(json.dumps(manifest).encode()),
    }
    for s, (diag, panel) in enumerate(zip(state.diag, state.panels)):
        arrays[f"diag_{s}"] = diag
        arrays[f"panel_{s}"] = panel
    if state.workspace is not None:
        arrays["workspace"] = state.workspace
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
    except OSError as exc:
        raise CheckpointIOError(
            f"cannot write checkpoint {path}: {exc}") from exc
    return path


def load_checkpoint(path: str | Path):
    """Load a checkpoint saved by :func:`save_checkpoint`."""
    from ..resilience.checkpoint import CheckpointState
    from ..resilience.errors import CheckpointIOError

    try:
        with np.load(Path(path)) as archive:
            manifest = json.loads(bytes(archive["manifest"]).decode())
            version = int(manifest["version"])
            if version != _CHECKPOINT_VERSION:
                raise CheckpointIOError(
                    f"unsupported checkpoint version {version} "
                    f"(expected {_CHECKPOINT_VERSION})")
            nsuper = int(manifest["nsuper"])
            diag = [archive[f"diag_{s}"] for s in range(nsuper)]
            panels = [archive[f"panel_{s}"] for s in range(nsuper)]
            workspace = (archive["workspace"]
                         if "workspace" in archive.files else None)
            return CheckpointState(
                frontier=int(manifest["frontier"]),
                executed=tuple(int(t) for t in archive["executed"]),
                diag=diag, panels=panels, workspace=workspace)
    except OSError as exc:
        raise CheckpointIOError(
            f"cannot read checkpoint {path}: {exc}") from exc
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CheckpointIOError(
            f"corrupt checkpoint {path}: {exc}") from exc
