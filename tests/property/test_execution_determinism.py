"""Bit-identity of the batched flush against one-at-a-time execution.

The deferred executor has one execution mode — canonical ``(wave, tid)``
order with consecutive same-op runs batched (stacked GEMM/SYRK products, batched
diagonal factorizations) — and promises it is **bit-identical**
(``np.array_equal``, not ``allclose``) to executing the same stream one
call at a time through ``KernelExecutor.run_one`` over the per-op
``KERNEL_OPS`` handlers.  These tests pin that promise for every solver
family, on the factor and on a 2-column solution.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.pastix_like import PastixLikeSolver, PastixOptions
from repro.core.solver import SolverOptions, SymPackSolver
from repro.kernels.dispatch import ExecContext, KernelExecutor
from repro.sparse import SymmetricCSC, grid_laplacian_2d, random_spd
from repro.variants import (
    FanBothOptions,
    FanBothSolver,
    FanInOptions,
    FanInSolver,
    MultifrontalOptions,
    MultifrontalSolver,
)

FAMILIES = [
    (SymPackSolver, SolverOptions),
    (FanInSolver, FanInOptions),
    (FanBothSolver, FanBothOptions),
    (MultifrontalSolver, MultifrontalOptions),
    (PastixLikeSolver, PastixOptions),
]


def _coalesced_batch(sizes, seed=0):
    """Block-diagonal union of small dense SPD tenants (service pattern)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sizes:
        m = rng.standard_normal((n, n)) * 0.1
        blocks.append(m @ m.T + n * np.eye(n))
    return SymmetricCSC.from_any(sp.block_diag(blocks, format="csc"))


MATRICES = {
    "sparse": lambda: random_spd(60, density=0.15, seed=3),
    "grid": lambda: grid_laplacian_2d(9, 9),
    "coalesced": lambda: _coalesced_batch([6, 8, 8, 10, 12]),
}


def _run(solver_cls, options_cls, a, nranks):
    solver = solver_cls(a, options_cls(nranks=nranks))
    solver.factorize()
    factor = solver.storage.to_sparse_factor().toarray()
    rhs = np.linspace(-1.0, 1.0, a.n * 2).reshape(a.n, 2)
    x, _ = solver.solve(rhs)
    return factor, x


@pytest.mark.parametrize("matrix_key", sorted(MATRICES))
@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_batched_flush_matches_run_one(solver_cls, options_cls, matrix_key,
                                       monkeypatch):
    """batched flush == run_one over the same stream, to the last bit."""
    a = MATRICES[matrix_key]()
    nranks = 2 if matrix_key == "sparse" else 1
    f_batched, x_batched = _run(solver_cls, options_cls, a, nranks)

    executed = []

    def one_at_a_time(self, pending):
        for call, _wave in pending:
            self.run_one(call)
        executed.append(len(pending))

    monkeypatch.setattr(KernelExecutor, "_execute", one_at_a_time)
    f_single, x_single = _run(solver_cls, options_cls, a, nranks)
    # factorization + forward + backward sweeps all went through run_one
    assert len(executed) >= 3 and all(executed)
    assert np.array_equal(f_single, f_batched)
    assert np.array_equal(x_single, x_batched)


def test_workspace_slot_shape_mismatch_raises():
    """Aliased aggregate buffers with conflicting shapes fail loudly."""
    ctx = ExecContext()
    ctx.reserve(("agg", 1), (3, 4))
    with pytest.raises(ValueError, match="shape"):
        ctx.reserve(("agg", 1), (4, 4))
