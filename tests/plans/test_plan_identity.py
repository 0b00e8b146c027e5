"""Plan replay == DES replay, to the last bit, for every solver family.

The compiled-plan promise: a warm refactorization (``update_values`` +
``factorize`` with ``plan_mode="on"``) and a warm solve execute the
recorded kernel stream directly — no task-graph traversal, no event
queue, no simulated RPC — and produce **bit-identical** factors and
solutions (``np.array_equal``, never ``allclose``) to a full DES-driven
replay of the same inputs.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.pastix_like import PastixLikeSolver, PastixOptions
from repro.core.solver import SolverOptions, SymPackSolver
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


def _shifted(a: SymmetricCSC, shift: float) -> SymmetricCSC:
    """Same pattern, diagonal shifted — the refactorization workload."""
    eye = sp.identity(a.n, format="csc")
    return SymmetricCSC.from_any(
        a.lower + a.lower.T - sp.diags(a.lower.diagonal()) + shift * eye)


def _run(solver_cls, options_cls, a, shifts, *, plan_mode, nranks):
    """Factorize, then refactorize per shift, solving after each."""
    solver = solver_cls(a, options_cls(nranks=nranks, plan_mode=plan_mode))
    rhs = np.linspace(-1.0, 1.0, a.n * 2).reshape(a.n, 2)
    out = []
    solver.factorize()
    out.append((solver.storage.to_sparse_factor().toarray(),
                solver.solve(rhs)[0]))
    for shift in shifts:
        solver.update_values(_shifted(a, shift))
        solver.factorize()
        out.append((solver.storage.to_sparse_factor().toarray(),
                    solver.solve(rhs)[0]))
    stats = solver.plan_stats
    solver.close()
    return out, stats


@pytest.mark.parametrize("matrix_key", sorted(MATRICES))
@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_plan_replay_bit_identical_to_des(solver_cls, options_cls,
                                          matrix_key):
    """Warm plan refactorize + solve == DES graph replay, bit for bit."""
    a = MATRICES[matrix_key]()
    nranks = 2 if matrix_key == "sparse" else 1
    shifts = (0.3, 0.7)
    des, _ = _run(solver_cls, options_cls, a, shifts,
                  plan_mode="off", nranks=nranks)
    plan, stats = _run(solver_cls, options_cls, a, shifts,
                       plan_mode="on", nranks=nranks)
    for (f_des, x_des), (f_plan, x_plan) in zip(des, plan):
        assert np.array_equal(f_des, f_plan)
        assert np.array_equal(x_des, x_plan)
    # The warm runs actually rode the plans: 3 compiles (factor + two
    # solve sweeps), replays for 2 refactorizations + 2 warm solves.
    assert stats.compiles == 3
    assert stats.hits == 2 + 2 * 2


def test_multi_rhs_solve_plans_keyed_by_width():
    """Each rhs width compiles its own solve plan pair; both replay."""
    a = MATRICES["grid"]()
    solver = SymPackSolver(a, SolverOptions(nranks=1, plan_mode="on"))
    ref = SymPackSolver(a, SolverOptions(nranks=1))
    solver.factorize()
    ref.factorize()
    for nrhs in (1, 3, 1, 3):
        rhs = np.linspace(-1.0, 1.0, a.n * nrhs).reshape(a.n, nrhs)
        x, _ = solver.solve(rhs)
        x_ref, _ = ref.solve(rhs)
        assert np.array_equal(x, x_ref)
    assert sorted(solver._solve_plans) == [1, 3]
    assert solver.plan_stats.hits == 2 * 2  # second 1- and 3-rhs solves
    solver.close()
    ref.close()


def test_close_drops_plans_and_drains_arena():
    """close() retires the plan arena; the ledger returns to zero."""
    a = MATRICES["coalesced"]()
    solver = SymPackSolver(a, SolverOptions(nranks=1, plan_mode="on"))
    solver.factorize()
    solver.update_values(_shifted(a, 0.5))
    solver.factorize()  # warm: populates the arena
    assert solver._factor_plan is not None
    solver.close()
    assert solver._factor_plan is None
    assert solver._plan_arena is None
    assert solver.session.ledger.live() == 0


def test_session_counts_plan_replays():
    """Plan replays land in the session's run accounting."""
    a = MATRICES["grid"]()
    solver = SymPackSolver(a, SolverOptions(nranks=1, plan_mode="on"))
    solver.factorize()
    assert solver.session.plan_runs == 0
    solver.update_values(_shifted(a, 0.5))
    info_des_runs = solver.session.runs
    solver.factorize()
    assert solver.session.plan_runs == 1
    assert solver.session.runs == info_des_runs + 1
    solver.close()
