"""Warm plan replays make zero new allocations.

The acceptance bar of the compiled-plan subsystem's memory story: after
the *first* warm refactorization populates the plan arena, every further
replay reuses resident buffers — the ledger's allocation count and the
pool's take count both stay flat (delta == 0), and the arena drains back
to the pool on close.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.pastix_like import PastixLikeSolver, PastixOptions
from repro.core.solver import SolverOptions, SymPackSolver
from repro.sparse import SymmetricCSC, random_spd
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


def _shifted(a: SymmetricCSC, shift: float) -> SymmetricCSC:
    eye = sp.identity(a.n, format="csc")
    return SymmetricCSC.from_any(
        a.lower + a.lower.T - sp.diags(a.lower.diagonal()) + shift * eye)


@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_warm_replay_zero_allocator_growth(solver_cls, options_cls):
    """Replays after the first warm run: alloc delta == take delta == 0."""
    a = random_spd(60, density=0.15, seed=3)
    solver = solver_cls(a, options_cls(nranks=2, plan_mode="on"))
    solver.factorize()                      # record + compile
    solver.update_values(_shifted(a, 0.2))
    solver.factorize()                      # warm run 1: arena faults in
    ledger, pool = solver.session.ledger, solver.session.pool
    for i in range(3):                      # warm runs 2..4: fully resident
        allocs0, takes0 = ledger.allocs(space="host"), pool.takes
        solver.update_values(_shifted(a, 0.3 + 0.1 * i))
        solver.factorize()
        assert ledger.allocs(space="host") - allocs0 == 0
        assert pool.takes - takes0 == 0
    solver.close()
    assert ledger.live() == 0


def test_warm_solve_zero_allocator_growth():
    """Warm solve replays of a seen rhs width allocate nothing new."""
    a = random_spd(60, density=0.15, seed=3)
    solver = SymPackSolver(a, SolverOptions(nranks=2, plan_mode="on"))
    solver.factorize()
    rhs = np.linspace(-1.0, 1.0, a.n * 2).reshape(a.n, 2)
    solver.solve(rhs)                       # record + compile solve plans
    solver.solve(rhs)                       # warm run 1: arena faults in
    ledger, pool = solver.session.ledger, solver.session.pool
    allocs0, takes0 = ledger.allocs(space="host"), pool.takes
    x_warm, _ = solver.solve(rhs)
    assert ledger.allocs(space="host") - allocs0 == 0
    assert pool.takes - takes0 == 0
    assert np.all(np.isfinite(x_warm))
    solver.close()


def test_arena_retire_returns_buffers_to_pool():
    """retire() hands every retained buffer back to the pool."""
    from repro.memory import BufferPool
    from repro.plans import PlanArena

    pool = BufferPool()
    arena = PlanArena(pool)
    a1 = arena.take((4, 4), label="kernel")
    arena.give(a1)
    a2 = arena.take((4, 4), label="kernel")  # cache hit: same buffer
    assert a2 is a1
    assert arena.hits == 1 and arena.faults == 1
    arena.give(a2)
    drained = arena.retire()
    assert drained == 1
    assert arena.retained == 0
    # The drained buffer is back on the pool's free list.
    reuses0 = pool.reuses
    pool.take((4, 4), label="kernel")
    assert pool.reuses == reuses0 + 1


def test_arena_retire_with_outstanding_buffer_raises():
    from repro.memory import BufferPool
    from repro.plans import PlanArena

    arena = PlanArena(BufferPool())
    arena.take((2, 2), label="kernel")
    with pytest.raises(RuntimeError, match="handed out"):
        arena.retire()
