"""Allocation-count gate: exact ledger allocation counts per solver family.

Every byte the solvers allocate is charged to the session's
:class:`~repro.memory.MemoryLedger`, so allocation counts are exact and
deterministic per scenario — they change only when the allocation
behaviour of the code changes (a pool bypass or a scratch leak shows up
here as a count jump long before it shows up as wall time).  The counts
are pinned in ``memory_baseline.json``; re-bake it deliberately, in the
PR that changes allocation behaviour.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.offload import DEFAULT_THRESHOLDS, OffloadPolicy
from repro.core.solver import SolverOptions, SymPackSolver
from repro.sparse import grid_laplacian_2d, random_spd
from repro.variants.fanin import FanInOptions, FanInSolver
from repro.variants.multifrontal import MultifrontalOptions, MultifrontalSolver

BASELINE = json.loads(
    (Path(__file__).parent / "memory_baseline.json").read_text())
GRID = BASELINE["grid"]
N_RANDOM = BASELINE["n_random"]


def _scenarios():
    gpu_hungry = OffloadPolicy(
        thresholds={op: 1 for op in DEFAULT_THRESHOLDS})
    grid = grid_laplacian_2d(GRID, GRID)
    return {
        "fanout_grid": (SymPackSolver, SolverOptions(nranks=2), grid),
        "fanin_random": (FanInSolver, FanInOptions(nranks=2),
                         random_spd(N_RANDOM, density=0.15, seed=3)),
        "multifrontal_grid": (MultifrontalSolver,
                              MultifrontalOptions(nranks=2), grid),
        "fanout_gpu_hungry": (SymPackSolver,
                              SolverOptions(nranks=2, offload=gpu_hungry),
                              grid),
    }


@pytest.mark.parametrize("name", sorted(BASELINE["scenarios"]))
def test_allocation_counts_match_baseline(name):
    solver_cls, options, a = _scenarios()[name]
    solver = solver_cls(a, options)
    solver.factorize()
    solver.solve(np.linspace(-1.0, 1.0, a.n).reshape(a.n, 1))
    # Refactorize once so free-list reuse (not just first-run allocation)
    # is part of the measured count.
    solver.factorize()
    snap = solver.session.ledger.snapshot()
    solver.close()
    assert solver.session.ledger.live() == 0
    assert {"allocs_host": snap.allocs("host"),
            "allocs_device": snap.allocs("device")
            } == BASELINE["scenarios"][name]
