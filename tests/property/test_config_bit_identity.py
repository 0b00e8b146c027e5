"""Bits are a function of the task graph, not of how it was scheduled.

Every flush runs in canonical ``(wave, tid)`` order, so the factor and
the solution of a run depend only on the graph the family builds.  Six
configurations that change the simulated timing but not the graph —
rank count aside — must therefore agree to the last bit
(``np.array_equal``): ``nranks`` 1, 4 and 8, FIFO vs ``priority``
scheduling, compiled plans (``plan_mode="on"``, factorized twice so the
second run replays the plan) and the resilient runner.

Fan-out, multifrontal and PaStiX-like build one graph whatever
``nranks`` is, so all six configurations give one result.  Fan-in and
fan-both aggregate updates per destination rank: the aggregation tree
follows the rank mapping, so the summation order — and the bits — are
a function of ``nranks`` (one result per rank count, not one overall).
That is the algorithm, not timing.

A second group pins the service's coalescing contract: each column of a
k-wide solve equals its solo solve.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.pastix_like import PastixLikeSolver, PastixOptions
from repro.core.solver import SolverOptions, SymPackSolver
from repro.resilience import ResilienceOptions
from repro.sparse import flan_like, grid_laplacian_2d, thermal_like
from repro.variants import (
    FanBothOptions,
    FanBothSolver,
    FanInOptions,
    FanInSolver,
    MultifrontalOptions,
    MultifrontalSolver,
)

MATRICES = {
    "grid16": lambda: grid_laplacian_2d(16, 16),
    "flan4": lambda: flan_like(4),
}

# family -> whether its graph (hence its bits) depends on nranks
FAMILIES = [
    (SymPackSolver, SolverOptions, False),
    (FanInSolver, FanInOptions, True),
    (FanBothSolver, FanBothOptions, True),
    (MultifrontalSolver, MultifrontalOptions, False),
    (PastixLikeSolver, PastixOptions, False),
]

CONFIGS = {
    "nranks1": dict(nranks=1),
    "nranks4": dict(nranks=4),
    "nranks4_priority": dict(nranks=4, scheduling="priority"),
    "nranks8": dict(nranks=8),
    "nranks4_plan": dict(nranks=4, plan_mode="on"),
    "nranks4_resilience": dict(nranks=4, resilience=ResilienceOptions()),
}


def _digest(solver_cls, options_cls, a, config):
    solver = solver_cls(a, options_cls(**config))
    rhs = np.linspace(-1.0, 1.0, a.n * 2).reshape(a.n, 2)
    runs = 2 if config.get("plan_mode") == "on" else 1
    for _ in range(runs):
        solver.factorize()
        x, _ = solver.solve(rhs)
    factor = solver.storage.to_sparse_factor().toarray()
    h = hashlib.sha256(np.ascontiguousarray(factor).tobytes())
    h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()[:12]


@pytest.mark.parametrize("matrix_key", sorted(MATRICES))
@pytest.mark.parametrize("solver_cls,options_cls,by_nranks", FAMILIES,
                         ids=[cls.__name__ for cls, _o, _b in FAMILIES])
def test_bits_depend_on_graph_only(solver_cls, options_cls, by_nranks,
                                   matrix_key):
    a = MATRICES[matrix_key]()
    digests = {name: _digest(solver_cls, options_cls, a, cfg)
               for name, cfg in CONFIGS.items()}
    groups: dict = {}
    for name, cfg in CONFIGS.items():
        key = cfg["nranks"] if by_nranks else None
        groups.setdefault(key, set()).add(digests[name])
    assert all(len(d) == 1 for d in groups.values()), digests


@pytest.mark.parametrize("plan_mode", ["off", "on"])
@pytest.mark.parametrize("solver_cls,options_cls", [
    (SymPackSolver, SolverOptions),
    (MultifrontalSolver, MultifrontalOptions),
], ids=lambda v: getattr(v, "__name__", None))
def test_k_wide_columns_equal_solo_solves(solver_cls, options_cls,
                                          plan_mode):
    a = thermal_like(800)
    solver = solver_cls(a, options_cls(nranks=4, plan_mode=plan_mode))
    solver.factorize()
    rng = np.random.default_rng(0)
    b = rng.standard_normal((a.n, 8))
    solo = [solver.solve(b[:, c])[0] for c in range(8)]
    differ = []
    for k in (2, 3, 8):
        x, _ = solver.solve(b[:, :k])
        differ += [(k, c) for c in range(k)
                   if not np.array_equal(x[:, c], solo[c])]
    assert not differ, f"{len(differ)}/13 (k, column) differ: {differ}"
