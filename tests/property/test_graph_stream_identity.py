"""The executed kernel stream is the task graph's own levelization.

Each task graph levelizes itself once (``TaskGraph.levelize``): every
task's level is its longest path from a root, and ``graph.stream`` is
``[(task.kernel, level)]`` in ``(level, tid)`` order.  The engine,
checkpoint cuts and compiled plans all execute that stream.  These tests
pin both halves for every solver family, under plain runs on 1 and 4
ranks and under a rank crash restarted from level-frontier checkpoints:

* the segments the session's flush hook sees executed concatenate to
  ``graph.stream``, entry for entry (the same ``KernelCall`` objects,
  the same levels), for the factorization and for both solve sweeps;
* the levels equal a plain Kahn longest-path oracle written here.
"""

from collections import deque
from functools import lru_cache

import numpy as np
import pytest

from repro.baselines.pastix_like import PastixLikeSolver, PastixOptions
from repro.core.solver import SolverOptions, SymPackSolver
from repro.resilience import FaultPlan, ResilienceOptions
from repro.sparse import flan_like, grid_laplacian_2d
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

FAMILIES = {
    "fanout": (SymPackSolver, SolverOptions),
    "fanin": (FanInSolver, FanInOptions),
    "fanboth": (FanBothSolver, FanBothOptions),
    "multifrontal": (MultifrontalSolver, MultifrontalOptions),
    "pastix": (PastixLikeSolver, PastixOptions),
}

CONFIGS = ("nranks1", "nranks4", "nranks4_crash")


def kahn_levels(graph) -> list[int]:
    """Longest path from a root, by a per-task Kahn traversal."""
    tasks = graph.tasks
    indeg = [t.deps for t in tasks]
    level = [0] * len(tasks)
    ready = deque(t.tid for t in tasks if t.deps == 0)
    seen = 0
    while ready:
        tid = ready.popleft()
        seen += 1
        task = tasks[tid]
        children = list(task.local_consumers)
        for msg in task.messages:
            children += msg.consumers
        for child in children:
            level[child] = max(level[child], level[tid] + 1)
            indeg[child] -= 1
            if indeg[child] == 0:
                ready.append(child)
    assert seen == len(tasks), "graph has a cycle"
    return level


@lru_cache(maxsize=None)
def _makespan(family: str, matrix: str) -> float:
    solver_cls, options_cls = FAMILIES[family]
    solver = solver_cls(MATRICES[matrix](), options_cls(nranks=4))
    return solver.factorize().simulated_seconds


def _options(family: str, matrix: str, config: str):
    _, options_cls = FAMILIES[family]
    if config == "nranks1":
        return options_cls(nranks=1)
    if config == "nranks4":
        return options_cls(nranks=4)
    crash = FaultPlan(seed=0, crashes=((1, 0.4 * _makespan(family, matrix)),))
    return options_cls(nranks=4, resilience=ResilienceOptions(
        faults=crash, checkpoint_every=2))


def _assert_same_stream(executed, stream):
    assert len(executed) == len(stream)
    for i, ((call, level), (want_call, want_level)) in enumerate(
            zip(executed, stream)):
        assert call is want_call, i
        assert level == want_level, i


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("matrix", sorted(MATRICES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_executed_stream_is_the_graphs(family, matrix, config):
    solver_cls, _ = FAMILIES[family]
    a = MATRICES[matrix]()
    solver = solver_cls(a, _options(family, matrix, config))
    segments: list[list] = []
    solver.session._flush_hook = (
        lambda _executor, _submitted, executed: segments.append(executed))

    solver.factorize()
    graph = solver._factor_graph
    _assert_same_stream([e for seg in segments for e in seg], graph.stream)
    if config == "nranks4_crash":
        assert solver.session.recoveries >= 1
        assert len(segments) >= 2  # checkpoint cuts ran stream prefixes

    segments.clear()
    rhs = np.linspace(-1.0, 1.0, a.n * 3).reshape(a.n, 3)
    solver.solve(rhs)
    fwd, bwd = solver._solve_graphs[3]
    _assert_same_stream([e for seg in segments for e in seg],
                        fwd.stream + bwd.stream)

    for g in (graph, fwd, bwd):
        levels = kahn_levels(g)
        assert g.levels.tolist() == levels
        order = sorted(range(len(g.tasks)), key=lambda t: (levels[t], t))
        assert g.levelize().order.tolist() == order
