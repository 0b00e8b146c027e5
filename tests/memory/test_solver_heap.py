"""A plan-mode solver keeps its plans and contexts, not its task graphs.

Once a graph's compiled plan exists, every warm run replays the plan
against the graph's execution context; the graph's tasks, kernel calls,
messages and levelization are dead weight, and they are most of a
solver's heap.  These tests pin that they are gone: the ``tracemalloc``
live heap of a factorized and solved ``plan_mode="on"`` solver is a
fraction of the same solver under ``plan_mode="off"`` (which keeps its
graphs), and no ``TaskGraph`` of a plan-mode solver survives its first
runs — not even until the next cyclic garbage collection.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import SolverOptions, SymPackSolver
from repro.core.tasks import TaskGraph
from repro.sparse import flan_like, grid_laplacian_2d, thermal_like

# matrix -> bound on (plan-mode heap) / (plan-off heap).  Measured ratios
# on these inputs: 0.28 (grid), 0.37 (thermal), 0.39 (flan); a plan-mode
# solver keeping its graphs next to its plans would read about 1.15.
HEAP_BOUNDS = {
    "grid24": (lambda: grid_laplacian_2d(24, 24), 0.35),
    "thermal2000": (lambda: thermal_like(2000), 0.45),
    "flan8": (lambda: flan_like(8), 0.5),
}


def _live_heap(a, plan_mode: str) -> int:
    """Traced bytes a factorized, 1-column-solved solver keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solver = SymPackSolver(a, SolverOptions(nranks=4,
                                                plan_mode=plan_mode))
        solver.factorize()
        solver.solve(np.ones(a.n))
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
        solver.close()
    finally:
        tracemalloc.stop()
    return live


@pytest.mark.parametrize("matrix", sorted(HEAP_BOUNDS))
def test_plan_solver_heap_is_a_fraction_of_graph_solver(matrix):
    make, bound = HEAP_BOUNDS[matrix]
    a = make()
    ratio = _live_heap(a, "on") / _live_heap(a, "off")
    assert ratio <= bound, f"{matrix}: plan/graph heap ratio {ratio:.3f}"


def _solver_graphs(solver, collect: bool = True) -> list[TaskGraph]:
    """Every live task graph whose context runs on ``solver``'s factor."""
    if collect:
        gc.collect()
    return [o for o in gc.get_objects()
            if isinstance(o, TaskGraph) and o.context is not None
            and o.context.storage is solver.storage]


@pytest.mark.parametrize("plan_mode,graphs", [("on", 0), ("off", 5)])
def test_no_task_graph_outlives_its_plan(plan_mode, graphs):
    """Factor graph + a (fwd, bwd) pair per width under "off"; none under
    "on", where each graph is dropped after its first run.  A dropped
    graph is freed by reference counting (the engine that ran it leaves
    no cycle through its world), so it is gone with the collector off."""
    a = grid_laplacian_2d(12, 12)
    gc.collect()
    gc.disable()
    try:
        solver = SymPackSolver(a, SolverOptions(nranks=4,
                                                plan_mode=plan_mode))
        solver.factorize()
        for nrhs in (1, 3):
            solver.solve(np.ones((a.n, nrhs)))
        assert len(_solver_graphs(solver, collect=False)) == graphs
    finally:
        gc.enable()
    assert len(_solver_graphs(solver)) == graphs
    solver.close()
