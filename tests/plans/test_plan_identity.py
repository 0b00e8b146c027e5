"""Plan replay == simulation, to the last bit, for every solver family.

Either plan mode simulates each graph once — the factor graph, and the
solve graphs at each rhs width — and replays a plan for every later run:
a warm refactorization (``update_values`` + ``factorize``) or a warm
solve executes the kernel stream directly — no task-graph traversal, no
event queue, no simulated RPC — and produces **bit-identical** factors
and solutions (``np.array_equal``, never ``allclose``) to the simulated
run.  ``plan_mode="on"`` replays compiled streams (the solve pair
compiled once and shared by every width), ``"off"`` the graphs' own.
"""

import gc
import tracemalloc

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
    """Warm compiled-plan refactorize + solve == plan_mode="off" (the
    uncompiled stream; its first run simulated), bit for bit."""
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
    """Each rhs width keeps its own solve plan pair (its simulated
    results) over one compiled stream pair; both replay."""
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
    assert solver.plan_stats.compiles == 3  # factor + one solve pair
    (fwd1, bwd1), (fwd3, bwd3) = (solver._solve_plans[w] for w in (1, 3))
    assert fwd3.stream is fwd1.stream and bwd3.stream is bwd1.stream
    solver.close()
    ref.close()


def test_close_drops_plans_and_gives_back_workspaces():
    """close() drops the plans and gives every workspace back; the
    ledger returns to zero."""
    a = MATRICES["coalesced"]()
    solver = MultifrontalSolver(a, MultifrontalOptions(nranks=1,
                                                       plan_mode="on"))
    solver.factorize()
    solver.update_values(_shifted(a, 0.5))
    solver.factorize()  # a replay: works in the resident workspace
    ctx = solver._factor_ctx
    assert solver._factor_plan is not None and ctx.workspace is not None
    solver.close()
    assert solver._factor_plan is None
    assert ctx.workspace is None
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


@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_bits_after_graphs_are_dropped(solver_cls, options_cls):
    """A plan-mode solver drops each graph once its plan is compiled;
    everything it runs afterwards still equals a graph-keeping solver."""
    a = MATRICES["sparse"]()
    solvers = [solver_cls(a, options_cls(nranks=2, plan_mode=mode))
               for mode in ("off", "on")]
    off, on = solvers

    def same(run):
        ref, got = (run(s) for s in solvers)
        assert np.array_equal(ref, got)

    def factor(s):
        s.factorize()
        return s.storage.to_sparse_factor().toarray()

    def solve(nrhs):
        rhs = np.linspace(-1.0, 1.0, a.n * nrhs).reshape(a.n, nrhs)
        return lambda s: s.solve(rhs)[0]

    same(factor)
    same(solve(1))
    assert on._factor_graph is None and not on._solve_graphs
    assert off._factor_graph is not None and sorted(off._solve_graphs) == [1]
    on.update_values(_shifted(a, 0.4))
    off.update_values(_shifted(a, 0.4))
    same(factor)            # refactorize from the plan alone
    same(solve(1))          # a width seen before the drop
    same(solve(3))          # a width first seen after it
    same(solve(3))
    same(solve(1))
    assert not on._solve_graphs and sorted(on._solve_plans) == [1, 3]
    for s in solvers:
        s.close()
        assert s.session.ledger.live() == 0


def _sim(info):
    """The simulated results a run reports (not its trace or memory)."""
    return (info.simulated_seconds, info.tasks,
            list(getattr(info, "rank_busy", ())), repr(info.comm))


@pytest.mark.parametrize("plan_mode", ["off", "on"])
@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_each_graph_simulated_once(solver_cls, options_cls, plan_mode):
    """One DES run per graph (factor, and forward + backward per rhs
    width); every other run replays, with the first run's simulated
    results and bits."""
    a = MATRICES["sparse"]()
    solver = solver_cls(a, options_cls(nranks=2, plan_mode=plan_mode))
    session = solver.session
    first: dict = {}
    for _ in range(3):
        info = solver.factorize()
        factor = solver.storage.to_sparse_factor().toarray()
        ref = first.setdefault("factor", (factor, _sim(info)))
        assert np.array_equal(factor, ref[0]) and _sim(info) == ref[1]
        for _ in range(2):
            for width in (1, 3):
                rhs = np.linspace(-1.0, 1.0, a.n * width).reshape(a.n, width)
                x, sinfo = solver.solve(rhs)
                ref = first.setdefault(width, (x, _sim(sinfo)))
                assert np.array_equal(x, ref[0]) and _sim(sinfo) == ref[1]
    assert session.runs - session.plan_runs == 1 + 2 * 2
    assert solver.plan_stats.compiles == (3 if plan_mode == "on" else 0)
    assert solver.plan_stats.hits == session.plan_runs
    solver.close()
    assert session.ledger.live() == 0


def test_unseen_width_compiles_nothing_and_retains_its_rhs_only():
    """Plan mode: a new rhs width is simulated once for its timings, then
    replays the first width's compiled streams.  It compiles nothing,
    keeps no graph, and grows the heap by its rhs buffer and a few small
    objects (a compiled plan pair is ~270 KB on this grid)."""
    a = grid_laplacian_2d(16, 16)
    solver = SymPackSolver(a, SolverOptions(nranks=4, plan_mode="on"))
    solver.factorize()
    solver.solve(np.ones(a.n))
    compiles = solver.plan_stats.compiles
    for width in (3, 8):
        b = np.ones((a.n, width))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            x, _ = solver.solve(b)
            del x
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert solver.plan_stats.compiles == compiles == 3
        assert solver._factor_graph is None and not solver._solve_graphs
        assert grown <= b.nbytes + 32 * 1024, (width, grown)
    solver.close()
