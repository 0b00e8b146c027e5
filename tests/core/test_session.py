"""Unit tests for the execution-session layer and graph re-runnability."""

import numpy as np
import pytest

from repro import CPU_ONLY, SolverOptions, SymPackSolver
from repro.core import ExecutionSession, Scheduling
from repro.core.base import CommonOptions
from repro.machine import perlmutter
from repro.pgas import MemoryKindsMode
from repro.sparse import grid_laplacian_2d
from repro.variants import MultifrontalOptions, MultifrontalSolver


class TestSessionConstruction:
    def test_from_options_mirrors_fields(self):
        opts = CommonOptions(nranks=6, ranks_per_node=3,
                             memory_kinds=MemoryKindsMode.REFERENCE,
                             scheduling="priority")
        sess = ExecutionSession.from_options(opts)
        assert sess.nranks == 6
        assert sess.ranks_per_node == 3
        assert sess.memory_kinds is MemoryKindsMode.REFERENCE
        assert sess.scheduling is Scheduling.PRIORITY
        assert sess.machine is opts.machine

    def test_machine_override(self):
        opts = CommonOptions(nranks=2)
        tuned = perlmutter().with_overrides(task_overhead_s=1.0)
        sess = ExecutionSession.from_options(opts, machine=tuned)
        assert sess.machine is tuned

    def test_invalid_scheduling_rejected(self):
        with pytest.raises(ValueError):
            ExecutionSession(2, perlmutter(), scheduling="random")

    def test_new_world_matches_session(self):
        sess = ExecutionSession(4, perlmutter(), ranks_per_node=2)
        world = sess._new_world()
        assert world.nranks == 4
        # Each run() gets a fresh world; nothing leaks between runs.
        assert sess._new_world() is not world


class TestSessionAccumulation:
    def test_comm_and_trace_accumulate_across_runs(self):
        """Factorize + solve share one counter set (paper Fig. 6)."""
        a = grid_laplacian_2d(10, 10)
        solver = SymPackSolver(a, SolverOptions(nranks=4, offload=CPU_ONLY))
        fi = solver.factorize()
        factor_tasks = solver.trace.tasks_executed
        assert fi.comm.rpcs_sent > 0
        _, si = solver.solve(np.ones(a.n))
        # The session trace keeps accumulating through the solve graphs.
        assert solver.trace.tasks_executed > factor_tasks
        assert solver.session.runs == 3  # factor + forward + backward
        total = solver.session.comm
        assert total.rpcs_sent == fi.comm.rpcs_sent + si.comm.rpcs_sent

    def test_run_result_load_imbalance(self):
        a = grid_laplacian_2d(10, 10)
        solver = SymPackSolver(a, SolverOptions(nranks=4, offload=CPU_ONLY))
        fi = solver.factorize()
        assert max(fi.rank_busy) > 0
        assert len(fi.rank_busy) == 4


class TestGraphReuse:
    """The PEXSI pattern: factorize() twice replays the same graph."""

    def test_factor_graph_object_reused(self):
        a = grid_laplacian_2d(10, 10)
        solver = SymPackSolver(a, SolverOptions(nranks=4, offload=CPU_ONLY))
        solver.factorize()
        first = solver._factor_graph
        solver.factorize()
        assert solver._factor_graph is first

    def test_refactorize_identical_factor_and_timing(self):
        a = grid_laplacian_2d(12, 12)
        solver = SymPackSolver(a, SolverOptions(nranks=4, offload=CPU_ONLY))
        f1 = solver.factorize()
        l1 = solver.storage.to_sparse_factor().toarray().copy()
        f2 = solver.factorize()
        l2 = solver.storage.to_sparse_factor().toarray()
        assert np.array_equal(l1, l2)
        assert f1.simulated_seconds == f2.simulated_seconds
        assert f1.tasks == f2.tasks

    def test_solve_graphs_cached_per_nrhs(self):
        a = grid_laplacian_2d(10, 10)
        solver = SymPackSolver(a, SolverOptions(nranks=4, offload=CPU_ONLY))
        solver.factorize()
        b1 = np.ones(a.n)
        x1, s1 = solver.solve(b1)
        graphs_after_first = dict(solver._solve_graphs)
        x2, s2 = solver.solve(b1)
        assert solver._solve_graphs[1][0] is graphs_after_first[1][0]
        assert np.array_equal(x1, x2)
        assert s1.simulated_seconds == s2.simulated_seconds
        # A different rhs width builds (and caches) a new pair of graphs.
        solver.solve(np.ones((a.n, 3)))
        assert set(solver._solve_graphs) == {1, 3}

    def test_refactorize_after_value_change_is_exact(self):
        """Same structure, new values: the replayed graph factors them."""
        a = grid_laplacian_2d(10, 10)
        solver = SymPackSolver(a, SolverOptions(nranks=2, offload=CPU_ONLY))
        solver.factorize()
        x1, _ = solver.solve(np.ones(a.n))
        # Second factorization of the same matrix must reproduce the run.
        solver.factorize()
        x2, _ = solver.solve(np.ones(a.n))
        assert np.array_equal(x1, x2)
        assert solver.residual_norm(x2, np.ones(a.n)) < 1e-10

    def test_multifrontal_refactorize(self):
        """Contribution blocks live in the one resident workspace."""
        a = grid_laplacian_2d(10, 10)
        solver = MultifrontalSolver(a, MultifrontalOptions(nranks=4))
        f1 = solver.factorize()
        ctx = solver._factor_graph.context
        workspace = ctx.workspace
        l1 = solver.storage.to_sparse_factor().toarray().copy()
        f2 = solver.factorize()
        assert np.array_equal(l1, solver.storage.to_sparse_factor().toarray())
        assert f1.simulated_seconds == f2.simulated_seconds
        assert ctx.workspace is workspace
        assert solver.session.pool.outstanding() == \
            solver.session.pool.outstanding("factor") + 1
