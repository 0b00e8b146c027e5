"""Tests of the public SymPackSolver API."""

import numpy as np
import pytest

from repro import CPU_ONLY, MemoryKindsMode, OffloadPolicy, SolverOptions, SymPackSolver, solve_spd
from repro.baselines import reference_solve
from repro.sparse import SymmetricCSC, grid_laplacian_2d, random_spd
from repro.symbolic import AnalysisCache


class TestSolveCorrectness:
    def test_matches_scipy(self, lap2d, rng):
        b = rng.standard_normal(lap2d.n)
        x = solve_spd(lap2d, b, SolverOptions(nranks=4, offload=CPU_ONLY))
        assert np.allclose(x, reference_solve(lap2d, b), atol=1e-8)

    def test_residual_small_all_corner_cases(self, corner_case, rng):
        b = rng.standard_normal(corner_case.n)
        solver = SymPackSolver(corner_case, SolverOptions(nranks=3,
                                                          offload=CPU_ONLY))
        solver.factorize()
        x, _ = solver.solve(b)
        assert solver.residual_norm(x, b) < 1e-10

    def test_multiple_rhs(self, lap2d, rng):
        b = rng.standard_normal((lap2d.n, 3))
        solver = SymPackSolver(lap2d, SolverOptions(nranks=2, offload=CPU_ONLY))
        solver.factorize()
        x, _ = solver.solve(b)
        assert x.shape == b.shape
        assert np.linalg.norm(lap2d.full() @ x - b) < 1e-8

    def test_repeated_factorization(self, lap2d, rng):
        """Analyze once, factorize many times (PEXSI-style usage)."""
        solver = SymPackSolver(lap2d, SolverOptions(nranks=2, offload=CPU_ONLY))
        b = rng.standard_normal(lap2d.n)
        for _ in range(3):
            solver.factorize()
            x, _ = solver.solve(b)
            assert solver.residual_norm(x, b) < 1e-10

    def test_repeated_solves_share_factor(self, lap2d, rng):
        solver = SymPackSolver(lap2d, SolverOptions(nranks=2, offload=CPU_ONLY))
        solver.factorize()
        for _ in range(3):
            b = rng.standard_normal(lap2d.n)
            x, _ = solver.solve(b)
            assert solver.residual_norm(x, b) < 1e-10

    def test_update_values_refactorizes_in_place(self, rng):
        """Numeric-only change: swap values, replay the cached graph."""
        a1 = grid_laplacian_2d(8, 8, shift=0.1)
        a2 = grid_laplacian_2d(8, 8, shift=0.9)
        solver = SymPackSolver(a1, SolverOptions(nranks=2, offload=CPU_ONLY))
        solver.factorize()
        solver.update_values(a2)
        solver.factorize()
        b = rng.standard_normal(a2.n)
        x, _ = solver.solve(b)
        assert np.linalg.norm(a2.full() @ x - b) < 1e-8
        # Matches a from-scratch solver on the new values exactly.
        fresh = SymPackSolver(a2, SolverOptions(nranks=2, offload=CPU_ONLY))
        fresh.factorize()
        x_fresh, _ = fresh.solve(b)
        assert np.array_equal(x, x_fresh)

    def test_update_values_rejects_new_pattern(self):
        a = grid_laplacian_2d(6, 6)
        other = random_spd(a.n, density=0.2, seed=1)
        solver = SymPackSolver(a, SolverOptions(offload=CPU_ONLY))
        solver.factorize()
        with pytest.raises(ValueError, match="pattern"):
            solver.update_values(other)

    def test_shared_analysis_between_solvers(self, rng):
        """A second solver reuses the first one's symbolic analysis."""
        a1 = grid_laplacian_2d(7, 7, shift=0.1)
        a2 = grid_laplacian_2d(7, 7, shift=0.4)
        cache = AnalysisCache()
        opts = SolverOptions(nranks=2, offload=CPU_ONLY, analysis_cache=cache)
        first = SymPackSolver(a1, opts)
        second = SymPackSolver(a2, opts)
        assert cache.stats()["mem_hits"] == 1
        assert second.analysis.perm is first.analysis.perm
        second.factorize()
        b = rng.standard_normal(a2.n)
        x, _ = second.solve(b)
        assert np.linalg.norm(a2.full() @ x - b) < 1e-8

    @pytest.mark.parametrize("ordering", ["natural", "rcm", "amd", "nd",
                                          "scotch_like"])
    def test_all_orderings_solve_correctly(self, ordering, rng):
        a = random_spd(35, density=0.15, seed=2)
        b = rng.standard_normal(a.n)
        solver = SymPackSolver(a, SolverOptions(nranks=2, ordering=ordering,
                                                offload=CPU_ONLY))
        solver.factorize()
        x, _ = solver.solve(b)
        assert solver.residual_norm(x, b) < 1e-10

    @pytest.mark.parametrize("mapping", ["2d", "1d-col", "1d-row"])
    def test_all_mappings_correct(self, mapping, lap2d, rng):
        b = rng.standard_normal(lap2d.n)
        solver = SymPackSolver(lap2d, SolverOptions(nranks=4, mapping=mapping,
                                                    offload=CPU_ONLY))
        solver.factorize()
        x, _ = solver.solve(b)
        assert solver.residual_norm(x, b) < 1e-10

    def test_gpu_mode_same_answer(self, rng):
        a = grid_laplacian_2d(15, 15)
        b = rng.standard_normal(a.n)
        cpu = SymPackSolver(a, SolverOptions(nranks=4, offload=CPU_ONLY))
        cpu.factorize()
        x_cpu, _ = cpu.solve(b)
        gpu = SymPackSolver(a, SolverOptions(
            nranks=4, ranks_per_node=4,
            offload=OffloadPolicy().with_thresholds(GEMM=128, SYRK=128,
                                                    TRSM=128, POTRF=128)))
        gpu.factorize()
        x_gpu, _ = gpu.solve(b)
        assert np.allclose(x_cpu, x_gpu, atol=1e-12)

    def test_memory_kinds_mode_does_not_change_answer(self, lap2d, rng):
        b = rng.standard_normal(lap2d.n)
        answers = []
        for mode in (MemoryKindsMode.NATIVE, MemoryKindsMode.REFERENCE):
            s = SymPackSolver(lap2d, SolverOptions(nranks=4, ranks_per_node=4,
                                                   memory_kinds=mode))
            s.factorize()
            x, _ = s.solve(b)
            answers.append(x)
        assert np.allclose(answers[0], answers[1], atol=1e-12)


class TestApiGuards:
    def test_solve_before_factorize_raises(self, lap2d):
        solver = SymPackSolver(lap2d)
        with pytest.raises(RuntimeError, match="factorize"):
            solver.solve(np.ones(lap2d.n))

    def test_rejects_nonpositive_diagonal(self):
        a = SymmetricCSC.from_any(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError, match="SPD"):
            SymPackSolver(a)

    def test_rejects_indefinite_at_factorization(self):
        # Positive diagonal but indefinite: caught by POTRF.
        a = SymmetricCSC.from_any(np.array([[1.0, 2.0], [2.0, 1.0]]))
        from repro.sparse import NotPositiveDefiniteError
        solver = SymPackSolver(a)
        with pytest.raises(NotPositiveDefiniteError):
            solver.factorize()

    def test_rejects_nan(self):
        a = SymmetricCSC.from_any(np.array([[1.0, 0.0], [0.0, 1.0]]))
        a.lower.data[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SymPackSolver(a)

    def test_factor_sparse_requires_factorize(self, lap2d):
        with pytest.raises(RuntimeError):
            SymPackSolver(lap2d).factor_sparse()

    def test_solve_rejects_double_height_vector(self):
        # n = 36: a length-72 vector must not be solved as two columns.
        a = grid_laplacian_2d(6, 6)
        solver = SymPackSolver(a)
        solver.factorize()
        with pytest.raises(ValueError, match="rhs of shape"):
            solver.solve(np.ones(2 * a.n))

    def test_solve_rejects_double_height_matrix(self):
        # A (72, 1) rhs must not come back as a (36, 2) solution.
        a = grid_laplacian_2d(6, 6)
        solver = SymPackSolver(a)
        solver.factorize()
        with pytest.raises(ValueError, match="rhs of shape"):
            solver.solve(np.ones((2 * a.n, 1)))

    def test_solve_rejects_three_dimensional_rhs(self):
        a = grid_laplacian_2d(6, 6)
        solver = SymPackSolver(a)
        solver.factorize()
        with pytest.raises(ValueError, match="rhs of shape"):
            solver.solve(np.ones((a.n, 2, 2)))


class TestInfoReporting:
    def test_factorize_info_fields(self, lap2d):
        solver = SymPackSolver(lap2d, SolverOptions(nranks=4, offload=CPU_ONLY))
        info = solver.factorize()
        assert info.simulated_seconds > 0
        assert info.tasks > 0
        assert len(info.rank_busy) == 4
        assert info.comm.rpcs_sent > 0

    def test_solve_info_fields(self, lap2d, rng):
        solver = SymPackSolver(lap2d, SolverOptions(nranks=2, offload=CPU_ONLY))
        solver.factorize()
        _, info = solver.solve(rng.standard_normal(lap2d.n))
        assert info.simulated_seconds > 0
        assert info.tasks > 0

    def test_factor_sparse_is_cholesky(self, lap2d):
        solver = SymPackSolver(lap2d, SolverOptions(offload=CPU_ONLY))
        solver.factorize()
        l = np.tril(solver.factor_sparse().toarray())
        a_perm = solver.analysis.a_perm.to_dense()
        assert np.allclose(l @ l.T, a_perm, atol=1e-10)

    def test_device_capacity_resolution(self):
        opts = SolverOptions(nranks=8, ranks_per_node=8)
        cap = opts.resolved_device_capacity()
        # 8 ranks share 4 GPUs -> 2 sharers per device.
        assert cap == opts.machine.gpu_mem_bytes // 2

    def test_cpu_only_capacity_none(self):
        assert SolverOptions(offload=CPU_ONLY).resolved_device_capacity() is None
