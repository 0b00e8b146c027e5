"""End-to-end tests of :class:`repro.service.SolveService`.

Covers the acceptance criteria of the service subsystem: N structurally
identical solves run symbolic analysis exactly once; full numeric
factorization happens only on cache misses; coalesced multi-RHS solves
are bit-identical to sequential single-RHS solves.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro import ServiceConfig, SolveService, SolverOptions, SymPackSolver
from repro.service import ServiceOverloaded
from repro.sparse import grid_laplacian_2d, random_spd, thermal_like

OPTIONS = SolverOptions(nranks=2)


def _fast_config(**overrides) -> ServiceConfig:
    defaults = dict(workers=2, queue_depth=32)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _rhs(a, seed, ncols=1):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((a.n, ncols))
    return b[:, 0] if ncols == 1 else b


class TestTiers:
    def test_cold_then_factor_then_refactor(self):
        a = grid_laplacian_2d(8, 8)
        a2 = grid_laplacian_2d(8, 8, shift=0.5)     # same pattern, new values
        with SolveService(OPTIONS, _fast_config(workers=1)) as svc:
            _, s1 = svc.solve(a, _rhs(a, 0))
            _, s2 = svc.solve(a, _rhs(a, 1))
            _, s3 = svc.solve(a2, _rhs(a2, 2))
            _, s4 = svc.solve(a2, _rhs(a2, 3))
        assert s1.tier == "cold"
        assert s2.tier == "factor"
        assert s3.tier == "refactor"
        assert s4.tier == "factor"
        counts = svc.counters()
        assert counts.symbolic_builds == 1
        assert counts.numeric_factorizations == 1
        assert counts.refactorizations == 1
        assert counts.requests_completed == 4

    def test_symbolic_analysis_runs_exactly_once(self):
        """N structurally identical solves share one symbolic analysis."""
        n_requests = 6
        base = grid_laplacian_2d(7, 7)
        with SolveService(OPTIONS, _fast_config()) as svc:
            futures = []
            for i in range(n_requests):
                a = grid_laplacian_2d(7, 7, shift=0.1 + 0.1 * i)
                futures.append(svc.submit(a, _rhs(a, i)))
            stats = [f.result()[1] for f in futures]
        counts = svc.counters()
        assert counts.symbolic_builds == 1
        assert counts.analysis_cache["entries"] == 1
        # Exactly one full (cold) factorization; every numeric change
        # replays the cached graph instead of rebuilding.
        assert counts.numeric_factorizations == 1
        assert sum(1 for s in stats if s.tier == "cold") == 1
        assert all(s.tier in ("cold", "refactor", "factor") for s in stats)
        del base

    def test_distinct_patterns_are_independent(self):
        a = grid_laplacian_2d(6, 6)
        b = random_spd(40, density=0.15, seed=7)
        with SolveService(OPTIONS, _fast_config(workers=1)) as svc:
            _, s1 = svc.solve(a, _rhs(a, 0))
            _, s2 = svc.solve(b, _rhs(b, 1))
            _, s3 = svc.solve(a, _rhs(a, 2))
        assert (s1.tier, s2.tier, s3.tier) == ("cold", "cold", "factor")
        counts = svc.counters()
        assert counts.symbolic_builds == 2
        assert counts.factor_entries == 2

    def test_eviction_degrades_to_symbolic_not_cold(self, monkeypatch):
        """Evicting a factor keeps the symbolic analysis cached."""
        import repro.symbolic.cache as cache

        rebinds = []
        real = cache.rebind_analysis_values

        def counting(analysis, a):
            rebinds.append(a)
            return real(analysis, a)

        monkeypatch.setattr(cache, "rebind_analysis_values", counting)
        a = grid_laplacian_2d(6, 6)
        b = grid_laplacian_2d(9, 5)
        config = _fast_config(workers=1, factor_budget_bytes=1)
        with SolveService(OPTIONS, config) as svc:
            _, s1 = svc.solve(a, _rhs(a, 0))
            _, s2 = svc.solve(b, _rhs(b, 1))     # evicts a's factor
            assert rebinds == []                 # cold builds rebind nothing
            _, s3 = svc.solve(a, _rhs(a, 2))
        assert (s1.tier, s2.tier) == ("cold", "cold")
        assert s3.tier == "symbolic"
        assert len(rebinds) == 1                # one value permutation
        counts = svc.counters()
        assert counts.evictions >= 2
        assert counts.bytes_evicted > 0
        assert counts.symbolic_builds == 2      # never rebuilt
        # No directory configured: the memory tier alone served the return.
        assert counts.analysis_cache["mem_hits"] == 1
        assert counts.analysis_cache["disk_hits"] == 0

    def test_callers_analysis_cache_is_the_symbolic_tier(self):
        from repro.symbolic import AnalysisCache

        cache = AnalysisCache()
        a = grid_laplacian_2d(6, 6)
        opts = SolverOptions(nranks=2, analysis_cache=cache)
        with SolveService(opts, _fast_config(workers=1)) as svc:
            _, s1 = svc.solve(a, _rhs(a, 0))
        assert svc.analysis_cache is cache and len(cache) == 1
        with SolveService(opts, _fast_config(workers=1)) as svc2:
            _, s2 = svc2.solve(a, _rhs(a, 0))
        assert (s1.tier, s2.tier) == ("cold", "symbolic")


class TestResults:
    def test_solution_matches_direct_solver(self):
        a = random_spd(50, density=0.12, seed=3)
        b = _rhs(a, 11)
        solver = SymPackSolver(a, OPTIONS)
        solver.factorize()
        x_ref, _ = solver.solve(b)
        with SolveService(OPTIONS, _fast_config(workers=1)) as svc:
            x, stats = svc.solve(a, b)
        assert np.array_equal(x, x_ref)
        assert stats.residual is not None and stats.residual < 1e-10

    def test_multirhs_and_shape_preserved(self):
        a = grid_laplacian_2d(6, 6)
        b = _rhs(a, 0, ncols=3)
        with SolveService(OPTIONS, _fast_config(workers=1)) as svc:
            x, stats = svc.solve(a, b)
        assert x.shape == (a.n, 3)
        assert stats.coalesced_width >= 3

    def test_stats_fields(self):
        a = grid_laplacian_2d(5, 5)
        with SolveService(OPTIONS, _fast_config(workers=1)) as svc:
            _, stats = svc.solve(a, _rhs(a, 0))
        assert stats.queue_wait >= 0.0
        assert stats.factor_seconds > 0.0        # cold: paid factorization
        assert stats.solve_seconds > 0.0
        assert stats.makespan == stats.factor_seconds + stats.solve_seconds

    def test_trace_records_service_events(self):
        a = grid_laplacian_2d(5, 5)
        with SolveService(OPTIONS, _fast_config(workers=1)) as svc:
            svc.solve(a, _rhs(a, 0))
            svc.solve(a, _rhs(a, 1))
        events = svc.trace.service_events
        assert len(events) == 2
        assert [e.tier for e in events] == ["cold", "factor"]
        assert svc.counters().tiers == {"cold": 1, "factor": 1}


class TestCoalescing:
    def _run_coalesced(self, max_coalesce: int, a=None):
        """One slow leader, K same-factor followers queued behind it."""
        if a is None:
            a = random_spd(40, density=0.15, seed=9)
        rhs = [_rhs(a, seed) for seed in range(5)]
        config = _fast_config(workers=1, max_coalesce=max_coalesce)
        svc = SolveService(OPTIONS, config)
        release = threading.Event()
        orig = svc._materialize

        def gated(req):
            release.wait(10.0)      # let followers pile up in the queue
            return orig(req)

        svc._materialize = gated
        with svc:
            futures = [svc.submit(a, b) for b in rhs]
            while len(svc._queue) < len(rhs) - 1:
                time.sleep(0.01)
            release.set()
            results = [f.result(timeout=30.0) for f in futures]
        return svc, results

    def test_coalesced_solves_bit_identical_to_sequential(self):
        # Large and irregular enough that a strided or timing-ordered
        # multi-column solve would round differently from a solo one.
        a = thermal_like(800)
        solver = SymPackSolver(a, OPTIONS)
        solver.factorize()
        refs = [solver.solve(_rhs(a, seed))[0] for seed in range(5)]

        svc, results = self._run_coalesced(max_coalesce=8, a=a)
        widths = [stats.coalesced_width for _, stats in results]
        assert max(widths) == 5          # all five rode one stacked solve
        assert svc.counters().coalesced_requests == 5
        assert svc.counters().solve_runs == 1
        for (x, _), x_ref in zip(results, refs):
            assert np.array_equal(x, x_ref)

    def test_coalescing_disabled(self):
        svc, results = self._run_coalesced(max_coalesce=1)
        assert all(stats.coalesced_width == 1 for _, stats in results)
        assert svc.counters().coalesced_requests == 0
        assert svc.counters().solve_runs == 5

    def test_max_coalesce_bounds_width(self):
        a = random_spd(30, density=0.2, seed=4)
        rhs = [_rhs(a, seed) for seed in range(5)]
        config = _fast_config(workers=1, max_coalesce=3)
        svc = SolveService(OPTIONS, config)
        release = threading.Event()
        orig = svc._materialize

        def gated(req):
            release.wait(10.0)
            return orig(req)

        svc._materialize = gated
        with svc:
            futures = [svc.submit(a, b) for b in rhs]
            while len(svc._queue) < len(rhs) - 1:
                time.sleep(0.01)
            release.set()
            results = [f.result(timeout=30.0) for f in futures]
        assert max(stats.coalesced_width for _, stats in results) == 3


class TestBackpressure:
    def test_submit_raises_when_queue_stays_full(self):
        a = grid_laplacian_2d(5, 5)
        config = _fast_config(workers=1, queue_depth=1)
        svc = SolveService(OPTIONS, config)
        release = threading.Event()
        orig = svc._process

        def gated(req):
            release.wait(10.0)
            orig(req)

        svc._process = gated
        with svc:
            first = svc.submit(a, _rhs(a, 0))     # worker grabs, then blocks
            time.sleep(0.1)
            second = svc.submit(a, _rhs(a, 1))    # fills the queue
            with pytest.raises(ServiceOverloaded):
                svc.submit(a, _rhs(a, 2), timeout=0.05)
            release.set()
            first.result(timeout=30.0)
            second.result(timeout=30.0)


class TestApi:
    def test_submit_before_start_rejected(self):
        a = grid_laplacian_2d(4, 4)
        svc = SolveService(OPTIONS, _fast_config())
        with pytest.raises(RuntimeError):
            svc.submit(a, _rhs(a, 0))

    def test_rhs_dimension_mismatch(self):
        a = grid_laplacian_2d(4, 4)
        with SolveService(OPTIONS, _fast_config()) as svc:
            with pytest.raises(ValueError):
                svc.submit(a, np.zeros(a.n + 1))

    def test_rhs_with_more_than_two_dimensions_rejected(self):
        # An (n, 2, 2) rhs must not be flattened into four columns.
        a = grid_laplacian_2d(4, 4)
        with SolveService(OPTIONS, _fast_config()) as svc:
            with pytest.raises(ValueError, match="rhs of shape"):
                svc.submit(a, np.zeros((a.n, 2, 2)))

    def test_failed_request_propagates_exception(self):
        bad = random_spd(20, density=0.2, seed=1)
        bad.lower.data[:] = 0.0              # singular: factorization fails
        bad.lower.data[0] = -1.0
        with SolveService(OPTIONS, _fast_config(workers=1)) as svc:
            fut = svc.submit(bad, np.ones(bad.n))
            with pytest.raises(Exception):
                fut.result(timeout=30.0)
        assert svc.counters().requests_failed == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_coalesce=0)

    def test_config_has_five_knobs(self):
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "workers", "queue_depth", "factor_budget_bytes", "max_coalesce",
            "analysis_cache_dir"]
        with pytest.raises(TypeError):      # retired: max_coalesce=1 instead
            ServiceConfig(**{"coalesce": False})
