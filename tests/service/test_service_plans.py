"""Compiled plans inside the solve service: caching, telemetry, eviction.

Plans live on the cached solver, so the pattern-keyed
:class:`FactorCache` carries them implicitly — eviction must retire the
plan and its arena along with the factor (ledger drains to zero), and a
re-submitted matrix must degrade to the symbolic tier and recompile,
never ride a stale plan.
"""

import numpy as np
import scipy.sparse as sp

from repro import ServiceConfig, SolveService, SolverOptions
from repro.sparse import SymmetricCSC, grid_laplacian_2d, random_spd

PLAN_OPTIONS = SolverOptions(nranks=2, plan_mode="on")


def _config(**overrides) -> ServiceConfig:
    defaults = dict(workers=1, queue_depth=32, max_coalesce=1)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _rhs(a, seed, ncols=1):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((a.n, ncols))
    return b[:, 0] if ncols == 1 else b


def _shifted(a: SymmetricCSC, shift: float) -> SymmetricCSC:
    eye = sp.identity(a.n, format="csc")
    return SymmetricCSC.from_any(
        a.lower + a.lower.T - sp.diags(a.lower.diagonal()) + shift * eye)


class TestPlanTelemetry:
    def test_cold_compiles_refactor_replays(self):
        a = grid_laplacian_2d(8, 8)
        with SolveService(PLAN_OPTIONS, _config()) as svc:
            _, s0 = svc.solve(a, _rhs(a, 0))
            _, s1 = svc.solve(_shifted(a, 0.2), _rhs(a, 1))
            counts = svc.counters()
        assert s0.tier == "cold"
        assert s0.plan_compile_ms > 0          # factor + solve-sweep plans
        assert s0.plan_hits == 0               # nothing to replay yet
        assert s1.tier == "refactor"
        # Warm request: factor replay + both solve sweeps rode plans.
        assert s1.plan_hits == 3
        assert s1.plan_compile_ms == 0.0
        assert counts.plan_compiles == 3
        assert counts.plan_hits == 3
        assert counts.plan_compile_ms > 0
        svc.close()

    def test_plan_off_reports_zero(self):
        a = grid_laplacian_2d(8, 8)
        with SolveService(SolverOptions(nranks=2), _config()) as svc:
            _, s0 = svc.solve(a, _rhs(a, 0))
            _, s1 = svc.solve(_shifted(a, 0.2), _rhs(a, 1))
            counts = svc.counters()
        assert (s0.plan_hits, s1.plan_hits) == (0, 0)
        assert counts.plan_compiles == 0 and counts.plan_hits == 0
        svc.close()

    def test_plan_solution_matches_plan_off(self):
        """The service's plan tier changes performance, never bits."""
        a = random_spd(50, density=0.15, seed=1)
        shifts = (0.0, 0.2, 0.4)
        results = {}
        for mode in ("off", "on"):
            opts = SolverOptions(nranks=2, plan_mode=mode)
            with SolveService(opts, _config()) as svc:
                results[mode] = [
                    svc.solve(_shifted(a, s), _rhs(a, i))[0]
                    for i, s in enumerate(shifts)]
            svc.close()
        for x_off, x_on in zip(results["off"], results["on"]):
            assert np.array_equal(x_off, x_on)


class TestPlanEviction:
    def test_eviction_retires_plan_ledger_drains(self):
        """Evicting a factor entry retires its plan arena too."""
        mats = [grid_laplacian_2d(8, 8),
                random_spd(50, density=0.15, seed=1),
                random_spd(50, density=0.15, seed=2)]
        with SolveService(PLAN_OPTIONS,
                          _config(factor_budget_bytes=1)) as svc:
            for i, a in enumerate(mats):
                svc.solve(a, _rhs(a, i))
                # Warm refactorization populates the plan arena before
                # the next matrix evicts this entry.
                svc.solve(_shifted(a, 0.3), _rhs(a, i + 10))
            counts = svc.counters()
            assert counts.evictions >= 2
            assert len(svc.factor_cache) == 1
            assert svc.factor_cache.reconcile() == 0
        svc.close()
        assert svc.ledger.live() == 0

    def test_evicted_pattern_degrades_to_symbolic_and_recompiles(self):
        """A re-submitted evicted matrix never sees a stale plan."""
        a = grid_laplacian_2d(8, 8)
        b = random_spd(50, density=0.15, seed=1)
        with SolveService(PLAN_OPTIONS,
                          _config(factor_budget_bytes=1)) as svc:
            _, s0 = svc.solve(a, _rhs(a, 0))
            svc.solve(b, _rhs(b, 1))          # evicts a's entry (+ plan)
            compiles_before = svc.counters().plan_compiles
            x, s2 = svc.solve(a, _rhs(a, 0))
            compiles_after = svc.counters().plan_compiles
            # Identical request again: now a warm plan replay, which
            # must reproduce the freshly-recorded bits exactly — the
            # stale-plan smoke signal.
            x_ref, s3 = svc.solve(a, _rhs(a, 0))
        # The factor (and its plan) were evicted; the symbolic analysis
        # survived, so the request lands on the symbolic tier, records a
        # fresh plan, and replays nothing stale.
        assert s0.tier == "cold"
        assert s2.tier == "symbolic"
        assert s2.plan_hits == 0
        assert compiles_after > compiles_before
        assert s3.tier == "factor"
        assert np.array_equal(x, x_ref)
        svc.close()
        assert svc.ledger.live() == 0
