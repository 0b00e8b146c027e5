"""Compiled-plan replay vs DES replay on the service macro workload.

Workload: the service-macro pattern — one sparsity pattern (block-diagonal
union of dense SPD tenants) with a new diagonal shift per request, so
after the first request every one lands on the **refactor** tier:
``update_values`` + ``factorize`` + triangular solves.  That tier is
exactly what ``plan_mode="on"`` accelerates — warm runs execute the
recorded kernel streams directly instead of replaying the task graph
through the discrete-event simulator.

Two measurements, both into ``benchmarks/perf/BENCH_plans.json``:

* **refactorize phase** — warm ``factorize()`` on the macro workload's
  solver, DES graph replay vs compiled plan.  This is the phase the plan
  subsystem owns, and carries the hard speedup gate (>= 3x full mode).
* **service end-to-end** — the full stack (queue, keys, value update,
  solves, residuals) run twice with identical requests, ``plan_mode``
  off vs on, one worker for deterministic order.  Every solution must be
  **bit-identical** between the two runs (the CI divergence gate), and
  warm plan requests must beat warm DES requests outright (quick-mode
  gate) even though untouched phases dilute the ratio.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro import ServiceConfig, SolveService, SolverOptions
from repro.core.solver import SymPackSolver
from repro.sparse import SymmetricCSC

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
RESULTS_PATH = Path(__file__).parent / "BENCH_plans.json"
N_REQUESTS = 8 if QUICK else 16
N_REFACTOR = 6 if QUICK else 12
# The refactorize phase is what plans replace wholesale: hard gate.
MIN_REFACTOR_SPEEDUP = 1.5 if QUICK else 3.0
# End-to-end warm requests still pay untouched phases (queueing, value
# rescatter, solves, residual checks); the plan path must simply win.
MIN_E2E_SPEEDUP = 1.0 if QUICK else 1.15


def _solver_options(plan_mode):
    return SolverOptions(nranks=1, ordering="natural",
                         plan_mode=plan_mode)


def _tenant_union():
    per_width = 16 if QUICK else 48
    sizes = [8] * per_width + [12] * per_width + [16] * per_width
    rng = np.random.default_rng(1)
    blocks = []
    for n in sizes:
        m = rng.standard_normal((n, n)) * 0.1
        blocks.append(m @ m.T + n * np.eye(n))
    return sp.block_diag(blocks, format="csc"), len(sizes)


def _matrices(count):
    base, tenants = _tenant_union()
    eye = sp.identity(base.shape[0], format="csc")
    return [SymmetricCSC.from_any(base + (0.1 + 0.05 * i) * eye)
            for i in range(count)], tenants


def _requests():
    matrices, tenants = _matrices(N_REQUESTS)
    rng = np.random.default_rng(2)
    rhs = [rng.standard_normal(matrices[0].n) for _ in range(N_REQUESTS)]
    return matrices, rhs, tenants


def _time_refactorize(plan_mode, matrices):
    """Mean warm ``factorize()`` seconds per cycle.

    Values change between cycles (``update_values``, identical cost on
    both paths and excluded from the timer); the timed region is exactly
    what the plan subsystem replaces — the DES graph replay vs the
    compiled-stream execution.
    """
    solver = SymPackSolver(matrices[0], _solver_options(plan_mode))
    solver.factorize()
    solver.update_values(matrices[1])
    solver.factorize()                     # warm-up (plan arena faults in)
    elapsed = 0.0
    for a in matrices[2:]:
        solver.update_values(a)
        start = time.perf_counter()
        solver.factorize()
        elapsed += time.perf_counter() - start
    elapsed /= len(matrices) - 2
    factor = solver.storage.to_sparse_factor().toarray()
    solver.close()
    return elapsed, factor


def _run_service(matrices, rhs, *, plan_mode):
    config = ServiceConfig(workers=1, queue_depth=N_REQUESTS, coalesce=False)
    with SolveService(_solver_options(plan_mode), config) as svc:
        start = time.perf_counter()
        x0, s0 = svc.solve(matrices[0], rhs[0])
        cold = time.perf_counter() - start
        start = time.perf_counter()
        futures = [svc.submit(a, b)
                   for a, b in zip(matrices[1:], rhs[1:])]
        results = [f.result(timeout=600.0) for f in futures]
        warm = time.perf_counter() - start
        counts = svc.counters()
    assert counts.requests_failed == 0
    assert counts.symbolic_builds == 1
    assert s0.residual < 1e-8
    assert all(stats.residual < 1e-8 for _, stats in results)
    assert all(stats.tier == "refactor" for _, stats in results)
    if plan_mode == "on":
        # 3 plans compiled on the cold request; every warm request rode
        # a factor replay plus both solve sweeps.
        assert counts.plan_compiles == 3
        assert counts.plan_hits == 3 * (N_REQUESTS - 1)
    else:
        assert counts.plan_hits == 0
    return cold, warm, [x0] + [x for x, _ in results], counts


def test_plan_vs_des_service():
    refac_mats, _ = _matrices(N_REFACTOR + 2)
    des_refac, des_factor = _time_refactorize("off", refac_mats)
    plan_refac, plan_factor = _time_refactorize("on", refac_mats)
    refac_speedup = des_refac / plan_refac
    assert np.array_equal(des_factor, plan_factor)

    matrices, rhs, tenants = _requests()
    des_cold, des_warm, des_x, _ = _run_service(matrices, rhs,
                                                plan_mode="off")
    plan_cold, plan_warm, plan_x, counts = _run_service(matrices, rhs,
                                                        plan_mode="on")

    divergent = [i for i, (xd, xp) in enumerate(zip(des_x, plan_x))
                 if not np.array_equal(xd, xp)]
    e2e_speedup = des_warm / plan_warm

    record = {
        "quick_mode": QUICK,
        "tenants": tenants,
        "n": matrices[0].n,
        "requests": N_REQUESTS,
        "refactorize_des_ms": round(des_refac * 1e3, 3),
        "refactorize_plan_ms": round(plan_refac * 1e3, 3),
        "refactorize_speedup_plan_vs_des": round(refac_speedup, 3),
        "des_cold_seconds": round(des_cold, 4),
        "des_warm_seconds": round(des_warm, 4),
        "plan_cold_seconds": round(plan_cold, 4),
        "plan_warm_seconds": round(plan_warm, 4),
        "plan_compiles": counts.plan_compiles,
        "plan_hits": counts.plan_hits,
        "plan_compile_ms": round(counts.plan_compile_ms, 3),
        "e2e_warm_speedup_plan_vs_des": round(e2e_speedup, 3),
        "warm_requests_per_second_des": round((N_REQUESTS - 1) / des_warm, 2),
        "warm_requests_per_second_plan": round((N_REQUESTS - 1) / plan_warm,
                                               2),
        "bit_identical": not divergent,
    }
    results = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() \
        else {}
    results["service_plans"] = record
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    print(f"\nplan replay: {refac_speedup:.2f}x warm refactorize "
          f"({des_refac * 1e3:.2f}ms -> {plan_refac * 1e3:.2f}ms), "
          f"{e2e_speedup:.2f}x end-to-end warm requests "
          f"({des_warm:.3f}s -> {plan_warm:.3f}s, {N_REQUESTS - 1} "
          f"requests, compile {record['plan_compile_ms']:.1f} ms)")
    assert not divergent, f"plan solutions diverged from DES: {divergent}"
    assert refac_speedup >= MIN_REFACTOR_SPEEDUP, (
        f"warm plan refactorize {refac_speedup:.2f}x vs DES replay, "
        f"need >= {MIN_REFACTOR_SPEEDUP}x")
    assert e2e_speedup >= MIN_E2E_SPEEDUP, (
        f"warm plan requests {e2e_speedup:.2f}x vs DES end-to-end, "
        f"need >= {MIN_E2E_SPEEDUP}x")
