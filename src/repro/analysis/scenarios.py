"""Checked execution scenarios: the determinism property-suite matrix.

The determinism property tests (``tests/property/``) pin *bit-identity*
of the batched flush against one-at-a-time execution across all five
solver families; this module
runs the same family × matrix grid with the wave conflict verifier and
the happens-before checker attached, turning the empirical bit-identity
evidence into per-run mechanical proofs.  The CI ``static-analysis`` job
runs :func:`run_scenarios` (via ``python -m repro.analysis waves``) and
fails on any finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

from ..sparse import SymmetricCSC, grid_laplacian_2d, random_spd
from .report import Finding
from .waves import verify_flush

__all__ = ["ScenarioResult", "scenario_grid", "run_scenarios"]


@dataclass
class ScenarioResult:
    """One checked family × matrix execution.

    ``plan_stream_calls`` counts the kernel calls of the compiled-plan
    stream derived from the factorization graph's canonical stream
    (fusion applied) that was re-verified through
    :func:`~repro.analysis.waves.verify_flush`; its findings land in
    ``findings`` alongside the live ones.
    """

    family: str
    matrix: str
    flushes_checked: int
    plan_stream_calls: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def _coalesced_batch(sizes: list[int], seed: int = 0) -> SymmetricCSC:
    """Block-diagonal union of small dense SPD tenants (service pattern)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sizes:
        m = rng.standard_normal((n, n)) * 0.1
        blocks.append(m @ m.T + n * np.eye(n))
    return SymmetricCSC.from_any(sp.block_diag(blocks, format="csc"))


def _families() -> list[tuple[type, type]]:
    # Local import: the solver families import the core stack, which this
    # analysis package must stay importable without.
    from ..baselines.pastix_like import PastixLikeSolver, PastixOptions
    from ..core.solver import SolverOptions, SymPackSolver
    from ..variants import (
        FanBothOptions,
        FanBothSolver,
        FanInOptions,
        FanInSolver,
        MultifrontalOptions,
        MultifrontalSolver,
    )

    return [
        (SymPackSolver, SolverOptions),
        (FanInSolver, FanInOptions),
        (FanBothSolver, FanBothOptions),
        (MultifrontalSolver, MultifrontalOptions),
        (PastixLikeSolver, PastixOptions),
    ]


_MATRICES = {
    "sparse": lambda: random_spd(60, density=0.15, seed=3),
    "grid": lambda: grid_laplacian_2d(9, 9),
    "coalesced": lambda: _coalesced_batch([6, 8, 8, 10, 12]),
}


def scenario_grid() -> list[tuple[str, str]]:
    """``(family, matrix)`` names of the full scenario grid."""
    return [(cls.__name__, key)
            for cls, _opts in _families() for key in sorted(_MATRICES)]


def run_scenarios(check_races: bool = True) -> list[ScenarioResult]:
    """Run every family × matrix scenario with checking enabled.

    Each scenario factorizes and solves under ``check_waves`` (every
    flush's submitted stream verified) and, by default, ``check_races``
    (vector-clock tracer attached to every world).  Returns per-scenario
    results; a scenario with findings is a correctness bug in the
    executor or engine, not in the workload.
    """
    from ..plans import compile_plan

    results: list[ScenarioResult] = []
    for solver_cls, options_cls in _families():
        for key in sorted(_MATRICES):
            a = _MATRICES[key]()
            nranks = 2 if key == "sparse" else 1
            options = options_cls(nranks=nranks, check_waves=True,
                                  check_races=check_races)
            solver = solver_cls(a, options)
            session = solver.session
            flushes = 0

            def counting_hook(executor: Any, submitted: list,
                              executed: list) -> None:
                nonlocal flushes
                flushes += 1
                session._verify_flush(executor, submitted, executed)

            session._flush_hook = counting_hook
            solver.factorize()
            rhs = np.linspace(-1.0, 1.0, a.n * 2).reshape(a.n, 2)
            solver.solve(rhs)
            # Re-verify the stream the warm path would replay: the factor
            # graph's stream after the compile pass (fusion + interning).
            graph = solver._factor_graph
            plan = compile_plan(graph.stream)
            findings = (list(session.wave_findings)
                        + list(session.race_findings)
                        + verify_flush(list(plan.stream), graph.context))
            results.append(ScenarioResult(
                family=solver_cls.__name__,
                matrix=key,
                flushes_checked=flushes,
                plan_stream_calls=plan.calls,
                findings=findings,
            ))
    return results
