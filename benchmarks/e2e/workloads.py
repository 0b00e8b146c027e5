"""The four workloads: what they run, at what size, and their inputs.

Every workload plays the same lifecycle on its own matrices (see
``README.md``): analyze, cold start, restart from the on-disk analysis
cache, warm refactor+solve cycles, 8-wide solves, and a closed-loop
``SolveService`` phase.  Sizes are fixed because they set each layer's
share of the time; ``--seconds`` is the time a run may spend playing rounds.
Inputs depend on the seed only.

Imported by the worker after the BLAS thread pins are in the
environment; the runner itself never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import SymmetricCSC
from repro.sparse import flan_like, grid_laplacian_2d, thermal_like

# Rounds a run has inputs for; it plays as many as fit into ``--seconds``.
MAX_ROUNDS = 48

WIDE_COLUMNS = 8
N_RHS = 8
BURST = 4

# Solver options wanted per workload.  The driver drops any key the
# dataclass no longer has, so a later PR that retires a knob still runs.
FANOUT = {"nranks": 4, "ranks_per_node": 4, "plan_mode": "on"}
SERVICE_SOLVER = {"nranks": 1, "ordering": "natural", "plan_mode": "on"}
SERVICE_CONFIG = {"workers": 2}


@dataclass(frozen=True)
class Counts:
    """Rounds a run plays at least, and how often things repeat in one.

    A round plays the solver lifecycle (``cold`` cold starts, each
    followed by a restart, then warm cycles and wide solves on the last
    restarted solver) and one segment of the service loop.  Rounds are
    kept short, so that a run has many and a disturbed stretch of the
    host spoils only some of them.
    """

    rounds: int                  # played whatever ``--seconds``; more if they fit
    analyze: int
    cold: int
    warm: int
    wide: int                    # after the plan-recording call
    svc_steps: int               # per client; a multiple of 4


@dataclass(frozen=True)
class Spec:
    solver: dict
    versions: int                # same-pattern value variants per pattern
    clients: int                 # closed-loop client threads in the service
    counts: Counts


SPECS = {
    "flan_refactor": Spec(FANOUT, 8, 1, Counts(
        rounds=3, analyze=1, cold=1, warm=5, wide=2, svc_steps=4)),
    "thermal_refactor": Spec(FANOUT, 8, 1, Counts(
        rounds=4, analyze=2, cold=1, warm=8, wide=2, svc_steps=8)),
    "grid_cold": Spec(FANOUT, 8, 1, Counts(
        rounds=2, analyze=1, cold=1, warm=3, wide=1, svc_steps=4)),
    "tenants_service": Spec(SERVICE_SOLVER, 6, 2, Counts(
        rounds=8, analyze=5, cold=3, warm=15, wide=5, svc_steps=48)),
}


@dataclass
class Pattern:
    """One sparsity pattern with its value variants and right-hand sides."""

    versions: list[SymmetricCSC]
    full: list[sp.csr_matrix]    # full symmetric matrices, for the gate
    rhs: list[np.ndarray]
    wide: np.ndarray


@dataclass
class Inputs:
    patterns: list[Pattern]      # lifecycle phases run on patterns[0]
    analyze_matrix: SymmetricCSC
    scripts: list[list[list[tuple[int, int, tuple[int, ...]]]]]  # [round][client]


def _full(a: SymmetricCSC) -> sp.csr_matrix:
    low = a.lower
    return (low + low.T - sp.diags(low.diagonal())).tocsr()


def _scaled(a: SymmetricCSC, d: np.ndarray) -> SymmetricCSC:
    """``D A D`` for a positive diagonal ``D``: same pattern, new values."""
    low = a.lower
    cols = np.repeat(np.arange(a.n), np.diff(low.indptr))
    data = low.data * d[low.indices] * d[cols]
    return SymmetricCSC(
        sp.csc_matrix((data, low.indices.copy(), low.indptr.copy()),
                      shape=low.shape), name=a.name)


def _pattern(base: SymmetricCSC, versions: int,
             rng: np.random.Generator) -> Pattern:
    mats = [_scaled(base, rng.uniform(0.9, 1.1, base.n))
            for _ in range(versions)]
    return Pattern(
        versions=mats, full=[_full(m) for m in mats],
        rhs=[rng.standard_normal(base.n) for _ in range(N_RHS)],
        wide=rng.standard_normal((base.n, WIDE_COLUMNS)))


def _tenant_union(per_width: int, rng: np.random.Generator) -> SymmetricCSC:
    """Block-diagonal union of 8-, 12- and 16-wide dense SPD tenants."""
    blocks = []
    for width in (8, 12, 16):
        for _ in range(per_width):
            m = rng.standard_normal((width, width)) * 0.1
            blocks.append(m @ m.T + width * np.eye(width))
    return SymmetricCSC.from_any(sp.block_diag(blocks, format="csc"),
                                 name=f"tenants_{per_width}")


def _bases(workload: str, seed: int, rng: np.random.Generator
           ) -> tuple[list[SymmetricCSC], SymmetricCSC | None]:
    """Base matrices (one per pattern) and the analyze-only matrix."""
    if workload == "flan_refactor":
        # flan_like ignores its seed (fixed stencil): the seed enters
        # through the value variants and right-hand sides only.
        return [flan_like(scale=16, seed=seed)], None
    if workload == "thermal_refactor":
        return [thermal_like(n=6000, seed=seed)], None
    if workload == "grid_cold":
        return [grid_laplacian_2d(64, 64)], grid_laplacian_2d(128, 128)
    if workload == "tenants_service":
        return [_tenant_union(c, rng) for c in (32, 40, 48, 56)], None
    raise ValueError(f"unknown workload {workload!r}")


def _script(owned: list[int], current: dict[int, int], versions: int,
            steps: int, rng: np.random.Generator
            ) -> list[tuple[int, int, tuple[int, ...]]]:
    """One client's closed-loop script for one round:
    ``(pattern, version, rhs ids)`` per step.

    Stratified so every seed and round has the same mix: of 8 steps, 3
    solo and 1 burst advance the pattern's value version (first request
    lands on the ``refactor`` tier), 3 solo and 1 burst keep it
    (``factor`` tier); a 4-step script has the solo half only.  The
    client's patterns take turns, one block of 8 steps each, so every
    round also asks the same of each pattern (they differ in size); the
    seed decides the order of the steps and the right-hand sides.
    ``current`` carries each pattern's version from round to round; every
    pattern starts at version 0, the one the pre-touch installed.
    """
    solo = [(True, False), (False, False)]
    cycle = solo * 2 + [(True, True), (False, True)] + solo
    kinds = (cycle * (steps // 8 + 1))[:steps]
    script = []
    for k in rng.permutation(len(kinds)):
        advance, burst = kinds[k]
        p = owned[k // 8 % len(owned)]
        if advance:
            current[p] = (current[p] + 1) % versions
        ids = rng.integers(N_RHS, size=BURST if burst else 1)
        script.append((p, current[p], tuple(int(i) for i in ids)))
    return script


def build_inputs(workload: str, seed: int) -> Inputs:
    spec = SPECS[workload]
    rng = np.random.default_rng([seed, list(SPECS).index(workload)])
    bases, analyze_matrix = _bases(workload, seed, rng)
    patterns = [_pattern(b, spec.versions, rng) for b in bases]
    per_client = len(patterns) // spec.clients
    owners = [list(range(c * per_client, (c + 1) * per_client))
              for c in range(spec.clients)]
    current = {p: 0 for p in range(len(patterns))}
    scripts = [[_script(owned, current, spec.versions,
                        spec.counts.svc_steps, rng) for owned in owners]
               for _ in range(MAX_ROUNDS)]
    return Inputs(patterns=patterns,
                  analyze_matrix=(analyze_matrix if analyze_matrix is not None
                                  else patterns[0].versions[0]),
                  scripts=scripts)
