"""Numeric plans: a task graph's kernel stream plus its simulated results.

A :class:`NumericPlan` holds a graph's canonical ``(KernelCall, wave)``
stream (:attr:`~repro.core.tasks.TaskGraph.stream`, the ``(level, tid)``
order every run of the graph executes) together with the simulated-time
results of the graph's single DES run.  Executing the stream through an
identically-configured executor therefore produces **bit-identical**
factors while skipping the event queue, rank clocks and simulated RPC
entirely.  Every run of a solver after a graph's first replays a plan
(:meth:`~repro.core.base.SolverBase._replay`), in both plan modes:
under ``plan_mode="off"`` the plan holds the graph's own stream,
under ``"on"`` the stream :func:`compile_plan` produced.  The solve
streams do not depend on the rhs width, so every width's solve plans
share one stream and differ only in their simulated results.

:func:`compile_plan` optimises the stream without changing its numerics:

* **fusion** — maximal runs of consecutive same-wave, same-target
  ``syrk_sub``/``gemm_sub`` scatter calls collapse into one
  ``multi_update`` group.  The group executes its actions in the
  source stream order, and fused members were *consecutive*, so
  no other entry for the same buffer can fall between them;
* **interning** — operand reference tuples and flat scatter-index
  arrays repeated across the stream are deduplicated by value, shrinking
  the plan's resident footprint and improving cache locality of the
  replay loop.

Both transformations preserve the per-buffer apply order the executor's
bit-identity argument rests on; the property suite in ``tests/plans/``
pins plan-replay == DES-replay bytes for all five solver families.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..kernels.dispatch import KernelCall
from ..pgas.runtime import CommStats

__all__ = ["NumericPlan", "PlanStats", "compile_plan"]

# Ops the compile pass may fuse into multi_update groups.  Their scatter
# semantics (deferred flat-indexed add) are exactly what a multi_update
# action encodes; everything else keeps its own call.
_FUSABLE = ("syrk_sub", "gemm_sub")
_FUSE_MIN = 2  # smallest run worth collapsing into a group


@dataclass
class PlanStats:
    """Per-solver plan telemetry (compiles, replays, fusion counters)."""

    compiles: int = 0            # plans compiled by this solver
    hits: int = 0                # warm runs executed through a plan
    compile_seconds: float = 0.0  # wall-clock spent in compile_plan
    recorded_calls: int = 0      # source stream calls across all plans
    fused_groups: int = 0        # multi_update groups the compiler emitted
    fused_calls: int = 0         # source calls absorbed into those groups
    interned_arrays: int = 0     # repeated index arrays deduplicated
    interned_refs: int = 0       # repeated ref tuples deduplicated


@dataclass(frozen=True)
class NumericPlan:
    """Immutable compiled replay stream of one task graph.

    Attributes
    ----------
    kind:
        ``"factor"`` / ``"solve_fwd"`` / ``"solve_bwd"`` — what the
        graph computes.
    stream:
        The executable ``(KernelCall, wave)`` stream: post fusion and
        interning when compiled, the graph's own stream otherwise.  Waves are the graph's DAG depths (levels), kept so
        the wave conflict verifier covers plan streams too.
    calls:
        Calls in the *source* stream (pre-fusion).
    makespan / tasks / rank_busy / comm:
        The DES run's simulated-time results (for a solve plan, at its
        rhs width).  The DES is deterministic, so a replay through the
        simulator would reproduce these numbers exactly — the plan
        reports them instead of re-deriving them.
    fused_groups / fused_calls / interned_arrays / interned_refs:
        What the compile pass did (also accumulated on the solver's
        :class:`PlanStats`).
    compile_seconds:
        Wall-clock cost of compiling this plan.
    """

    kind: str
    stream: tuple[tuple[KernelCall, int | None], ...]
    calls: int
    makespan: float = 0.0
    tasks: int = 0
    rank_busy: tuple[float, ...] = ()
    comm: CommStats = field(default_factory=CommStats)
    fused_groups: int = 0
    fused_calls: int = 0
    interned_arrays: int = 0
    interned_refs: int = 0
    compile_seconds: float = 0.0


def _as_action(call: KernelCall) -> tuple:
    """A fusable call as a multi_update action tuple.

    Matches the action format the fan-in and PaStiX-like builders emit:
    ``(kind, tgt_ref, a_ref, b_ref_or_None, flat, sign)``.
    """
    if call.op == "syrk_sub":
        tgt_ref, a_ref, flat, sign = call.args
        return ("syrk", tgt_ref, a_ref, None, flat, sign)
    tgt_ref, a_ref, b_ref, flat, sign = call.args
    return ("gemm", tgt_ref, a_ref, b_ref, flat, sign)


class _Interner:
    """Value-dedup of ref tuples and index arrays across a plan."""

    def __init__(self) -> None:
        self._tuples: dict[tuple, tuple] = {}
        self._arrays: dict[tuple, np.ndarray] = {}
        self.tuples_hit = 0
        self.arrays_hit = 0

    def intern(self, obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            key = (obj.shape, obj.dtype.str, obj.tobytes())
            hit = self._arrays.get(key)
            if hit is not None:
                self.arrays_hit += 1
                return hit
            self._arrays[key] = obj
            return obj
        if isinstance(obj, tuple):
            items = tuple(self.intern(x) for x in obj)
            if all(isinstance(x, (str, int, float, bool, type(None)))
                   for x in items):
                hit = self._tuples.get(items)
                if hit is not None:
                    self.tuples_hit += 1
                    return hit
                self._tuples[items] = items
                return items
            return items
        return obj


def _fuse(raw: list[tuple[KernelCall, int | None]]
          ) -> tuple[list[tuple[KernelCall, int | None]], int, int]:
    """Collapse consecutive same-wave same-target scatter runs.

    Only *adjacent* stream entries fuse, and only within one wave, so
    the per-buffer apply order and the wave drain schedule are exactly
    those of the unfused stream.
    """
    out: list[tuple[KernelCall, int | None]] = []
    groups = 0
    absorbed = 0
    n = len(raw)
    i = 0
    while i < n:
        call, wave = raw[i]
        if call.op in _FUSABLE:
            tgt = call.args[0]
            j = i + 1
            while (j < n and raw[j][1] == wave
                   and raw[j][0].op in _FUSABLE
                   and raw[j][0].args[0] == tgt):
                j += 1
            if j - i >= _FUSE_MIN:
                actions = tuple(_as_action(raw[k][0]) for k in range(i, j))
                out.append((KernelCall("multi_update", (actions,)), wave))
                groups += 1
                absorbed += j - i
                i = j
                continue
        out.append((call, wave))
        i += 1
    return out, groups, absorbed


def compile_plan(raw: list[tuple[KernelCall, int | None]], *,
                 kind: str = "factor",
                 makespan: float = 0.0,
                 tasks: int = 0,
                 rank_busy: tuple[float, ...] = (),
                 comm: CommStats | None = None,
                 stats: PlanStats | None = None) -> NumericPlan:
    """Compile a ``(call, wave)`` stream into an immutable replay plan.

    ``raw`` is a task graph's canonical stream (or any stream in the
    order it must execute).  ``stats`` (a solver's :class:`PlanStats`)
    accumulates compile telemetry when given.
    """
    t0 = time.perf_counter()
    fused, groups, absorbed = _fuse(list(raw))
    interner = _Interner()
    stream = tuple(
        (KernelCall(call.op, interner.intern(call.args)), wave)
        for call, wave in fused)
    elapsed = time.perf_counter() - t0
    plan = NumericPlan(
        kind=kind,
        stream=stream,
        calls=len(raw),
        makespan=makespan,
        tasks=tasks,
        rank_busy=tuple(rank_busy),
        comm=comm if comm is not None else CommStats(),
        fused_groups=groups,
        fused_calls=absorbed,
        interned_arrays=interner.arrays_hit,
        interned_refs=interner.tuples_hit,
        compile_seconds=elapsed,
    )
    if stats is not None:
        stats.compiles += 1
        stats.compile_seconds += elapsed
        stats.recorded_calls += plan.calls
        stats.fused_groups += groups
        stats.fused_calls += absorbed
        stats.interned_arrays += interner.arrays_hit
        stats.interned_refs += interner.tuples_hit
    return plan

