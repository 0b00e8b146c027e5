"""Supernode-granular checkpoint/restart for factorization runs.

A checkpoint is cut at a **level frontier**: after any task completion,
``frontier = min(level of unexecuted tasks) - 1``, read off the graph's
static levelization (:meth:`~repro.core.tasks.TaskGraph.levelize`).
Every task at or below the frontier has executed, and those tasks are
exactly a prefix of the graph's canonical ``(level, tid)`` stream.  The
manager then

1. has the engine execute the stream **through** the frontier
   (``FanOutEngine.execute_through``) — a prefix of the one stream every
   run executes, so partial execution cannot perturb bytes;
2. snapshots the numeric state: every supernode's diagonal block and
   panel (supernode-granular, per ``FactorStorage``) and one copy of the
   graph context's workspace (aggregates, in-flight update matrices);
3. records the executed set (that prefix) and the frontier, from which
   dependency counters and the stream cursor are rederivable on
   restart.

Because the cut is a prefix of the same canonical kernel stream every
run executes, a restart completes with a factor bit-identical to the
fault-free run — regardless of when the crash or the checkpoints
landed.  An initial frontier ``-1`` checkpoint (taken at engine start)
makes "restart from before any task" well-defined without re-running
the solver's storage preparation hooks.

Checkpoints live in memory by default; ``checkpoint_dir`` additionally
persists them via ``core/serialization.py`` (``CheckpointIOError`` on
I/O failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .options import ResilienceOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.engine import FanOutEngine
    from ..core.tasks import TaskGraph

__all__ = ["CheckpointState", "CheckpointManager"]


@dataclass
class CheckpointState:
    """One checkpoint: numeric snapshot + task-graph progress."""

    frontier: int
    executed: tuple[int, ...]
    diag: list[np.ndarray] = field(default_factory=list)
    panels: list[np.ndarray] = field(default_factory=list)
    workspace: np.ndarray | None = None  # None: the context has none


class CheckpointManager:
    """Cuts, stores and restores checkpoints for one resilient run."""

    def __init__(self, options: ResilienceOptions,
                 label: str = "factor") -> None:
        self.options = options
        self.label = label
        self.state: CheckpointState | None = None
        self.taken = 0
        self._frontier = -1
        # Position in the graph's (level, tid) order before which every
        # task has executed; rescanned forward on each completion.
        self._scan = 0

    # ----------------------------------------------------------- engine API

    def begin_run(self, engine: FanOutEngine) -> None:
        """Initial frontier ``-1`` checkpoint, first attempt only."""
        self._scan = engine.cursor
        if self.state is None:
            self.state = self._capture(engine, frontier=-1)
            self.taken += 1
            self._persist()

    def on_task_done(self, engine: FanOutEngine, now: float) -> None:
        """Advance the level frontier; cut when it moved far enough."""
        every = self.options.checkpoint_every
        if every <= 0:
            return
        lev = engine.levelization
        order, executed = lev.order, engine._executed
        scan = self._scan
        while scan < len(order) and executed[order[scan]]:
            scan += 1
        self._scan = scan
        if scan == len(order):
            return  # final completion; the run's own flush finishes it
        frontier = int(lev.levels[order[scan]]) - 1
        if frontier - self._frontier < every:
            return
        engine.execute_through(frontier)
        self.state = self._capture(engine, frontier)
        self._frontier = frontier
        self.taken += 1
        self._persist()

    # ------------------------------------------------------------- snapshot

    def _capture(self, engine: FanOutEngine,
                 frontier: int) -> CheckpointState:
        ctx = engine.graph.context
        storage = ctx.storage
        lev = engine.levelization
        executed = tuple(np.sort(lev.order[:lev.prefix(frontier)]).tolist())
        return CheckpointState(
            frontier=frontier,
            executed=executed,
            diag=[d.copy() for d in storage.diag],
            panels=[p.copy() for p in storage.panels],
            workspace=None if ctx.workspace is None else ctx.workspace.copy(),
        )

    def _persist(self) -> None:
        if self.options.checkpoint_dir is None or self.state is None:
            return
        from ..core.serialization import save_checkpoint
        save_checkpoint(self.state, self.options.checkpoint_dir, self.label)

    # -------------------------------------------------------------- restore

    def restore(self, graph: TaskGraph) -> CheckpointState:
        """Write the last checkpoint back into the graph's run state.

        Returns the checkpoint, whose ``executed`` set and ``frontier``
        a restarted engine resumes from.
        """
        state = self.state
        if state is None:
            raise ValueError("no checkpoint to restore")
        ctx = graph.context
        storage = ctx.storage
        for s, d in enumerate(state.diag):
            storage.diag[s][...] = d
        for s, p in enumerate(state.panels):
            storage.panels[s][...] = p
        if state.workspace is not None:  # resident since the run began
            ctx.workspace[...] = state.workspace
        return state
