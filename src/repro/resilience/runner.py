"""The resilient run loop: inject, harden, checkpoint, restart.

``ExecutionSession.run`` delegates here whenever the session carries a
:class:`~repro.resilience.options.ResilienceOptions`.  One resilient run
is an **attempt loop**:

* attempt 0 builds a world with the fault injector (rank-level events
  included) and — when ``hardened`` — a :class:`ReliableTransport`;
* a ``RankUnresponsive`` escape (watchdog retry exhaustion, or a crash
  stranding tasks) restores the last checkpoint into the graph's run
  state and starts a fresh world/engine with the checkpoint's resume
  state — modelling a process respawn, so rank-level fault events do
  not recur while message-level faults stay live;
* up to ``max_restarts`` restarts are consumed before the exception
  propagates to the caller (distinct CLI exit code / service event).

Fault injection is scoped to the first ``fault_runs`` session runs (the
factorization); later runs (triangular solves) execute fault-free.
Every run, resilient or not, executes its graph's canonical
``(level, tid)`` kernel stream, levelized once per graph
(:meth:`~repro.core.tasks.TaskGraph.levelize`); checkpoint cuts execute
prefixes of it and a restart resumes at the cut.  So message timing,
retries and restarts cannot perturb scatter-add order, and the whole
pipeline stays bit-identical to the fault-free baseline.

The happens-before tracer is finalized only for the *successful*
attempt: an aborted world's undrained inboxes are a consequence of the
injected crash, not a protocol race.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..pgas.runtime import CommStats, World
from .checkpoint import CheckpointManager
from .delivery import ReliableTransport
from .errors import RankUnresponsive
from .faults import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.engine import EngineResult
    from ..core.session import ExecutionSession
    from ..core.tasks import TaskGraph

__all__ = ["run_resilient"]


def run_resilient(session: ExecutionSession,
                  graph: TaskGraph) -> tuple[World, "EngineResult"]:
    """Execute ``graph`` under the session's resilience policy.

    Returns the (successful) world and engine result; the session's
    shared ``_finish_run`` tail handles reclamation and accounting.
    Communication counters from failed attempts are folded into the
    returned world's stats so nothing injected goes unreported, and
    their simulated time into the result's makespan: each restarted
    world's clocks start at 0, so without it a recovered run would
    report only its last attempt.
    """
    from ..core.engine import FanOutEngine

    res = session.resilience
    run_index = session.resilient_runs
    session.resilient_runs += 1
    faulted = res.faults is not None and run_index < res.fault_runs
    checkpointer = (CheckpointManager(res)
                    if res.checkpoint_every > 0 and run_index < res.fault_runs
                    else None)

    carry = CommStats()
    lost_seconds = 0.0  # makespans of the aborted attempts
    resume = None
    run_recoveries = 0
    run_faults = 0
    attempts = 1 + res.max_restarts
    for attempt in range(attempts):
        tracer = None
        if session.check_races:
            from ..analysis.hb import PgasTracer

            tracer = PgasTracer(session.nranks)
        world = session._new_world(tracer=tracer)
        injector = None
        if faulted:
            injector = FaultInjector(res.faults,
                                     include_rank_faults=(attempt == 0))
            injector.attach(world)
        if res.hardened:
            ReliableTransport(world, res)
        engine = FanOutEngine(
            world, graph, session.offload,
            scheduling=session.scheduling, trace=session.trace,
            flush_hook=session._flush_hook,
            checkpointer=checkpointer, resume=resume,
        )
        try:
            result = engine.run()
        except RankUnresponsive:
            if injector is not None:
                session.fault_schedule.extend(injector.records)
                run_faults += len(injector.records)
            carry += world.stats
            lost_seconds += world.makespan()
            for state in world.ranks:
                if state.device is not None:
                    state.device.release_all()
            if (checkpointer is None or checkpointer.state is None
                    or attempt + 1 >= attempts):
                session.trace.add_resilience(
                    retries=carry.retries, recoveries=run_recoveries,
                    checkpoints=checkpointer.taken if checkpointer else 0,
                    faults=run_faults)
                raise
            resume = checkpointer.restore(graph)
            run_recoveries += 1
            session.recoveries += 1
            continue
        if injector is not None:
            session.fault_schedule.extend(injector.records)
            run_faults += len(injector.records)
        if tracer is not None:
            session.race_findings.extend(tracer.finalize(world))
        world.stats.merge(carry)
        result.makespan += lost_seconds
        session.trace.add_resilience(
            retries=world.stats.retries, recoveries=run_recoveries,
            checkpoints=checkpointer.taken if checkpointer else 0,
            faults=run_faults)
        return world, result
    raise RankUnresponsive(rank=-1, detail="restart budget exhausted")
