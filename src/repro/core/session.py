"""The execution-session layer: one place that owns world construction,
engine invocation, trace plumbing and communication-statistics
accumulation for **every** solver family.

Historically each solver (fan-out, fan-in, fan-both, multifrontal,
PaStiX-like) hand-copied its own ``_new_world()`` and engine-run block;
:class:`ExecutionSession` replaces all five.  A session is created once
per solver from its options and then :meth:`run` is called once per graph
execution (factorization, forward solve, backward solve, ...): each run
gets a fresh simulated :class:`~repro.pgas.runtime.World` (stateless
hardware), while the :class:`~repro.core.tracing.ExecutionTrace` and the
session-level :class:`~repro.pgas.runtime.CommStats` accumulate across
runs — matching the paper's Figure 6 reporting, where factorization and
solve share one counter set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernels.dispatch import ExecutorStats
from ..machine.model import MachineModel
from ..memory import BufferPool, MemoryLedger, MemorySnapshot
from ..pgas.device_kinds import DeviceKind
from ..pgas.network import MemoryKindsMode
from ..pgas.runtime import CommStats, World
from .engine import FanOutEngine, Scheduling
from .offload import OffloadPolicy
from .tasks import TaskGraph
from .tracing import ExecutionTrace, mutex

__all__ = ["RunResult", "ExecutionSession"]


@dataclass
class RunResult:
    """Outcome of one graph execution through a session."""

    makespan: float
    tasks_total: int
    rank_busy: list[float]
    comm: CommStats          # this run's communication counters
    trace: ExecutionTrace    # the session-accumulated trace
    exec_stats: ExecutorStats | None = None  # this run's flush counters
    # Ledger snapshot at the end of the run (a simulated run's is taken
    # before its device segments are freed): live bytes include the
    # resident factor storage and workspaces, peaks are the high-water
    # marks so far.
    mem: MemorySnapshot = field(default_factory=MemorySnapshot)

    @property
    def load_imbalance(self) -> float:
        """max/mean busy-time ratio (1.0 = perfect balance)."""
        if not self.rank_busy or max(self.rank_busy) == 0:
            return 1.0
        mean = sum(self.rank_busy) / len(self.rank_busy)
        return max(self.rank_busy) / mean if mean > 0 else 1.0


class ExecutionSession:
    """Owns the simulated-execution plumbing shared by all solver families.

    Parameters mirror the distributed-run subset of
    :class:`~repro.core.base.CommonOptions`; use :meth:`from_options` to
    derive a session from any options object.
    """

    def __init__(
        self,
        nranks: int,
        machine: MachineModel,
        ranks_per_node: int = 1,
        memory_kinds: MemoryKindsMode = MemoryKindsMode.NATIVE,
        offload: OffloadPolicy | None = None,
        scheduling: str | Scheduling = Scheduling.FIFO,
        device_capacity: int | None = None,
        device_kind: DeviceKind = DeviceKind.CUDA,
        keep_timeline: bool = False,
        trace: ExecutionTrace | None = None,
        check_waves: bool = False,
        check_races: bool = False,
        ledger: MemoryLedger | None = None,
        pool: BufferPool | None = None,
        resilience=None,
    ) -> None:
        self.nranks = nranks
        self.machine = machine
        self.ranks_per_node = ranks_per_node
        self.memory_kinds = memory_kinds
        self.offload = offload if offload is not None else OffloadPolicy()
        self.scheduling = Scheduling(scheduling)
        self.device_capacity = device_capacity
        self.device_kind = device_kind
        # ``trace`` may be shared across sessions (the solve service hands
        # every cached solver one service-wide trace); the trace itself is
        # thread-safe, and the session guards its own accumulators below.
        self.trace = (trace if trace is not None
                      else ExecutionTrace(keep_timeline=keep_timeline))
        # One ledger is the session's single source of byte truth: factor
        # storage, context workspaces, rhs buffers and device segments all
        # charge it.  A shared pool/ledger (the solve service) makes every
        # tenant's sessions report into one account set.
        if ledger is None:
            ledger = pool.ledger if pool is not None else MemoryLedger()
        self.ledger = ledger
        self.pool = pool if pool is not None else BufferPool(ledger=ledger)
        self.comm = CommStats()  # accumulated across all runs
        self.runs = 0
        self._stats_lock = mutex()
        # Concurrency-correctness checking (repro.analysis).  Findings
        # accumulate across runs; an empty list after a checked run is a
        # machine-verified pass.  ``_flush_hook`` is overridable (the
        # mutation self-tests install their own observers).
        self.check_waves = check_waves
        self.check_races = check_races
        self.wave_findings: list = []
        self.race_findings: list = []
        self._flush_hook = self._verify_flush if check_waves else None
        # Resilience policy (repro.resilience): when set, runs route
        # through the resilient runner — hardened delivery, optional
        # fault injection, checkpoint/restart.  The runner records the
        # deterministic fault schedule and recovery count here.
        self.resilience = resilience
        self.resilient_runs = 0
        self.fault_schedule: list = []
        self.recoveries = 0
        # Plan replays accounted through record_replay(): runs that
        # executed a graph's kernel stream instead of the DES.
        self.plan_runs = 0

    def _verify_flush(self, executor, submitted, executed) -> None:
        """Default ``check_waves`` observer: verify each submitted stream."""
        from ..analysis.waves import verify_flush

        self.wave_findings.extend(verify_flush(submitted, executor.context))

    @classmethod
    def from_options(cls, options, machine: MachineModel | None = None,
                     trace: ExecutionTrace | None = None,
                     ledger: MemoryLedger | None = None,
                     pool: BufferPool | None = None,
                     ) -> "ExecutionSession":
        """Build a session from a :class:`~repro.core.base.CommonOptions`.

        ``machine`` overrides the options' machine model (used by the
        PaStiX-like baseline to apply StarPU/MPI-style overheads);
        ``trace`` substitutes a shared (possibly service-wide) trace for
        the session-private one; ``ledger``/``pool`` substitute shared
        memory accounting (the solve service gives all tenants one).
        """
        return cls(
            nranks=options.nranks,
            machine=machine if machine is not None else options.machine,
            ranks_per_node=options.ranks_per_node,
            memory_kinds=options.memory_kinds,
            offload=options.offload,
            scheduling=options.scheduling,
            device_capacity=options.resolved_device_capacity(),
            device_kind=options.device_kind,
            keep_timeline=options.keep_timeline,
            trace=trace,
            check_waves=getattr(options, "check_waves", False),
            check_races=getattr(options, "check_races", False),
            ledger=ledger,
            pool=pool,
            resilience=getattr(options, "resilience", None),
        )

    # ----------------------------------------------------------- execution

    def record_replay(self, comm: CommStats) -> None:
        """Account one plan replay (no world was built).

        Plan execution (:mod:`repro.plans`) bypasses :meth:`run`
        entirely; this keeps the session's cross-run accumulators —
        comm counters, run count, trace memory watermarks — coherent
        with DES-driven runs.  ``comm`` is the recording run's counter
        set, which a deterministic DES replay would reproduce exactly.
        """
        self.trace.update_memory(self.ledger.snapshot())
        with self._stats_lock:
            self.comm += comm
            self.runs += 1
            self.plan_runs += 1

    def _new_world(self, tracer=None) -> World:
        """Fresh simulated PGAS job for one graph execution.

        This is the single world-construction point of the code base; the
        solver families never build worlds themselves.
        """
        return World(
            nranks=self.nranks,
            machine=self.machine,
            ranks_per_node=self.ranks_per_node,
            mode=self.memory_kinds,
            device_capacity=self.device_capacity,
            device_kind=self.device_kind,
            tracer=tracer,
            ledger=self.ledger,
        )

    def run(self, graph: TaskGraph) -> RunResult:
        """Execute one task graph on a fresh world; accumulate stats."""
        if self.resilience is not None:
            from ..resilience.runner import run_resilient

            world, result = run_resilient(self, graph)
            return self._finish_run(graph, world, result)
        tracer = None
        if self.check_races:
            from ..analysis.hb import PgasTracer

            tracer = PgasTracer(self.nranks)
        world = self._new_world(tracer=tracer)
        engine = FanOutEngine(world, graph, self.offload,
                              scheduling=self.scheduling, trace=self.trace,
                              flush_hook=self._flush_hook)
        result = engine.run()
        if tracer is not None:
            self.race_findings.extend(tracer.finalize(world))
        return self._finish_run(graph, world, result)

    def _finish_run(self, graph: TaskGraph, world: World,
                    result) -> RunResult:
        # End-of-run reclamation: the world is discarded here, so free its
        # device segments (per-task staging buffers).  The graph context's
        # workspace stays resident until its owner closes it.
        # ``result.mem`` already captured the in-run peaks; the
        # post-reclamation snapshot goes on the trace so every layer
        # reports from the same watermark history.  Dropping the engine's
        # wake hook breaks the engine <-> world cycle, so the engine and
        # the graph it holds are freed by reference counting when the
        # caller lets go of the graph, not at the next full GC.
        world.wake_hooks.clear()
        for state in world.ranks:
            if state.device is not None:
                state.device.release_all()
        self.trace.update_memory(self.ledger.snapshot())
        with self._stats_lock:
            self.comm += world.stats
            self.runs += 1
        return RunResult(
            makespan=result.makespan,
            tasks_total=result.tasks_total,
            rank_busy=result.rank_busy,
            comm=world.stats,
            trace=self.trace,
            exec_stats=result.exec_stats,
            mem=result.mem,
        )
