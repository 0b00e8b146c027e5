"""Shared solver base: one options dataclass + one factorize/solve flow
for all five solver families.

:class:`CommonOptions` is the configuration surface every family shares
(the fan-out :class:`~repro.core.solver.SolverOptions`, the variant and
baseline options all subclass it, overriding only their own defaults).
:class:`SolverBase` implements the uniform API — ``factorize()``,
``solve()``, ``residual_norm()``, ``factor_sparse()`` — on top of the
:class:`~repro.core.session.ExecutionSession`; a family only provides its
factor-graph builder (and, optionally, its solve mapping or solve-graph
builder).  Benches and the paper's Section 2.3 taxonomy comparison can
therefore treat every family identically.

Task graphs are built once and cached: repeated ``factorize()`` calls
(the PEXSI pattern) reset the factor storage and the graph's execution
context, then replay the same graph — yielding bit-identical factors and
simulated timings each time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..kernels.dispatch import ExecContext, ExecutorStats, KernelExecutor
from ..machine.model import MachineModel
from ..memory import BufferPool, MemoryLedger, MemorySnapshot
from ..machine.perlmutter import perlmutter
from ..pgas.device_kinds import DeviceKind
from ..pgas.network import MemoryKindsMode
from ..pgas.runtime import CommStats
from ..plans import (NumericPlan, PlanArena, PlanStats, StreamRecorder,
                     compile_plan)
from ..resilience.options import ResilienceOptions
from ..sparse.csc import SymmetricCSC
from ..sparse.validate import check_finite, probable_spd
from ..symbolic.analysis import SymbolicAnalysis, analyze, rebind_analysis_values
from ..symbolic.cache import AnalysisCache
from ..symbolic.supernodes import AmalgamationOptions
from .engine import Scheduling
from .mapping import ProcessMap, column_cyclic_1d
from .offload import OffloadPolicy
from .session import ExecutionSession
from .storage import FactorStorage
from .tasks import TaskGraph
from .tracing import ExecutionTrace
from .triangular import build_backward_graph, build_forward_graph

__all__ = ["CommonOptions", "FactorizeInfo", "SolveInfo", "SolverBase"]


@dataclass(frozen=True)
class CommonOptions:
    """Options shared by every solver family.

    Attributes
    ----------
    nranks:
        Number of simulated UPC++ processes.
    ranks_per_node:
        Processes per node (the paper sweeps this and reports the best).
    ordering:
        Fill-reducing ordering name (default Scotch-like nested dissection).
    amalgamation:
        Supernode relaxation options.
    machine:
        Node performance model (default: Perlmutter GPU node).
    memory_kinds:
        Native (GPUDirect RDMA) or reference (staged) device transfers.
    offload:
        GPU offload policy (thresholds; ``OffloadPolicy(enabled=False)``
        for CPU-only runs).
    scheduling:
        RTQ policy: ``fifo`` (paper default) or ``priority``; validated
        through :class:`~repro.core.engine.Scheduling`.
    device_capacity:
        Device segment bytes per process; ``None`` derives an equal split
        of GPU memory among the processes sharing each device.
    device_kind:
        UPC++ memory-kinds device flavour (``cuda_device`` /
        ``hip_device`` / ``ze_device``); pair with the matching machine
        model (:func:`repro.machine.frontier` for HIP, etc.).
    keep_timeline:
        Record the full per-task timeline in the trace.
    check_waves:
        Run the wave conflict verifier (:mod:`repro.analysis.waves`) on
        every kernel flush; findings accumulate on the session's
        ``wave_findings`` (CLI ``--check-waves``).
    check_races:
        Attach the PGAS happens-before checker
        (:mod:`repro.analysis.hb`) to every simulated world; findings
        accumulate on the session's ``race_findings`` (CLI
        ``--check-races``).
    plan_mode:
        ``"on"`` records the first DES-driven factorization (and each
        first solve per rhs width) into a compiled
        :class:`~repro.plans.NumericPlan` and executes every warm
        repeat straight through the kernel executor's batched flush —
        no task-graph traversal, no event queue — with bit-identical
        results (CLI ``--plan``; see ``docs/performance.md``).
        ``"off"`` (default) keeps the classic DES replay path.
        Mutually exclusive with ``resilience`` (fault injection needs
        the simulator it would skip).
    """

    nranks: int = 1
    ranks_per_node: int = 1
    ordering: str = "scotch_like"
    amalgamation: AmalgamationOptions = field(default_factory=AmalgamationOptions)
    machine: MachineModel = field(default_factory=perlmutter)
    memory_kinds: MemoryKindsMode = MemoryKindsMode.NATIVE
    offload: OffloadPolicy = field(default_factory=OffloadPolicy)
    scheduling: str = "fifo"
    device_capacity: int | None = None
    device_kind: DeviceKind = DeviceKind.CUDA
    keep_timeline: bool = False
    check_waves: bool = False
    check_races: bool = False
    plan_mode: str = "off"
    # Persistent cold-path cache (repro.symbolic.cache.AnalysisCache):
    # when set, the solver looks up its full symbolic analysis by
    # sparsity-pattern hash before computing it, and publishes cold
    # builds back (memory LRU + optional on-disk npz tier).  A hit skips
    # ordering, column structures, supernode detection and block
    # partitioning entirely (CLI ``--analysis-cache DIR``).
    analysis_cache: AnalysisCache | None = None
    # Resilience policy (hardened delivery, fault injection,
    # checkpoint/restart); ``None`` keeps the classic lossless path.
    # See :class:`repro.resilience.ResilienceOptions` and
    # ``docs/resilience.md``.
    resilience: ResilienceOptions | None = None

    def __post_init__(self) -> None:
        Scheduling(self.scheduling)  # raises ValueError on unknown policy
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {self.ranks_per_node}")
        if self.plan_mode not in ("off", "on"):
            raise ValueError(
                f"plan_mode must be 'off' or 'on', got {self.plan_mode!r}")
        if self.plan_mode == "on" and self.resilience is not None:
            raise ValueError(
                "plan_mode='on' is incompatible with resilience: compiled "
                "replay skips the simulator that fault injection and "
                "checkpointing run inside")

    def resolved_device_capacity(self) -> int | None:
        """Per-process device segment size (the recommended equal split)."""
        if not self.offload.enabled:
            return None
        if self.device_capacity is not None:
            return self.device_capacity
        sharers = max(1, -(-self.ranks_per_node // self.machine.gpus_per_node))
        return self.machine.gpu_mem_bytes // sharers


@dataclass
class FactorizeInfo:
    """Result metadata of one numeric factorization."""

    simulated_seconds: float
    trace: ExecutionTrace
    comm: CommStats
    tasks: int
    rank_busy: list[float]
    exec_stats: "ExecutorStats | None" = None  # flush counters of this run
    # In-run memory-ledger snapshot (peak host/device bytes of this
    # factorization; see EngineResult.mem).
    mem: MemorySnapshot = field(default_factory=MemorySnapshot)
    # Cold-path wall-clock breakdown (milliseconds).  The analysis phases
    # are ~0 on an AnalysisCache hit; ``first_des_ms`` covers the solver's
    # first graph build + DES execution (0 until one has run, then
    # carried on warm refactorizations for reference).
    ordering_ms: float = 0.0
    symbolic_ms: float = 0.0
    blocks_ms: float = 0.0
    first_des_ms: float = 0.0


@dataclass
class SolveInfo:
    """Result metadata of one triangular solve (forward + backward)."""

    simulated_seconds: float
    trace: ExecutionTrace
    comm: CommStats
    tasks: int


class SolverBase:
    """Uniform factorize/solve plumbing over an :class:`ExecutionSession`.

    Subclasses set ``options_cls`` and implement ``_build_factor_graph``;
    everything else — input validation, symbolic analysis, session and
    trace wiring, graph caching, solve orchestration, residuals — is
    shared.

    Parameters
    ----------
    a:
        Symmetric positive definite matrix.
    options:
        Family options; defaults to ``options_cls()``.
    """

    options_cls: type[CommonOptions] = CommonOptions

    def __init__(self, a: SymmetricCSC, options: CommonOptions | None = None,
                 *, analysis: SymbolicAnalysis | None = None,
                 trace: ExecutionTrace | None = None,
                 ledger: MemoryLedger | None = None,
                 pool: BufferPool | None = None):
        self.options = options if options is not None else self.options_cls()
        check_finite(a)
        if not probable_spd(a):
            raise ValueError(
                "matrix has non-positive diagonal entries; not SPD"
            )
        self.a = a
        if analysis is not None:
            # Precomputed symbolic phase (the service's symbolic-cache hit
            # path): the caller guarantees ``analysis`` was computed on a
            # matrix with the exact sparsity structure of ``a``, so only
            # the permuted numeric values need recomputing.
            if analysis.n != a.n:
                raise ValueError(
                    f"analysis is for n={analysis.n}, matrix has n={a.n}")
            self.analysis = rebind_analysis_values(analysis, a)
        else:
            cache = self.options.analysis_cache
            cached = None
            if cache is not None:
                t_load = time.perf_counter()
                cached = cache.get(a)
                t_load = time.perf_counter() - t_load
            if cached is not None:
                # Hit: the whole cold path is skipped.  The copy's phase
                # dict is replaced (not mutated) so the cached entry keeps
                # its own record.
                cached.phase_seconds = {"ordering": 0.0, "symbolic": 0.0,
                                        "blocks": 0.0, "cache_load": t_load}
                self.analysis = cached
            else:
                self.analysis = analyze(
                    a, ordering=self.options.ordering,
                    amalgamation=self.options.amalgamation,
                )
                if cache is not None:
                    cache.put(a, self.analysis)
        self.session = ExecutionSession.from_options(
            self.options, machine=self._session_machine(), trace=trace,
            ledger=ledger, pool=pool)
        self._first_des_seconds = 0.0
        ph = self.analysis.phase_seconds
        if ph:
            self.session.trace.record_phases({
                "ordering_ms": ph.get("ordering", 0.0) * 1e3,
                "symbolic_ms": ph.get("symbolic", 0.0) * 1e3,
                "blocks_ms": ph.get("blocks", 0.0) * 1e3,
                "cache_load_ms": ph.get("cache_load", 0.0) * 1e3,
            })
        self.storage: FactorStorage | None = None
        self._closed = False
        self._factor_graph: TaskGraph | None = None
        # Solve graphs cached per right-hand-side count:
        # nrhs -> (forward graph, backward graph, (nrhs, n) rhs buffer).
        self._solve_graphs: dict[int, tuple[TaskGraph, TaskGraph, np.ndarray]] = {}
        self._factorized = False
        # Compiled-plan state (plan_mode="on"): the factor plan is
        # recorded on the first factorization, solve plans per rhs
        # width on the first solve of that width; the arena retains
        # kernel-held buffers between replays (see repro.plans).
        self.plan_stats = PlanStats()
        self._factor_plan: NumericPlan | None = None
        self._solve_plans: dict[int, tuple[NumericPlan, NumericPlan]] = {}
        self._plan_arena: PlanArena | None = None

    # ------------------------------------------------------- family hooks

    def _session_machine(self) -> MachineModel:
        """Machine model the session runs on (baselines may tune it)."""
        return self.options.machine

    def _exec_context(self, rhs: np.ndarray | None = None) -> ExecContext:
        """Execution context wired to the session's ledgered buffer pool.

        Graph builders that register scratch at build time (fan-in /
        fan-both aggregates, multifrontal transients) must create their
        context through this helper so that scratch charges the session
        ledger instead of a private pool.
        """
        return ExecContext(storage=self.storage, rhs=rhs,
                           pool=self.session.pool)

    def _build_factor_graph(self) -> TaskGraph:
        """Build the family's factorization DAG over ``self.storage``."""
        raise NotImplementedError

    def _prepare_storage(self) -> None:
        """Per-run storage fixup hook (multifrontal blanks the blocks)."""

    def _solve_pmap(self) -> ProcessMap:
        """Process map of the standard triangular-solve graphs."""
        return column_cyclic_1d(self.options.nranks)

    def _build_solve_graphs(self, rhs: np.ndarray
                            ) -> tuple[TaskGraph, TaskGraph]:
        """Forward and backward solve DAGs over the factor storage."""
        pmap = self._solve_pmap()
        fwd = build_forward_graph(self.analysis, self.storage, pmap, rhs)
        bwd = build_backward_graph(self.analysis, self.storage, pmap, rhs)
        return fwd, bwd

    # ----------------------------------------------------------- numerics

    @property
    def trace(self) -> ExecutionTrace:
        """The session-accumulated execution trace."""
        return self.session.trace

    @property
    def _plan_enabled(self) -> bool:
        return self.options.plan_mode == "on"

    def factorize(self) -> FactorizeInfo:
        """Numeric Cholesky factorization ``P A P^T = L L^T``.

        Re-entrant: the task graph is built on the first call and
        *reused* afterwards — each later call resets the factor storage
        from ``A`` and the graph's execution context, then replays the
        identical graph (the repeated-factorization pattern of
        PEXSI-style applications).  Under ``plan_mode="on"`` the first
        call additionally records its flush stream into a compiled
        :class:`~repro.plans.NumericPlan`, and every later call executes
        that plan straight through the kernel executor — no DES — with
        bit-identical results.
        """
        if self._closed:
            raise RuntimeError("solver is closed; its buffers were released")
        cold = self._factor_graph is None
        t_des = time.perf_counter()
        if cold:
            self.storage = FactorStorage(self.analysis,
                                         pool=self.session.pool)
            self._prepare_storage()
            self._factor_graph = self._build_factor_graph()
            ctx = self._factor_graph.context
            if ctx is None:
                self._factor_graph.context = self._exec_context()
            elif ctx.pool is None:
                # Builders that construct a bare context (no build-time
                # scratch) get the session pool patched in post-build.
                ctx.pool = self.session.pool
        else:
            if self._plan_enabled and self._factor_plan is not None:
                return self._plan_refactorize()
            self.storage.reset()
            self._prepare_storage()
            self._factor_graph.context.fresh_run()
        if self._plan_enabled and self._factor_plan is None:
            with StreamRecorder(self.session) as rec:
                run = self.session.run(self._factor_graph)
            self._factor_plan = compile_plan(
                rec.stream(), kind="factor", makespan=run.makespan,
                tasks=run.tasks_total, rank_busy=tuple(run.rank_busy),
                comm=CommStats() + run.comm, stats=self.plan_stats)
        else:
            run = self.session.run(self._factor_graph)
        if cold:
            self._first_des_seconds = time.perf_counter() - t_des
            self.session.trace.record_phases(
                {"first_des_ms": self._first_des_seconds * 1e3})
        self._factorized = True
        return FactorizeInfo(
            simulated_seconds=run.makespan,
            trace=run.trace,
            comm=run.comm,
            tasks=run.tasks_total,
            rank_busy=run.rank_busy,
            exec_stats=run.exec_stats,
            mem=run.mem,
            **self._phase_fields(),
        )

    def _phase_fields(self) -> dict[str, float]:
        """Cold-path phase breakdown (ms) for :class:`FactorizeInfo`."""
        ph = self.analysis.phase_seconds
        return {
            "ordering_ms": ph.get("ordering", 0.0) * 1e3,
            "symbolic_ms": ph.get("symbolic", 0.0) * 1e3,
            "blocks_ms": ph.get("blocks", 0.0) * 1e3,
            "first_des_ms": self._first_des_seconds * 1e3,
        }

    def _execute_plan(self, plan: NumericPlan, ctx: ExecContext
                      ) -> "ExecutorStats":
        """Run one compiled plan against ``ctx`` with the arena installed.

        No task-graph traversal, no event queue, no simulated RPC: a
        fresh executor flushes the plan's frozen stream, observed by the
        session's flush hook exactly as live flushes are (wave checking
        covers the compiled hot path too).
        """
        if self._plan_arena is None:
            self._plan_arena = PlanArena(self.session.pool)
        ctx.plan_arena = self._plan_arena
        executor = KernelExecutor(context=ctx,
                                  flush_hook=self.session._flush_hook)
        try:
            executor.execute_stream(plan.stream)
        finally:
            ctx.plan_arena = None
        self.plan_stats.hits += 1
        return executor.stats

    def _plan_refactorize(self) -> FactorizeInfo:
        """Warm refactorization through the compiled plan (no DES).

        The context deliberately skips ``end_run()``: scratch stays
        resident (zeroed in place by the next ``fresh_run``) and the
        arena retains kernel-held buffers, so replays after the first
        perform zero pool takes and zero ledger allocations.
        """
        plan = self._factor_plan
        ctx = self._factor_graph.context
        self.storage.reset()
        self._prepare_storage()
        ctx.fresh_run()
        stats = self._execute_plan(plan, ctx)
        comm = CommStats() + plan.comm
        self.session.record_replay(comm)
        self._factorized = True
        return FactorizeInfo(
            simulated_seconds=plan.makespan,
            trace=self.session.trace,
            comm=comm,
            tasks=plan.tasks,
            rank_busy=list(plan.rank_busy),
            exec_stats=stats,
            mem=self.session.ledger.snapshot(),
            **self._phase_fields(),
        )

    def update_values(self, a: SymmetricCSC) -> None:
        """Rebind the solver to ``a``'s numeric values, keeping all
        pattern-derived state.

        ``a`` must have exactly the sparsity structure of the analyzed
        matrix.  The symbolic analysis, the factor-storage layout and any
        built task graphs survive; the next :meth:`factorize` replays the
        cached factorization graph on the new values — the cheapest
        refactorization path (no ordering, no symbolic phase, no graph
        build).  This is how the solve service refactorizes on
        numeric-only changes.
        """
        check_finite(a)
        if not probable_spd(a):
            raise ValueError(
                "matrix has non-positive diagonal entries; not SPD")
        a_perm = a.permuted(self.analysis.perm.perm)
        old, new = self.analysis.a_perm.lower, a_perm.lower
        if not (np.array_equal(old.indptr, new.indptr)
                and np.array_equal(old.indices, new.indices)):
            raise ValueError(
                "matrix sparsity pattern differs from the analyzed pattern")
        # In place: FactorStorage.reset() and the multifrontal assembly
        # read values through ``self.analysis.a_perm``, so updating the
        # canonical CSC data array retargets every downstream consumer.
        old.data[:] = new.data
        self.a = a
        self._factorized = False

    def solve(self, b: np.ndarray) -> tuple[np.ndarray, SolveInfo]:
        """Solve ``A x = b`` using the computed factor.

        ``b`` may be a vector or an ``(n, nrhs)`` matrix.  Returns the
        solution in the original (unpermuted) ordering plus solve
        metadata.  Solve graphs are cached per ``nrhs``.
        """
        if not self._factorized or self.storage is None:
            raise RuntimeError("call factorize() before solve()")
        if self._closed:
            raise RuntimeError("solver is closed; its buffers were released")
        b = np.asarray(b, dtype=np.float64)
        squeeze = b.ndim == 1
        vals = b.reshape(self.a.n, -1)
        nrhs = vals.shape[1]

        cached = self._solve_graphs.get(nrhs)
        if cached is None:
            # Column-major rhs (the graphs see the transpose): each column
            # is contiguous like a solo rhs, so it solves to the same bits.
            base = self.session.pool.take((nrhs, self.a.n), label="rhs",
                                          zero=False)
            fwd, bwd = self._build_solve_graphs(base.T)
            for g in (fwd, bwd):
                if g.context is None:
                    g.context = self._exec_context(rhs=base.T)
                elif g.context.pool is None:
                    g.context.pool = self.session.pool
            cached = self._solve_graphs[nrhs] = (fwd, bwd, base)
        fwd, bwd, base = cached
        rhs = base.T
        rhs[:, :] = vals[self.analysis.perm.perm]

        total_time = 0.0
        total_tasks = 0
        comm = CommStats()
        plans = self._solve_plans.get(nrhs) if self._plan_enabled else None
        if plans is not None:
            # Warm path: both sweeps execute their compiled streams,
            # recorded in the canonical (wave, tid) order a DES run
            # executes, so replay and DES produce the same bits.
            for plan, graph in zip(plans, (fwd, bwd)):
                graph.context.fresh_run()
                self._execute_plan(plan, graph.context)
                run_comm = CommStats() + plan.comm
                self.session.record_replay(run_comm)
                total_time += plan.makespan
                total_tasks += plan.tasks
                comm += run_comm
        elif self._plan_enabled:
            recorded: list[NumericPlan] = []
            for kind, graph in (("solve_fwd", fwd), ("solve_bwd", bwd)):
                graph.context.fresh_run()
                with StreamRecorder(self.session) as rec:
                    run = self.session.run(graph)
                recorded.append(compile_plan(
                    rec.stream(), kind=kind, makespan=run.makespan,
                    tasks=run.tasks_total, rank_busy=tuple(run.rank_busy),
                    comm=CommStats() + run.comm, stats=self.plan_stats))
                total_time += run.makespan
                total_tasks += run.tasks_total
                comm += run.comm
            self._solve_plans[nrhs] = (recorded[0], recorded[1])
        else:
            for graph in (fwd, bwd):
                graph.context.fresh_run()
                run = self.session.run(graph)
                total_time += run.makespan
                total_tasks += run.tasks_total
                comm += run.comm

        x = rhs[self.analysis.perm.iperm].copy()
        if squeeze:
            x = x.ravel()
        info = SolveInfo(simulated_seconds=total_time, trace=self.trace,
                         comm=comm, tasks=total_tasks)
        return x, info

    # ----------------------------------------------------------- lifetime

    def close(self) -> None:
        """Release every pooled buffer this solver holds (idempotent).

        Cached right-hand sides, graph-context scratch and the factor
        storage all go back to the session pool, so the shared ledger's
        live bytes return to what the pool's *other* owners hold — zero
        for a solver with a private session.  The solver must not be
        used afterwards (the service calls this when evicting a cached
        factor).
        """
        if self._closed:
            return
        self._closed = True
        self._factor_plan = None
        self._solve_plans.clear()
        if self._plan_arena is not None:
            self._plan_arena.retire()
            self._plan_arena = None
        for fwd, bwd, base in self._solve_graphs.values():
            for g in (fwd, bwd):
                if g.context is not None:
                    g.context.close()
            self.session.pool.give(base)
        self._solve_graphs.clear()
        if (self._factor_graph is not None
                and self._factor_graph.context is not None):
            self._factor_graph.context.close()
        if self.storage is not None:
            self.storage.release()
        self._factorized = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released this solver's buffers."""
        return self._closed

    # ------------------------------------------------------------ queries

    def factor_sparse(self):
        """The factor ``L`` (permuted ordering) as a SciPy CSC matrix."""
        if self.storage is None:
            raise RuntimeError("call factorize() first")
        return self.storage.to_sparse_factor()

    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative residual ``||A x - b|| / ||b||``."""
        r = self.a.full() @ x - b
        denom = float(np.linalg.norm(b))
        return float(np.linalg.norm(r)) / (denom if denom > 0 else 1.0)
