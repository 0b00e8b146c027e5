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

Each task graph is built once per solver and simulated once: its first
run goes through the DES and yields a :class:`~repro.plans.NumericPlan`
(the graph's canonical stream plus that run's simulated results), and
every later run — a repeated ``factorize()`` (the PEXSI pattern) or a
repeated solve — resets the storage and the graph's execution context
and replays that plan through :meth:`SolverBase._replay`, with
bit-identical factors and simulated timings each time.  ``plan_mode``
only decides what the plan holds: under ``"on"`` the stream is compiled
and the graph dropped; under ``"off"`` the plan is the graph's own
stream and the graph is kept.  The solve streams do not depend on the
rhs width, so an unseen width is simulated once for its timings and
replays the first width's streams.  A resilient solver simulates every
run, because fault injection lives in the simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..kernels.dispatch import ExecContext, ExecutorStats, KernelExecutor
from ..machine.model import MachineModel
from ..memory import BufferPool, MemoryLedger, MemorySnapshot
from ..machine.perlmutter import perlmutter
from ..pgas.device_kinds import DeviceKind
from ..pgas.network import MemoryKindsMode
from ..pgas.runtime import CommStats
from ..plans import NumericPlan, PlanStats, compile_plan
from ..resilience.options import ResilienceOptions
from ..sparse.csc import SymmetricCSC
from ..sparse.validate import check_finite, check_rhs, probable_spd
from ..symbolic.analysis import analyze
from ..symbolic.cache import AnalysisCache
from ..symbolic.supernodes import AmalgamationOptions
from .engine import Scheduling
from .mapping import ProcessMap, column_cyclic_1d
from .offload import OffloadPolicy
from .session import ExecutionSession, RunResult
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
        Record the full per-task timeline in the trace.  It covers each
        graph's single simulated run (the first factorization, the first
        solve at each rhs width); replays add nothing to it.
    check_waves:
        Run the wave conflict verifier (:mod:`repro.analysis.waves`) on
        every kernel flush; findings accumulate on the session's
        ``wave_findings`` (CLI ``--check-waves``).
    check_races:
        Attach the PGAS happens-before checker
        (:mod:`repro.analysis.hb`) to every simulated world, i.e. to each
        graph's single simulated run (every run of a resilient solver);
        findings accumulate on the session's ``race_findings`` (CLI
        ``--check-races``).
    plan_mode:
        Every warm run replays the stream of its graph's single DES run
        in either mode.  ``"on"`` compiles that stream (the factor
        graph's, and the solve graphs' of the first rhs width, which
        every width shares) into a :class:`~repro.plans.NumericPlan` and
        drops the graph (CLI ``--plan``; see ``docs/performance.md``).
        ``"off"`` (default) replays the graph's own stream uncompiled
        and keeps the graph.  The bits are the same either way.
        Mutually exclusive with ``resilience`` (a resilient solver
        simulates every run, so there is no graph to drop).
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
                "plan_mode='on' is incompatible with resilience: it drops "
                "each graph after its first run, and a resilient solver "
                "re-simulates every run (fault injection and checkpointing "
                "live in the simulator)")

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
                 *, trace: ExecutionTrace | None = None,
                 ledger: MemoryLedger | None = None,
                 pool: BufferPool | None = None):
        self.options = options if options is not None else self.options_cls()
        check_finite(a)
        if not probable_spd(a):
            raise ValueError(
                "matrix has non-positive diagonal entries; not SPD"
            )
        self.a = a
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
        # Run state kept for the solver's lifetime: the factor graph's
        # context, one (forward, backward) solve context pair, and one
        # (width, n) rhs buffer, regrown when a wider rhs arrives; every
        # solve binds the contexts' rhs to its leading rows.
        self._factor_ctx: ExecContext | None = None
        self._solve_ctxs: tuple[ExecContext, ExecContext] | None = None
        self._rhs: np.ndarray | None = None
        # Task graphs: kept under plan_mode="off"; under "on" only until
        # their first (simulated) run has produced their plan.
        self._factor_graph: TaskGraph | None = None
        self._solve_graphs: dict[int, tuple[TaskGraph, TaskGraph]] = {}
        self._factorized = False
        # Plans every run after a graph's first replays (see _run): the
        # factor plan, and per rhs width a (forward, backward) pair that
        # shares the first width's streams and carries its own simulated
        # results.
        self.plan_stats = PlanStats()
        self._factor_plan: NumericPlan | None = None
        self._solve_plans: dict[int, tuple[NumericPlan, NumericPlan]] = {}

    # ------------------------------------------------------- family hooks

    def _session_machine(self) -> MachineModel:
        """Machine model the session runs on (baselines may tune it)."""
        return self.options.machine

    def _exec_context(self, rhs: np.ndarray | None = None) -> ExecContext:
        """Execution context wired to the session's ledgered buffer pool.

        Graph builders that reserve workspace slots (fan-in / fan-both
        aggregates, multifrontal fronts and updates) create their context
        through this helper, so the workspace charges the session ledger
        instead of a private pool.
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

        Re-entrant: the task graph is built and run through the DES on
        the first call, which yields its plan (see :meth:`_run`); each
        later call resets the factor storage from ``A`` and the graph's
        execution context, then replays that plan — no DES — with
        bit-identical factors and the first run's simulated results
        (the repeated-factorization pattern of PEXSI-style
        applications).  A resilient solver re-simulates every call.
        """
        if self._closed:
            raise RuntimeError("solver is closed; its buffers were released")
        cold = self.storage is None
        t_des = time.perf_counter()
        if cold:
            self.storage = FactorStorage(self.analysis,
                                         pool=self.session.pool)
            self._prepare_storage()
            self._factor_graph = self._build_factor_graph()
            self._factor_ctx = self._adopt_context(self._factor_graph)
        else:
            self.storage.reset()
            self._prepare_storage()
        self._factor_ctx.fresh_run()
        run, self._factor_plan = self._run(
            self._factor_graph, self._factor_plan, self._factor_ctx,
            "factor")
        if self._plan_enabled:
            self._factor_graph = None
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

    def _adopt_context(self, graph: TaskGraph) -> ExecContext:
        """``graph``'s execution context, wired to the session pool.

        Builders that construct no context get a fresh one; builders
        that construct a bare one (no workspace slots) get the session
        pool patched in post-build.
        """
        if graph.context is None:
            graph.context = self._exec_context()
        elif graph.context.pool is None:
            graph.context.pool = self.session.pool
        return graph.context

    def _run(self, graph: TaskGraph | None, plan: NumericPlan | None,
             ctx: ExecContext, kind: str, like: NumericPlan | None = None
             ) -> tuple[RunResult, NumericPlan]:
        """One run of a graph: simulate it once, replay its plan after.

        With a ``plan`` the run is a :meth:`_replay`, unless the session
        is resilient (fault injection lives in the simulator).  Otherwise
        ``graph`` runs through the DES, and a first run returns the plan
        later runs replay, holding this run's simulated results: ``like``
        with new timings when given (an unseen rhs width shares the first
        width's streams), else ``graph.stream`` — compiled under
        ``plan_mode="on"``.
        """
        if plan is not None and self.session.resilience is None:
            return self._replay(plan, ctx), plan
        run = self.session.run(graph)
        if plan is None:
            timings = dict(makespan=run.makespan, tasks=run.tasks_total,
                           rank_busy=tuple(run.rank_busy),
                           comm=CommStats() + run.comm)
            if like is not None:
                plan = replace(like, **timings)
            elif self._plan_enabled:
                plan = compile_plan(graph.stream, kind=kind,
                                    stats=self.plan_stats, **timings)
            else:
                plan = NumericPlan(kind=kind, stream=graph.stream,
                                   calls=len(graph.stream), **timings)
        return run, plan

    def _phase_fields(self) -> dict[str, float]:
        """Cold-path phase breakdown (ms) for :class:`FactorizeInfo`."""
        ph = self.analysis.phase_seconds
        return {
            "ordering_ms": ph.get("ordering", 0.0) * 1e3,
            "symbolic_ms": ph.get("symbolic", 0.0) * 1e3,
            "blocks_ms": ph.get("blocks", 0.0) * 1e3,
            "first_des_ms": self._first_des_seconds * 1e3,
        }

    def _replay(self, plan: NumericPlan, ctx: ExecContext) -> RunResult:
        """Run one plan against ``ctx`` — the only warm path, in both
        plan modes.

        No task-graph traversal, no event queue, no simulated RPC: a
        fresh executor runs the plan's stream (compiled or not),
        observed by the session's flush hook exactly as live flushes are
        (wave checking covers the warm path too).  The simulated-time
        results are the graph's DES run's.  Kernels work in the
        context's resident workspace, so a replay takes nothing from the
        pool and charges nothing to the ledger.
        """
        executor = KernelExecutor(context=ctx,
                                  flush_hook=self.session._flush_hook)
        executor.execute_stream(plan.stream)
        self.plan_stats.hits += 1
        comm = CommStats() + plan.comm
        self.session.record_replay(comm)
        return RunResult(makespan=plan.makespan, tasks_total=plan.tasks,
                         rank_busy=list(plan.rank_busy), comm=comm,
                         trace=self.session.trace, exec_stats=executor.stats,
                         mem=self.session.ledger.snapshot())

    def update_values(self, a: SymmetricCSC) -> None:
        """Rebind the solver to ``a``'s numeric values, keeping all
        pattern-derived state.

        ``a`` must have exactly the sparsity structure of the analyzed
        matrix.  The symbolic analysis, the factor-storage layout and the
        factorization's plan survive; the next
        :meth:`factorize` replays it on the new values — the cheapest
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

        ``b`` may be a length-``n`` vector or an ``(n, nrhs)`` matrix;
        any other shape raises ``ValueError``.  Returns the solution in
        the original (unpermuted) ordering plus solve metadata.  The
        forward and backward solve graphs of a width are built and
        simulated on its first solve, for their simulated results; the
        streams they replay afterwards are the first width's, since each
        solve kernel updates a row range across all the rhs columns.
        """
        if not self._factorized or self.storage is None:
            raise RuntimeError("call factorize() before solve()")
        if self._closed:
            raise RuntimeError("solver is closed; its buffers were released")
        b = check_rhs(b, self.a.n)
        squeeze = b.ndim == 1
        vals = b.reshape(self.a.n, -1)
        nrhs = vals.shape[1]

        # Column-major rhs (the graphs see the transpose of the buffer's
        # leading rows): each column is contiguous like a solo rhs, so it
        # solves to the same bits.  The buffer is regrown before an unseen
        # width's graphs are built, so a failing build strands nothing.
        rhs = self._rhs_buffer(nrhs)[:nrhs].T
        if nrhs not in self._solve_plans and nrhs not in self._solve_graphs:
            fwd, bwd = self._build_solve_graphs(rhs)
            if self._solve_ctxs is None:
                self._solve_ctxs = (self._adopt_context(fwd),
                                    self._adopt_context(bwd))
            fwd.context, bwd.context = self._solve_ctxs
            self._solve_graphs[nrhs] = (fwd, bwd)
        rhs[:, :] = vals[self.analysis.perm.perm]

        total_time = 0.0
        total_tasks = 0
        comm = CommStats()
        plans = self._solve_plans.get(nrhs, (None, None))
        first = next(iter(self._solve_plans.values()), (None, None))
        graphs = self._solve_graphs.get(nrhs, (None, None))
        ran: list[NumericPlan] = []
        for i, (kind, ctx) in enumerate(zip(("solve_fwd", "solve_bwd"),
                                            self._solve_ctxs)):
            ctx.rhs = rhs
            ctx.fresh_run()
            run, plan = self._run(graphs[i], plans[i], ctx, kind, first[i])
            ran.append(plan)
            total_time += run.makespan
            total_tasks += run.tasks_total
            comm += run.comm
        self._solve_plans[nrhs] = (ran[0], ran[1])
        if self._plan_enabled:
            self._solve_graphs.pop(nrhs, None)

        x = rhs[self.analysis.perm.iperm].copy()
        if squeeze:
            x = x.ravel()
        info = SolveInfo(simulated_seconds=total_time, trace=self.trace,
                         comm=comm, tasks=total_tasks)
        return x, info

    def _rhs_buffer(self, nrhs: int) -> np.ndarray:
        """The solver's one ``(width, n)`` rhs buffer, ``width >= nrhs``.

        A rhs wider than any before gives the buffer back and takes one
        of the new width; narrower ones use its leading rows.
        """
        if self._rhs is None or self._rhs.shape[0] < nrhs:
            if self._rhs is not None:
                self.session.pool.give(self._rhs)
                self._rhs = None
            self._rhs = self.session.pool.take((nrhs, self.a.n),
                                               label="rhs", zero=False)
        return self._rhs

    # ----------------------------------------------------------- lifetime

    def close(self) -> None:
        """Release every pooled buffer this solver holds (idempotent).

        The rhs buffer, the contexts' workspaces and the factor storage
        all go back to the session pool, so the shared ledger's
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
        for ctx in self._solve_ctxs or ():
            ctx.close()
        self._solve_ctxs = None
        if self._rhs is not None:
            self.session.pool.give(self._rhs)
            self._rhs = None
        self._solve_graphs.clear()
        if self._factor_ctx is not None:
            self._factor_ctx.close()
        self._factor_graph = None
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
