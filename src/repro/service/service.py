"""`SolveService`: a multi-tenant, concurrent sparse-SPD solve service.

Layered on the execution-session stack, the service amortises every
reusable artifact of a solve across requests:

* structurally identical matrices share one symbolic analysis (ordering,
  supernodes, Algorithm 2 blocks) through the service's pattern-keyed
  :class:`~repro.symbolic.cache.AnalysisCache`;
* numerically identical matrices share one live factor through the
  LRU-budgeted :class:`~repro.service.caches.FactorCache`; numeric-only
  changes replay the cached factorization graph
  (:meth:`~repro.core.base.SolverBase.update_values` + graph replay)
  instead of rebuilding anything;
* pending solves against the same factor are stolen from the queue and
  stacked into one multi-RHS triangular solve (column-deterministic
  kernels keep the results bit-identical to solo solves).

Every request resolves to a **tier** recording how much work it skipped
— ``cold`` / ``symbolic`` / ``refactor`` / ``factor``, tabulated in
``docs/service.md``.

All solvers created by the service share one thread-safe
:class:`~repro.core.tracing.ExecutionTrace`; per-request telemetry is
exported through it as :class:`~repro.service.requests.ServiceStats`
records — the same object the caller gets back with the solution.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.base import CommonOptions, SolverBase
from ..core.solver import SolverOptions, SymPackSolver
from ..core.tracing import ExecutionTrace
from ..memory import BufferPool, MemoryLedger
from ..pgas.runtime import CommStats
from ..sparse.csc import SymmetricCSC
from ..symbolic.cache import AnalysisCache
from .caches import FactorCache, FactorEntry
from .keys import matrix_keys
from .requests import RequestQueue, ServiceStats, SolveRequest

__all__ = ["ServiceConfig", "ServiceCounters", "SolveService"]

# Failures a request can legitimately produce: bad numerics (non-SPD
# values), malformed inputs, and symbolic inconsistencies.  Programming
# errors (AttributeError, TypeError, ...) are NOT caught — they should
# surface loudly through the future/thread, not be recorded as a
# "failed request".
REQUEST_ERRORS = (ValueError, KeyError, RuntimeError, np.linalg.LinAlgError)

# Stripes of the per-pattern materialization lock: same key, same stripe
# (a burst on a new pattern still analyses once), fixed lock state.
KEY_LOCK_STRIPES = 256


def error_summary(exc: BaseException) -> str:
    """One-line innermost-frame summary of ``exc`` for telemetry."""
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return str(exc)
    last = frames[-1]
    name = last.filename.rsplit("/", 1)[-1]
    return f"{name}:{last.lineno} in {last.name}: {exc}"


def classify_failure(exc: BaseException) -> str:
    """Coarse failure taxonomy stamped on failed-request telemetry.

    ``injected-fault`` and ``checkpoint-io`` are the resilience
    subsystem's typed errors (both subclass ``RuntimeError``, so they
    flow through :data:`REQUEST_ERRORS`); everything else a request can
    legitimately raise is a ``request-error``.
    """
    from ..resilience.errors import CheckpointIOError, RankUnresponsive

    if isinstance(exc, RankUnresponsive):
        return "injected-fault"
    if isinstance(exc, CheckpointIOError):
        return "checkpoint-io"
    return "request-error"


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs of a :class:`SolveService`.

    Attributes
    ----------
    workers:
        Worker threads draining the request queue.
    queue_depth:
        Bounded queue capacity; the backpressure knob.  ``submit`` blocks
        when this many requests are pending and fails with
        :class:`~repro.service.requests.ServiceOverloaded` once its
        per-call ``timeout`` expires.
    factor_budget_bytes:
        Memory budget of the LRU factor cache.
    max_coalesce:
        Ceiling on right-hand-side columns stacked into one solve run
        (1 = never coalesce).
    analysis_cache_dir:
        Directory of the disk tier of the service's :class:`~repro.\
symbolic.cache.AnalysisCache`: every cold build is published there, so
        symbolic work survives service restarts as well as factor
        evictions.  ``None`` (default) keeps the cache memory-only.
    """

    workers: int = 2
    queue_depth: int = 64
    factor_budget_bytes: int = 256 * 1024 * 1024
    max_coalesce: int = 8
    analysis_cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_coalesce < 1:
            raise ValueError(
                f"max_coalesce must be >= 1, got {self.max_coalesce}")


@dataclass
class ServiceCounters:
    """Snapshot of service-wide counters (see :meth:`SolveService.counters`)."""

    requests_completed: int = 0
    requests_failed: int = 0
    symbolic_builds: int = 0
    numeric_factorizations: int = 0
    refactorizations: int = 0
    solve_runs: int = 0
    coalesced_requests: int = 0
    # Compiled-plan telemetry (plan_mode="on"): replays executed as
    # frozen kernel streams, plans compiled, and total compile cost.
    plan_hits: int = 0
    plan_compiles: int = 0
    plan_compile_ms: float = 0.0
    tiers: dict = field(default_factory=dict)
    queue_depth: int = 0
    factor_entries: int = 0
    factor_bytes: int = 0
    evictions: int = 0
    bytes_evicted: int = 0
    comm: CommStats = field(default_factory=CommStats)
    # Memory-ledger truth (one ledger for every tenant of the service):
    # total live/peak bytes over all (rank, space) accounts, the live
    # "factor"-labelled bytes the allocation layer sees, and the delta
    # between that and the cache's own ``factor_bytes`` accounting
    # (zero unless an evicted solver's release is still in flight).
    bytes_live: int = 0
    bytes_peak: int = 0
    factor_bytes_ledger: int = 0
    factor_bytes_delta: int = 0
    # Symbolic-tier (AnalysisCache) stats: mem_hits / disk_hits / misses /
    # puts / evictions / entries.
    analysis_cache: dict = field(default_factory=dict)

    def hit_rate(self) -> float:
        """Fraction of completed requests that skipped the symbolic phase.

        Failed requests (tier ``failed``) are excluded: they say nothing
        about cache effectiveness.
        """
        total = sum(n for tier, n in self.tiers.items() if tier != "failed")
        if total == 0:
            return 0.0
        return 1.0 - self.tiers.get("cold", 0) / total


class SolveService:
    """Concurrent solve service with symbolic/factor caching and coalescing.

    Parameters
    ----------
    options:
        Solver options every request runs under (one machine/rank
        configuration per service instance).
    config:
        Operational knobs (:class:`ServiceConfig`).
    solver_cls:
        Solver family used for cache entries; any
        :class:`~repro.core.base.SolverBase` subclass works.

    Use as a context manager, or call :meth:`start` / :meth:`stop`::

        with SolveService(SolverOptions(nranks=4)) as svc:
            x, stats = svc.solve(a, b)          # synchronous
            fut = svc.submit(a2, b2)            # asynchronous
            x2, stats2 = fut.result()
    """

    def __init__(self, options: CommonOptions | None = None,
                 config: ServiceConfig | None = None,
                 solver_cls: type[SolverBase] = SymPackSolver):
        options = options if options is not None else SolverOptions()
        self.config = config if config is not None else ServiceConfig()
        # The symbolic tier: the caller's cache if the options carry one,
        # else the service's own.  Every solver is built against it, so
        # SolverBase's get -> miss -> analyze -> put is its only protocol.
        self.analysis_cache = (
            options.analysis_cache if options.analysis_cache is not None
            else AnalysisCache(self.config.analysis_cache_dir))
        self.options = replace(options, analysis_cache=self.analysis_cache)
        self.solver_cls = solver_cls
        self.trace = ExecutionTrace()
        # One ledger + pool across every tenant: factor storages, kernel
        # scratch, rhs buffers and device segments of all cached solvers
        # charge the same accounts, so cache budgeting, OOM fallbacks and
        # the counters below all read one source of byte truth.
        self.ledger = MemoryLedger()
        self.pool = BufferPool(ledger=self.ledger)
        self.factor_cache = FactorCache(self.config.factor_budget_bytes,
                                        ledger=self.ledger)
        self._queue = RequestQueue(self.config.queue_depth)
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()          # counters + ids
        self._key_stripes = tuple(threading.Lock()
                                  for _ in range(KEY_LOCK_STRIPES))
        self._next_id = 0
        self._started = False
        self._stopping = False
        self._counts = ServiceCounters()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "SolveService":
        """Launch the worker pool (idempotent)."""
        if self._started:
            return self
        self._started = True
        for i in range(self.config.workers):
            t = threading.Thread(target=self._worker_loop,
                                 name=f"solve-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self) -> None:
        """Shut down: refuse new work, finish the pending requests."""
        if not self._started or self._stopping:
            return
        self._stopping = True
        self._queue.close()
        for t in self._threads:
            t.join()
        self._threads.clear()

    def close(self) -> None:
        """Stop, then release every cached factor's pooled buffers.

        After ``close()`` the ledger's live bytes return to zero in every
        ``(rank, space)`` account (the pool may retain free lists, but
        nothing is charged as live); peaks survive for reporting.
        ``stop()`` alone keeps the caches readable for post-mortem
        inspection.
        """
        self.stop()
        for entry in self.factor_cache.pop_all():
            self._retire(entry)

    def __enter__(self) -> "SolveService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ----------------------------------------------------------- submission

    def submit(self, a: SymmetricCSC, b: np.ndarray,
               timeout: float | None = None) -> Future:
        """Queue one solve of ``A x = b``; returns a future of
        ``(x, ServiceStats)``.

        Blocks while the queue is at ``queue_depth``; raises
        :class:`ServiceOverloaded` once ``timeout`` seconds (``None`` =
        wait forever) expire.
        """
        if not self._started:
            raise RuntimeError("call start() (or use the context manager) "
                               "before submitting")
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != a.n:
            raise ValueError(
                f"rhs has {b.shape[0]} rows, matrix has n={a.n}")
        squeeze = b.ndim == 1
        vals = b.reshape(a.n, -1).copy()
        pkey, vkey = matrix_keys(a)
        with self._lock:
            rid = self._next_id
            self._next_id += 1
        req = SolveRequest(
            request_id=rid, a=a, b=vals, squeeze=squeeze,
            pattern_key=pkey, values_key=vkey, future=Future(),
            submit_time=time.monotonic(),
        )
        self._queue.put(req, timeout=timeout)
        return req.future

    def solve(self, a: SymmetricCSC, b: np.ndarray
              ) -> tuple[np.ndarray, ServiceStats]:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit(a, b).result()

    # ------------------------------------------------------------ telemetry

    def counters(self) -> ServiceCounters:
        """Consistent snapshot of the service-wide counters."""
        with self._lock:
            snap = replace(self._counts, comm=CommStats() + self._counts.comm)
        snap.tiers = self.trace.tier_counts()
        snap.queue_depth = len(self._queue)
        snap.factor_entries = len(self.factor_cache)
        snap.factor_bytes = self.factor_cache.current_bytes
        snap.evictions = self.factor_cache.evictions
        snap.bytes_evicted = self.factor_cache.bytes_evicted
        snap.bytes_live = self.ledger.live()
        snap.bytes_peak = self.ledger.peak()
        snap.factor_bytes_ledger = self.factor_cache.ledger_live() or 0
        snap.factor_bytes_delta = self.factor_cache.reconcile()
        snap.analysis_cache = self.analysis_cache.stats()
        return snap

    # ---------------------------------------------------------- worker pool

    def _key_lock(self, pattern_key: str) -> threading.Lock:
        return self._key_stripes[int(pattern_key[:8], 16) % KEY_LOCK_STRIPES]

    def _worker_loop(self) -> None:
        # get() returns None once stop() closed the queue and it drained.
        while (req := self._queue.get()) is not None:
            try:
                self._process(req)
            except REQUEST_ERRORS as exc:  # materialization / solve failure
                if not req.future.done():
                    req.future.set_exception(exc)
                self._record_failure([req], exc)

    def _process(self, req: SolveRequest) -> None:
        picked_up = time.monotonic()
        with self._key_lock(req.pattern_key):
            while True:
                (tier, entry, factor_seconds,
                 plan_hits, plan_ms) = self._materialize(req)
                with entry.lock:
                    if entry.closed:
                        # Another pattern's insert evicted this entry and
                        # retired it while we waited on its lock; it is
                        # gone from the cache, so re-materialize.
                        continue
                    batch = [req] + self._queue.steal_matching(
                        req.pattern_key, req.values_key,
                        self.config.max_coalesce - req.ncols)
                    # Followers left the queue just now, not at leader
                    # pickup.
                    waits = [picked_up - req.submit_time]
                    steal_time = time.monotonic()
                    waits += [steal_time - r.submit_time for r in batch[1:]]
                    self._run_solve(entry, batch, waits, tier,
                                    factor_seconds, plan_hits, plan_ms)
                    return

    @staticmethod
    def _plan_snapshot(solver: SolverBase) -> tuple[int, int, float]:
        """Plan-telemetry baseline: (hits, compiles, compile_seconds)."""
        ps = solver.plan_stats
        return ps.hits, ps.compiles, ps.compile_seconds

    def _count_plan_delta(self, solver: SolverBase,
                          before: tuple[int, int, float]
                          ) -> tuple[int, float]:
        """Fold the plan work since ``before`` into the service counters.

        Returns ``(plan replays, compile milliseconds)`` attributable to
        the operation bracketed by the snapshot.  Caller must NOT hold
        ``self._lock``.
        """
        hits0, compiles0, seconds0 = before
        ps = solver.plan_stats
        d_hits = ps.hits - hits0
        d_compiles = ps.compiles - compiles0
        d_ms = (ps.compile_seconds - seconds0) * 1e3
        if d_hits or d_compiles:
            with self._lock:
                self._counts.plan_hits += d_hits
                self._counts.plan_compiles += d_compiles
                self._counts.plan_compile_ms += d_ms
        return d_hits, d_ms

    def _materialize(self, req: SolveRequest
                     ) -> tuple[str, FactorEntry, float, int, float]:
        """Resolve the cache tiers until a live factor for ``req`` exists.

        Called under the pattern's key lock, so concurrent requests on
        one pattern never duplicate symbolic or numeric work.  Returns
        ``(tier, entry, factor_seconds, plan_hits, plan_compile_ms)`` —
        the last two attribute compiled-plan work (plan_mode="on") to
        the materialization.
        """
        entry = self.factor_cache.get(req.pattern_key)
        if entry is not None:
            with entry.lock:
                if not entry.closed:
                    if entry.values_key == req.values_key:
                        return "factor", entry, 0.0, 0, 0.0
                    # Numeric-only change: swap the values in place and
                    # replay the cached factorization graph — through the
                    # compiled plan when one is attached (plan_mode="on").
                    before = self._plan_snapshot(entry.solver)
                    entry.solver.update_values(req.a)
                    info = entry.solver.factorize()
                    entry.values_key = req.values_key
                    with self._lock:
                        self._counts.refactorizations += 1
                        self._counts.comm += info.comm
                    plan_hits, plan_ms = self._count_plan_delta(
                        entry.solver, before)
                    return ("refactor", entry, info.simulated_seconds,
                            plan_hits, plan_ms)
            # Raced an eviction: the entry was retired between get() and
            # its lock; rebuild from the symbolic tier below.

        # The constructor looks the pattern up in self.analysis_cache and
        # publishes a cold build back; which of the two happened is the tier.
        solver = self.solver_cls(req.a, self.options, trace=self.trace,
                                 ledger=self.ledger, pool=self.pool)
        if "cache_load" in solver.analysis.phase_seconds:
            tier = "symbolic"
        else:
            tier = "cold"
            with self._lock:
                self._counts.symbolic_builds += 1
        before = self._plan_snapshot(solver)
        info = solver.factorize()
        entry = FactorEntry(pattern_key=req.pattern_key, solver=solver,
                            values_key=req.values_key,
                            nbytes=solver.storage.factor_bytes())
        for victim in self.factor_cache.put(entry):
            self._retire(victim)
        with self._lock:
            self._counts.numeric_factorizations += 1
            self._counts.comm += info.comm
        plan_hits, plan_ms = self._count_plan_delta(solver, before)
        return tier, entry, info.simulated_seconds, plan_hits, plan_ms

    def _retire(self, victim: FactorEntry) -> None:
        """Close an evicted entry's solver, releasing its pooled buffers.

        Taking the victim's lock first means an in-flight solve on it
        finishes before its storage returns to the pool; workers that
        were waiting see ``closed`` and re-materialize.
        """
        with victim.lock:
            if victim.closed:
                return
            victim.closed = True
            victim.solver.close()

    def _record_failure(self, batch: list[SolveRequest],
                        exc: BaseException) -> None:
        """Count and trace failed requests (tier ``failed``)."""
        now = time.monotonic()
        summary = error_summary(exc)
        counts = self.trace.resilience_counts()
        for r in batch:
            self.trace.record_request(ServiceStats(
                request_id=r.request_id, tier="failed",
                queue_wait=now - r.submit_time,
                error=type(exc).__name__, error_summary=summary,
                failure_class=classify_failure(exc),
                retries=counts["retries"], recoveries=counts["recoveries"]))
        with self._lock:
            self._counts.requests_failed += len(batch)

    def _run_solve(self, entry: FactorEntry, batch: list[SolveRequest],
                   waits: list[float], tier: str,
                   factor_seconds: float, plan_hits: int = 0,
                   plan_compile_ms: float = 0.0) -> None:
        """One (possibly stacked) triangular solve for ``batch``.

        ``plan_hits``/``plan_compile_ms`` carry the materialization's
        compiled-plan work; the solve's own plan work (warm sweeps for
        this rhs width replay frozen streams) is added here.  The leader
        is stamped with the combined totals, followers with the solve
        share they actually rode.
        """
        solver = entry.solver
        stacked = (batch[0].b if len(batch) == 1
                   else np.concatenate([r.b for r in batch], axis=1))
        width = stacked.shape[1]
        before = self._plan_snapshot(solver)
        try:
            x, sinfo = solver.solve(stacked)
        except REQUEST_ERRORS as exc:
            for r in batch:
                r.future.set_exception(exc)
            self._record_failure(batch, exc)
            return
        solve_hits, solve_ms = self._count_plan_delta(solver, before)
        x = x.reshape(solver.a.n, -1)
        with self._lock:
            self._counts.solve_runs += 1
            self._counts.comm += sinfo.comm
        # Ledger truth at completion, stamped on every member's record
        # (live = resident bytes now, peak = high-water).
        bytes_live = self.ledger.live()
        bytes_peak = self.ledger.peak()
        counts = self.trace.resilience_counts()
        col = 0
        for i, r in enumerate(batch):
            xs = x[:, col:col + r.ncols]
            col += r.ncols
            stats = ServiceStats(
                request_id=r.request_id,
                # Followers hit the factor the leader materialized.
                tier=tier if i == 0 else "factor",
                queue_wait=waits[i],
                factor_seconds=factor_seconds if i == 0 else 0.0,
                solve_seconds=sinfo.simulated_seconds,
                coalesced_width=width,
                residual=solver.residual_norm(xs, r.b),
                bytes_live=bytes_live,
                bytes_peak=bytes_peak,
                plan_hits=plan_hits + solve_hits if i == 0 else solve_hits,
                plan_compile_ms=(plan_compile_ms + solve_ms if i == 0
                                 else solve_ms),
                retries=counts["retries"], recoveries=counts["recoveries"],
            )
            self.trace.record_request(stats)
            with self._lock:
                self._counts.requests_completed += 1
                if width > r.ncols:
                    self._counts.coalesced_requests += 1
            r.future.set_result((xs.ravel() if r.squeeze else xs.copy(), stats))
