"""Execution tracing: exact operation, placement and communication counters.

Paper Figure 6 reports how many POTRF/TRSM/SYRK/GEMM calls land on the CPU
versus the GPU (per rank); these counters are incremented by the engine as
tasks execute, so they are exact counts of the executed protocol, not
estimates.

All mutation paths are thread-safe: the solve service
(:mod:`repro.service`) runs a worker pool whose solvers may share one
trace, and two workers recording kernel calls concurrently must not lose
counts (a lost increment would silently skew the Fig. 6 split).  Readers
take the same lock only where they snapshot multi-step aggregates.

The trace is also the export surface for service-level telemetry:
:meth:`ExecutionTrace.record_request` keeps the last
:data:`SERVICE_EVENT_RING` request records (the service's ``ServiceStats``;
anything with a ``.tier`` works, so ``core`` does not import ``service``)
beside exact running per-tier totals.
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import Any

__all__ = ["OpCounters", "ExecutionTrace", "SERVICE_EVENT_RING", "mutex"]

#: Request records a trace retains; older ones fall off, totals stay exact.
SERVICE_EVENT_RING = 1024


def mutex() -> threading.Lock:
    """The repo's sanctioned lock factory.

    Thread-coordination primitives are confined to the executor
    (``kernels/dispatch.py``), the service layer and this module — a lint
    rule (``REP102``) enforces it.  Code elsewhere that needs a lock for
    its accumulators takes one from here instead of importing
    ``threading`` directly, keeping the set of modules that can create
    concurrency auditable.
    """
    return threading.Lock()


@dataclass
class OpCounters:
    """Per-(rank, op, device) call and flop counters (thread-safe)."""

    calls: dict[tuple[int, str, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    flops: dict[tuple[int, str, str], float] = field(
        default_factory=lambda: defaultdict(float)
    )
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, rank: int, op: str, device: str, flops: float) -> None:
        """Count one kernel call."""
        with self._lock:
            self.calls[(rank, op, device)] += 1
            self.flops[(rank, op, device)] += flops

    def calls_by_op(self, rank: int | None = None) -> dict[str, dict[str, int]]:
        """``{op: {'cpu': n, 'gpu': n}}``, optionally restricted to a rank."""
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"cpu": 0, "gpu": 0})
        with self._lock:
            items = list(self.calls.items())
        for (r, op, device), n in items:
            if rank is None or r == rank:
                out[op][device] += n
        return {op: dict(v) for op, v in out.items()}

    def total_calls(self, device: str | None = None) -> int:
        """Total kernel calls, optionally filtered by device."""
        with self._lock:
            return sum(n for (_, _, d), n in self.calls.items()
                       if device is None or d == device)

    def total_flops(self, device: str | None = None) -> float:
        """Total flops, optionally filtered by device."""
        with self._lock:
            return sum(f for (_, _, d), f in self.flops.items()
                       if device is None or d == device)


@dataclass
class ExecutionTrace:
    """Full execution record of one simulated run (thread-safe)."""

    ops: OpCounters = field(default_factory=OpCounters)
    tasks_executed: int = 0
    gpu_fallbacks: int = 0          # device-OOM falls back to CPU
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    timeline: list[tuple[float, float, int, str]] = field(default_factory=list)
    keep_timeline: bool = False
    # Last SERVICE_EVENT_RING request records, and the exact per-tier
    # totals over every request ever recorded.
    service_events: deque[Any] = field(
        default_factory=lambda: deque(maxlen=SERVICE_EVENT_RING))
    tier_totals: Counter[str] = field(default_factory=Counter)
    # Memory-ledger watermarks, keyed ``(rank, space)``: ``mem_live`` is
    # the latest reported live bytes, ``mem_peak`` the max ever reported
    # (sessions report after every run via :meth:`update_memory`).
    mem_live: dict[tuple[int, str], int] = field(default_factory=dict)
    mem_peak: dict[tuple[int, str], int] = field(default_factory=dict)
    # Cold-path phase durations in milliseconds (``ordering_ms`` /
    # ``symbolic_ms`` / ``blocks_ms`` / ``first_des_ms``; ``cache_load_ms``
    # on an AnalysisCache hit).  Last write wins per key — the breakdown
    # describes the most recent cold start recorded on this trace.
    phase_ms: dict[str, float] = field(default_factory=dict)
    # Resilience counters (repro.resilience): accumulated across runs by
    # the resilient runner, exported on the request records.
    retries: int = 0
    recoveries: int = 0
    checkpoints: int = 0
    faults_injected: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record_task(self, start: float, end: float, rank: int, label: str) -> None:
        """Record one executed task (timeline optional to bound memory)."""
        with self._lock:
            self.tasks_executed += 1
            if self.keep_timeline:
                self.timeline.append((start, end, rank, label))

    def add_h2d(self, nbytes: int) -> None:
        """Account a host-to-device transfer."""
        with self._lock:
            self.h2d_bytes += nbytes

    def add_d2h(self, nbytes: int) -> None:
        """Account a device-to-host transfer."""
        with self._lock:
            self.d2h_bytes += nbytes

    def record_fallback(self) -> None:
        """Count one device-OOM CPU fallback."""
        with self._lock:
            self.gpu_fallbacks += 1

    def add_resilience(self, retries: int = 0, recoveries: int = 0,
                       checkpoints: int = 0, faults: int = 0) -> None:
        """Accumulate one resilient run's retry/recovery counters."""
        with self._lock:
            self.retries += retries
            self.recoveries += recoveries
            self.checkpoints += checkpoints
            self.faults_injected += faults

    def resilience_counts(self) -> dict[str, int]:
        """Snapshot of the resilience counters under the lock."""
        with self._lock:
            return {"retries": self.retries,
                    "recoveries": self.recoveries,
                    "checkpoints": self.checkpoints,
                    "faults_injected": self.faults_injected}

    def record_phases(self, phases: dict[str, float]) -> None:
        """Merge cold-path phase durations (milliseconds) into the trace."""
        with self._lock:
            self.phase_ms.update(phases)

    def phase_breakdown(self) -> dict[str, float]:
        """Snapshot of the recorded phase durations under the lock."""
        with self._lock:
            return dict(self.phase_ms)

    def update_memory(self, snapshot) -> None:
        """Fold a :class:`~repro.memory.MemorySnapshot` into the trace.

        ``mem_live`` reflects the latest snapshot; ``mem_peak`` max-merges,
        so a trace shared across many runs (or tenants) keeps the global
        high-water mark per ``(rank, space)`` account.
        """
        with self._lock:
            for acct in snapshot.accounts:
                key = (acct.rank, acct.space)
                self.mem_live[key] = acct.live
                if acct.peak > self.mem_peak.get(key, 0):
                    self.mem_peak[key] = acct.peak

    def memory_watermarks(self) -> tuple[dict[tuple[int, str], int],
                                         dict[tuple[int, str], int]]:
        """Snapshot of ``(mem_live, mem_peak)`` under the lock."""
        with self._lock:
            return dict(self.mem_live), dict(self.mem_peak)

    def record_request(self, event: Any) -> None:
        """Record one service request's telemetry (duck-typed on ``.tier``)."""
        with self._lock:
            self.service_events.append(event)
            self.tier_totals[event.tier] += 1

    def tier_counts(self) -> dict[str, int]:
        """``{tier: request count}`` over every request ever recorded."""
        with self._lock:
            return dict(self.tier_totals)
