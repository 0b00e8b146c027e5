"""Request-side plumbing of the solve service.

Defines the per-request :class:`ServiceStats` record returned with every
solution, the internal request envelope, and :class:`RequestQueue` — a
bounded FIFO with two extras the worker pool needs:

* **backpressure** — ``put`` blocks when the queue is at capacity and
  raises :class:`ServiceOverloaded` once the submit timeout expires, so a
  traffic burst degrades into slower admission instead of unbounded
  memory growth;
* **coalescing steals** — a worker holding a factor may atomically remove
  every pending request against the same ``(pattern, values)`` key and
  stack their right-hand sides into one multi-RHS triangular solve.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..sparse.csc import SymmetricCSC

__all__ = ["ServiceStats", "ServiceOverloaded", "SolveRequest", "RequestQueue"]


class ServiceOverloaded(RuntimeError):
    """Raised by ``submit`` when the bounded request queue stays full."""


@dataclass(frozen=True)
class ServiceStats:
    """Telemetry of one request (failures included): returned with its
    solution and recorded on the service's ``ExecutionTrace``.

    Attributes
    ----------
    request_id:
        Monotonic id assigned at submission (-1: refused by the spool
        front-end before the service saw it).
    tier:
        Cache-hit tier: ``cold`` / ``symbolic`` / ``refactor`` /
        ``factor`` (see ``docs/service.md``), or ``failed``.
    queue_wait:
        Wall-clock seconds spent queued before a worker picked the
        request up.
    factor_seconds:
        Simulated seconds of the factorization this request paid for
        (0.0 on the ``factor`` tier).
    solve_seconds:
        Simulated seconds of the triangular solve the request rode in
        (shared by all coalesced members).
    coalesced_width:
        Total right-hand-side columns in the stacked solve (1 = solo).
    residual:
        Relative residual of the returned solution (``None`` on a failed
        request).
    bytes_live:
        Service memory-ledger live bytes (all ranks and spaces) when the
        request completed.
    bytes_peak:
        Service memory-ledger peak bytes at completion — the high-water
        mark over everything the service has run so far.
    plan_hits:
        Plan replays this request's work rode through (refactorization
        and/or solve sweeps executed as kernel streams instead of DES
        runs).  Every run after a graph's first is a replay, in either
        plan mode; only resilient solvers never replay.
    plan_compile_ms:
        Wall-clock milliseconds spent compiling new plans on behalf of
        this request (first-run recording cost; 0.0 on warm paths).
    error / error_summary:
        Exception class name and one-line innermost-frame summary of a
        failed request; empty for successes.
    failure_class:
        Coarse failure taxonomy of a failed request: ``injected-fault``
        (resilience watchdog), ``checkpoint-io``, ``request-error`` or
        ``spool-error``; empty for successes.
    retries / recoveries:
        Trace-wide hardened-delivery retry and checkpoint-restart
        counters when the record was made (resilience runs only).
    """

    request_id: int
    tier: str
    queue_wait: float
    factor_seconds: float = 0.0
    solve_seconds: float = 0.0
    coalesced_width: int = 1
    residual: float | None = None
    bytes_live: int = 0
    bytes_peak: int = 0
    plan_hits: int = 0
    plan_compile_ms: float = 0.0
    error: str = ""
    error_summary: str = ""
    failure_class: str = ""
    retries: int = 0
    recoveries: int = 0

    @property
    def makespan(self) -> float:
        """Total simulated seconds the request paid for."""
        return self.factor_seconds + self.solve_seconds


@dataclass
class SolveRequest:
    """Internal envelope of one submitted solve."""

    request_id: int
    a: SymmetricCSC
    b: np.ndarray           # (n, ncols), always 2-D
    squeeze: bool           # original b was 1-D
    pattern_key: str
    values_key: str
    future: Future
    submit_time: float

    @property
    def ncols(self) -> int:
        """Right-hand-side columns this request contributes."""
        return self.b.shape[1]


class RequestQueue:
    """Bounded FIFO of :class:`SolveRequest` with coalescing steals."""

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._items: deque[SolveRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def put(self, req: SolveRequest, timeout: float | None = None) -> None:
        """Enqueue ``req``; block while full, raise on timeout or close."""
        with self._cond:
            if not self._cond.wait_for(
                    lambda: len(self._items) < self.maxsize or self._closed,
                    timeout):
                raise ServiceOverloaded(
                    f"request queue full ({self.maxsize} pending) for "
                    f"{timeout:.3g}s")
            if self._closed:
                raise RuntimeError("service is stopped; submission rejected")
            self._items.append(req)
            self._cond.notify_all()

    def get(self, timeout: float | None = None) -> SolveRequest | None:
        """Dequeue the oldest request.

        Returns ``None`` when the timeout elapses with nothing pending,
        or when the queue is closed and drained.
        """
        with self._cond:
            self._cond.wait_for(lambda: self._items or self._closed, timeout)
            if not self._items:
                return None
            req = self._items.popleft()
            self._cond.notify_all()
            return req

    def steal_matching(self, pattern_key: str, values_key: str,
                       max_columns: int) -> list[SolveRequest]:
        """Atomically remove pending requests on the same factor.

        Takes requests (oldest first) whose pattern *and* values keys
        match, until adding the next one would exceed ``max_columns``
        right-hand-side columns; the relative order of everything left
        behind is preserved.
        """
        taken: list[SolveRequest] = []
        cols = 0
        with self._cond:
            kept: deque[SolveRequest] = deque()
            for req in self._items:
                if (req.pattern_key == pattern_key
                        and req.values_key == values_key
                        and cols + req.ncols <= max_columns):
                    taken.append(req)
                    cols += req.ncols
                else:
                    kept.append(req)
            if taken:
                self._items = kept
                self._cond.notify_all()
        return taken

    def close(self) -> None:
        """Refuse new submissions; pending requests remain retrievable."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)
