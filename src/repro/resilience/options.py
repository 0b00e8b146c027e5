"""Resilience configuration attached to ``CommonOptions``.

Kept import-light (stdlib + ``faults``, which needs only numpy) so
``core/base.py`` can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .faults import FaultPlan

__all__ = ["ResilienceOptions"]


@dataclass(frozen=True)
class ResilienceOptions:
    """Per-session resilience policy.

    hardened
        Route signal-RPCs through the sequence-numbered, acknowledged
        :class:`~repro.resilience.delivery.ReliableTransport` with
        idempotent dedup and DES-clocked retry.
    faults
        Optional :class:`FaultPlan` injected into the PGAS runtime for
        the first ``fault_runs`` session runs (the factorization runs);
        subsequent runs (triangular solves) execute fault-free.
    checkpoint_every
        Checkpoint cadence in wave-frontier advance (0 disables
        checkpointing; a rank crash then propagates as
        ``RankUnresponsive``).  An initial frontier ``-1`` checkpoint is
        always taken when checkpointing is enabled, so restart from
        "before any task" is well-defined.
    checkpoint_dir
        If set, checkpoints are also persisted to disk via
        ``core/serialization.py`` (``CheckpointIOError`` on failure).
    max_retries / retry_timeout / backoff / jitter / seed
        Hardened-delivery watchdog policy: attempt ``k`` is retried
        after ``retry_timeout * backoff**(k-1) * (1 + jitter*u)`` with
        ``u`` drawn from a seeded per-(src, dst, seq, attempt) stream —
        all in simulated seconds, never wall-clock.
    max_restarts
        How many checkpoint restarts a single run may consume before a
        ``RankUnresponsive`` propagates to the caller.
    """

    hardened: bool = True
    faults: FaultPlan | None = None
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    max_retries: int = 4
    retry_timeout: float = 1e-4
    backoff: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    max_restarts: int = 2
    fault_runs: int = 1

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.retry_timeout <= 0.0:
            raise ValueError("retry_timeout must be > 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.jitter < 0.0:
            raise ValueError("jitter must be >= 0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.fault_runs < 0:
            raise ValueError("fault_runs must be >= 0")
