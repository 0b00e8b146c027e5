"""Typed resilience failures.

All resilience errors derive from :class:`ResilienceError`, itself a
``RuntimeError`` subclass so they flow through the service layer's
``REQUEST_ERRORS`` net (``service/service.py``) and are recorded as
failed ``ServiceStats`` (their ``failure_class`` names the leaf class)
rather than crashing the server.  The CLI maps
the two leaf classes to distinct exit codes (``repro solve``): injected
faults exit 3, checkpoint I/O failures exit 4.
"""

from __future__ import annotations

__all__ = ["ResilienceError", "RankUnresponsive", "CheckpointIOError",
           "FaultPlanError"]


class ResilienceError(RuntimeError):
    """Base class for all resilience-subsystem failures."""


class RankUnresponsive(ResilienceError):
    """A rank failed to acknowledge delivery within the retry budget.

    Raised by the hardened transport's DES-clocked watchdog when a
    signal exhausts ``max_retries`` without an ack, or by the engine
    when a crashed rank leaves tasks permanently unexecutable.
    """

    def __init__(self, rank: int, attempts: int = 0, seq: int | None = None,
                 detail: str = "") -> None:
        self.rank = rank
        self.attempts = attempts
        self.seq = seq
        msg = f"rank {rank} unresponsive"
        if attempts:
            msg += f" after {attempts} delivery attempt(s)"
        if seq is not None:
            msg += f" (seq {seq})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class CheckpointIOError(ResilienceError):
    """A checkpoint could not be written to or read from disk."""


class FaultPlanError(ValueError):
    """A fault plan specification is malformed."""
