"""Flush-stream recording: capture what a DES run actually executed.

The engine defers all numerics into the :class:`~repro.kernels.dispatch
.KernelExecutor` and flushes once per run, announcing each flush to the
session's ``_flush_hook`` before execution.  :class:`StreamRecorder`
chains onto that hook for the duration of one (or more) runs and
collects every flushed segment in executed (canonical ``(wave, tid)``)
order — the checkpointing runner may flush a run in several
wave-frontier cuts, so segments concatenate in execution order.  Any
previously-installed hook (the ``check_waves`` verifier, mutation-test
observers) keeps firing; recording is purely additive.
"""

from __future__ import annotations

from typing import Any

from ..kernels.dispatch import KernelCall

__all__ = ["StreamRecorder"]


class StreamRecorder:
    """Context manager capturing a session's flush streams verbatim."""

    def __init__(self, session: Any) -> None:
        self.session = session
        self.segments: list[list[tuple[KernelCall, int | None]]] = []
        self._prev: Any = None

    def __enter__(self) -> "StreamRecorder":
        prev = self.session._flush_hook
        self._prev = prev

        def hook(executor: Any,
                 submitted: list[tuple[KernelCall, int | None]],
                 executed: list[tuple[KernelCall, int | None]]) -> None:
            if prev is not None:
                prev(executor, submitted, executed)
            self.segments.append(list(executed))

        self.session._flush_hook = hook
        return self

    def __exit__(self, *exc: object) -> bool:
        self.session._flush_hook = self._prev
        return False

    def stream(self) -> list[tuple[KernelCall, int | None]]:
        """All captured segments concatenated in execution order."""
        return [entry for seg in self.segments for entry in seg]
