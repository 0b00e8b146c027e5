"""Per-plan buffer arena: zero-allocation warm replays.

The :class:`~repro.memory.BufferPool` charges its ledger on *every*
``take`` — including free-list hits — because a take is a liveness
event the accounting must see.  Compiled-plan replays have a stronger
invariant available: the plan's kernel-held buffer demand (multifrontal
fronts, Schur updates) is **identical on every replay**, because the
replay executes a frozen stream in one fixed order — the demand is a
pure function of the stream.  A :class:`PlanArena` exploits that by
retaining the buffers between replays: the first replay faults them in
from the pool (charged once, like any run), and every later replay
serves the same shapes from the arena cache with *zero* pool takes and
zero ledger traffic — the "warm plan replay performs no allocator
growth" guarantee pinned in ``tests/memory/``.

Arena-cached arrays stay ledger-charged (they are retained, not free),
so live-byte truth is preserved; :meth:`retire` drains everything back
to the pool when the owning solver closes, returning the ledger to its
pre-plan level.  Thread-safe via :func:`repro.core.tracing.mutex` —
service worker threads may replay and retire solvers sharing one pool.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..memory import BufferPool

__all__ = ["PlanArena"]


class PlanArena:
    """Retained-buffer cache layered over a ledgered :class:`BufferPool`."""

    def __init__(self, pool: BufferPool) -> None:
        from ..core.tracing import mutex  # deferred: avoids import cycle

        self.pool = pool
        self._lock = mutex()
        # (shape, dtype.str) -> stack of retained arrays awaiting reuse.
        self._cache: dict[tuple[tuple[int, ...], str],
                          list[np.ndarray]] = {}
        # id(array) -> cache key for arrays currently handed out.
        self._out: dict[int, tuple[tuple[int, ...], str]] = {}
        self.hits = 0        # takes served from the retained cache
        self.faults = 0      # takes that fell through to the pool
        self.retained = 0    # arrays currently cached (idle)

    def take(self, shape: Sequence[int], dtype: Any = np.float64,
             label: str = "kernel", zero: bool = True) -> np.ndarray:
        """Serve a kernel buffer, preferring the retained cache.

        A cache hit performs no pool take and no ledger charge; the
        array was charged when the arena first faulted it in and has
        stayed charged since.  ``zero=True`` restores ``np.zeros``
        contents on hits, preserving the pool's bit-identity contract.
        """
        shp = tuple(int(d) for d in shape)
        key = (shp, np.dtype(dtype).str)
        with self._lock:
            stack = self._cache.get(key)
            arr = stack.pop() if stack else None
            if arr is not None:
                self.hits += 1
                self.retained -= 1
        if arr is None:
            arr = self.pool.take(shp, dtype=dtype, label=label, zero=zero)
            with self._lock:
                self.faults += 1
        elif zero:
            arr.fill(0)
        with self._lock:
            self._out[id(arr)] = key
        return arr

    def give(self, arr: np.ndarray) -> None:
        """Retain an arena buffer for the next replay.

        Arrays the arena did not hand out fall through to the pool
        (mixed-lifetime callers stay correct if the arena is installed
        mid-run).
        """
        with self._lock:
            key = self._out.pop(id(arr), None)
            if key is not None:
                self._cache.setdefault(key, []).append(arr)
                self.retained += 1
                return
        self.pool.give(arr)

    def retire(self) -> int:
        """Return every retained buffer to the pool; the arena empties.

        Called when the owning solver closes (and by the service when a
        cached factor entry is evicted), so the ledger's live bytes
        drain back to the pre-plan level.  Returns the number of arrays
        released.  Outstanding (handed-out) buffers at retire time are a
        lifetime bug and raise.
        """
        with self._lock:
            if self._out:
                shapes = [key[0] for key in self._out.values()]
                raise RuntimeError(
                    f"plan arena retired with {len(shapes)} buffer(s) "
                    f"still handed out (shapes {shapes[:5]})")
            drained = [arr for stack in self._cache.values()
                       for arr in stack]
            self._cache.clear()
            self.retained = 0
        for arr in drained:
            self.pool.give(arr)
        return len(drained)
