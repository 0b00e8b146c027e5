"""The buffer pool: ledger-charged NumPy arenas with free-list reuse.

Every dense buffer the solvers allocate — factor diag pools and panels,
execution-context workspaces (fan-in/fan-both aggregates, multifrontal
fronts and updates), solve right-hand sides — is taken from a
:class:`BufferPool` by its one owner and given back when that owner
releases it.  The pool

* charges every outstanding buffer to a shared
  :class:`~repro.memory.ledger.MemoryLedger` account (so live/peak
  watermarks are exact across layers), and
* keeps returned arrays on per-``(shape, dtype)`` free lists, so graph
  replays (the PEXSI repeated-factorization pattern) and the service's
  churn of factor storages reuse memory instead of re-allocating.

Bit-identity contract: ``take(..., zero=True)`` returns an array whose
contents equal ``np.zeros(shape)`` whether it came from the allocator or
the free list, so pooling changes buffer *placement*, never values — the
batched-flush == one-at-a-time determinism suite holds unchanged on pooled
storage.

Cached (free-listed) arrays are **not** live: ``give()`` releases the
ledger charge, so "live bytes return to zero after close" holds even
while the pool retains memory for reuse.  Thread safety mirrors the
ledger's (service worker threads share one pool across tenants).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .ledger import MemoryLedger

__all__ = ["BufferPool"]


class BufferPool:
    """Free-list arena charging one ``(rank, space)`` ledger account.

    Parameters
    ----------
    ledger:
        Shared accounting ledger; a private one is created when omitted
        (standalone contexts and tests).
    rank:
        Ledger rank the pool charges (host pools use the driver rank 0).
    space:
        Ledger space name, ``"host"`` for every CPU-side pool; device
        segments account through
        :class:`~repro.pgas.device.DeviceAllocator` instead.
    """

    def __init__(self, ledger: MemoryLedger | None = None, rank: int = 0,
                 space: str = "host") -> None:
        from ..core.tracing import mutex  # deferred: avoids import cycle

        self.ledger = ledger if ledger is not None else MemoryLedger()
        self.rank = rank
        self.space = space
        self._lock = mutex()
        # (shape, dtype.str) -> stack of returned arrays awaiting reuse.
        self._free: dict[tuple[tuple[int, ...], str], list[np.ndarray]] = {}
        # id(array) -> (array, label, nbytes) for every outstanding take.
        self._live: dict[int, tuple[np.ndarray, str, int]] = {}
        self.takes = 0
        self.reuses = 0
        self.cached_bytes = 0

    # -------------------------------------------------------- take / give

    def take(self, shape: Sequence[int], dtype: Any = np.float64,
             label: str = "buffer", zero: bool = True) -> np.ndarray:
        """Allocate (or reuse) a C-contiguous array of ``shape``.

        ``zero=True`` (default) guarantees ``np.zeros`` contents;
        ``zero=False`` skips the clear for buffers the caller overwrites
        wholesale (right-hand sides, Schur update outputs).  The ledger
        is charged *before* memory is produced, so a budget violation
        raises :class:`~repro.memory.ledger.MemoryBudgetExceeded` without
        allocating.
        """
        shp = tuple(int(d) for d in shape)
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shp, dtype=np.int64)) * dt.itemsize
        self.ledger.charge(self.rank, self.space, nbytes, label=label)
        key = (shp, dt.str)
        with self._lock:
            stack = self._free.get(key)
            arr = stack.pop() if stack else None
            if arr is not None:
                self.cached_bytes -= nbytes
                self.reuses += 1
            self.takes += 1
        if arr is None:
            arr = np.zeros(shp, dtype=dt) if zero else np.empty(shp, dtype=dt)
        elif zero:
            arr.fill(0)
        with self._lock:
            self._live[id(arr)] = (arr, label, nbytes)
        return arr

    def give(self, arr: np.ndarray) -> None:
        """Return an outstanding buffer to the free list.

        Giving back an array the pool does not own is a lifetime bug and
        raises ``KeyError`` (silently absorbing it would corrupt the
        ledger's live accounting).
        """
        with self._lock:
            entry = self._live.pop(id(arr), None)
            if entry is None:
                raise KeyError(
                    f"array of shape {getattr(arr, 'shape', '?')} was not "
                    "taken from this pool (or already given back)")
            _arr, label, nbytes = entry
            self._free.setdefault((arr.shape, arr.dtype.str), []).append(arr)
            self.cached_bytes += nbytes
        self.ledger.release(self.rank, self.space, nbytes, label=label)

    # ------------------------------------------------------------ queries

    def owns(self, arr: np.ndarray) -> bool:
        """Whether ``arr`` is currently outstanding from this pool."""
        with self._lock:
            return id(arr) in self._live

    def outstanding(self, label: str | None = None) -> int:
        """Number of live (taken, not given back) buffers."""
        with self._lock:
            return sum(1 for _a, lbl, _n in self._live.values()
                       if label is None or lbl == label)

    def live_bytes(self, label: str | None = None) -> int:
        """Bytes of live buffers, optionally restricted to one label."""
        with self._lock:
            return sum(n for _a, lbl, n in self._live.values()
                       if label is None or lbl == label)

    def trim(self) -> int:
        """Drop every cached (free-listed) array; returns bytes freed."""
        with self._lock:
            freed = self.cached_bytes
            self._free.clear()
            self.cached_bytes = 0
        return freed
