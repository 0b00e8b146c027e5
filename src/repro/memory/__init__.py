"""Unified memory subsystem: pooled, ledgered, memory-kind-aware buffers.

Three pieces (see ``docs/memory.md``):

* :class:`~repro.memory.ledger.MemoryLedger` — per-rank, per-space byte
  accounting (live/peak/allocation counts, optional budgets) shared by
  every allocation layer, from factor storage to device segments to the
  service factor cache;
* :class:`~repro.memory.pool.BufferPool` — ledger-charged NumPy arena
  with per-shape free lists, so graph replays reuse memory instead of
  re-allocating while keeping results bit-identical to ``np.zeros``
  allocation;
* :func:`~repro.memory.layout.pack_slots` — the static layout of an
  execution context's workspace, whose slots share bytes only when
  their lives do not meet.
"""

from .ledger import (AccountSnapshot, MemoryBudgetExceeded, MemoryLedger,
                     MemorySnapshot)
from .layout import check_slots, pack_slots
from .pool import BufferPool

__all__ = ["AccountSnapshot", "BufferPool", "MemoryBudgetExceeded",
           "MemoryLedger", "MemorySnapshot", "check_slots", "pack_slots"]
