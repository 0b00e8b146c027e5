"""The factor tier of the solve service.

:class:`FactorCache` maps pattern key → :class:`FactorEntry` holding a
live, factorized solver.  Factors are the memory hog (dense supernode
panels), so this tier enforces a configurable *byte* budget with LRU
eviction and exact eviction accounting.  Evicting a factor never loses
symbolic work: the pattern stays in the service's symbolic tier (its
``AnalysisCache``), so its next request re-enters at ``symbolic``.

The cache is thread-safe; entry-level serialization (one worker per
factor at a time) is the service's job via :attr:`FactorEntry.lock`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..memory import MemoryLedger

__all__ = ["FactorCache", "FactorEntry"]


@dataclass
class FactorEntry:
    """One live factorized solver held by the factor cache.

    ``lock`` serializes workers on the entry: a solver's storage and task
    graphs are shared mutable state, so only one request may factorize or
    solve through it at a time (the coalescing path stacks concurrent
    same-key solves into one multi-RHS run instead).
    """

    pattern_key: str
    solver: object
    values_key: str
    nbytes: int
    lock: threading.Lock = field(default_factory=threading.Lock,
                                 repr=False, compare=False)
    # Set (under ``lock``) when the service retires an evicted entry and
    # releases its solver's pooled buffers; a worker that raced the
    # eviction re-materializes instead of using the dead solver.
    closed: bool = False


class FactorCache:
    """LRU cache of factorized solvers under a memory budget.

    Parameters
    ----------
    budget_bytes:
        Soft ceiling on the summed ``FactorStorage.factor_bytes()`` of
        the cached entries.  The most recently inserted entry is always
        retained even if it alone exceeds the budget (otherwise a single
        large factor would make every request on it a miss); everything
        beyond that is evicted least-recently-used.
    ledger:
        Optional shared :class:`~repro.memory.MemoryLedger`: the factor
        storages behind the entries charge it under label ``"factor"``,
        making :meth:`reconcile` a cross-check of the cache's own byte
        accounting against allocation-layer truth.
    """

    def __init__(self, budget_bytes: int,
                 ledger: MemoryLedger | None = None):
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be > 0, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.ledger = ledger
        self._entries: OrderedDict[str, FactorEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.evictions = 0
        self.bytes_evicted = 0

    def get(self, key: str) -> FactorEntry | None:
        """The entry for ``key`` (refreshing its LRU slot), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, entry: FactorEntry) -> list[FactorEntry]:
        """Insert ``entry``; returns the entries displaced by it.

        The returned list holds budget evictions plus (first, if present)
        a same-key entry ``entry`` replaced; the caller owns retiring
        them — their solvers hold live pooled buffers until closed.
        Same-key replacement is not counted in ``evictions``.
        """
        evicted: list[FactorEntry] = []
        with self._lock:
            old = self._entries.pop(entry.pattern_key, None)
            if old is not None:
                self.current_bytes -= old.nbytes
                evicted.append(old)
            self._entries[entry.pattern_key] = entry
            self.current_bytes += entry.nbytes
            while self.current_bytes > self.budget_bytes and len(self._entries) > 1:
                _, victim = self._entries.popitem(last=False)
                self.current_bytes -= victim.nbytes
                self.evictions += 1
                self.bytes_evicted += victim.nbytes
                evicted.append(victim)
        return evicted

    def pop_all(self) -> list[FactorEntry]:
        """Remove and return every entry (service shutdown reclamation).

        Not counted as evictions — nothing was displaced by pressure.
        """
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
            self.current_bytes = 0
        return entries

    def ledger_live(self) -> int | None:
        """Live ``"factor"``-labelled bytes on the shared ledger.

        ``None`` without a ledger.  Covers every un-released factor
        storage charged to the ledger — cached entries plus any evicted
        entry whose retire is still in flight.
        """
        if self.ledger is None:
            return None
        return self.ledger.live_label("factor")

    def reconcile(self) -> int:
        """``ledger_live() - current_bytes``: bytes the cache accounts
        for that the allocation layer does not agree on.

        Zero once all retired entries finished releasing; a persistent
        non-zero value is a leak (an evicted solver never closed) or
        double-release.  Returns 0 without a ledger.
        """
        live = self.ledger_live()
        if live is None:
            return 0
        with self._lock:
            return live - self.current_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
