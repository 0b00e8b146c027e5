"""Static workspace layout: slots that share bytes only when their lives
cannot meet.

A slot is written by one task of a forest of tasks (each task runs after
its children) and read last by an ancestor-or-self of its writer: a
multifrontal update matrix is written by its supernode's front and read
by its parent's.  Slot ``i``'s life is over before slot ``j``'s begins,
in every order that runs children first, iff ``j``'s writer is an
ancestor-or-self of ``i``'s reader (a task that reads one slot and writes
another reads first).  Such slots may occupy the same elements; every
other pair may be live at once (two siblings' updates, say, in either
order within a wave) and must not.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["pack_slots", "check_slots"]


def _apart(writers: Sequence[int], readers: Sequence[int],
           parent: Sequence[int]) -> Callable[[int], np.ndarray]:
    """``apart(i)``: mask of the slots whose lives cannot meet ``i``'s.

    ``parent`` is the forest; parents have larger indices than children.
    """
    parent = np.asarray(parent, dtype=np.int64)
    size = np.ones(parent.size, dtype=np.int64)  # subtree sizes
    for s in range(parent.size):
        if parent[s] >= 0:
            size[parent[s]] += size[s]
    pre = np.zeros(parent.size, dtype=np.int64)  # preorder positions
    cursor = np.zeros(parent.size + 1, dtype=np.int64)  # [-1]: roots
    for s in range(parent.size - 1, -1, -1):
        pre[s] = cursor[parent[s]]
        cursor[parent[s]] += size[s]
        cursor[s] = pre[s] + 1
    w = pre[np.asarray(writers, dtype=np.int64)]
    r = pre[np.asarray(readers, dtype=np.int64)]
    end = w + size[np.asarray(writers, dtype=np.int64)]
    # x is an ancestor-or-self of y iff pre[x] <= pre[y] < pre[x] + size[x]
    return lambda i: (((w <= r[i]) & (r[i] < end))
                      | ((w[i] <= r) & (r < end[i])))


def pack_slots(sizes: Sequence[int], writers: Sequence[int],
               readers: Sequence[int], parent: Sequence[int]
               ) -> tuple[np.ndarray, int]:
    """Greedy-by-size offsets (in elements) and the total extent.

    Slots are placed largest first (ties by index), each at the lowest
    offset that overlaps no placed slot whose life can meet its own.
    The result is checked by :func:`check_slots` before it is returned.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    apart = _apart(writers, readers, parent)
    offsets = np.zeros(sizes.size, dtype=np.int64)
    placed = np.zeros(sizes.size, dtype=bool)
    for i in np.lexsort((np.arange(sizes.size), -sizes)):
        clash = np.flatnonzero(placed & ~apart(i))
        if clash.size:
            order = np.argsort(offsets[clash], kind="stable")
            starts = offsets[clash][order]
            reach = np.maximum.accumulate(starts + sizes[clash][order])
            before = np.concatenate(([0], reach[:-1]))
            gaps = np.flatnonzero(starts - before >= sizes[i])
            offsets[i] = before[gaps[0]] if gaps.size else reach[-1]
        placed[i] = True
    check_slots(offsets, sizes, writers, readers, parent)
    return offsets, int((offsets + sizes).max(initial=0))


def check_slots(offsets: Sequence[int], sizes: Sequence[int],
                writers: Sequence[int], readers: Sequence[int],
                parent: Sequence[int]) -> None:
    """Raise ``ValueError`` if two slots whose lives can meet overlap."""
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    apart = _apart(writers, readers, parent)
    for i in range(offsets.size):
        bad = np.flatnonzero((offsets < offsets[i] + sizes[i])
                             & (offsets[i] < offsets + sizes) & ~apart(i))
        bad = bad[bad != i]
        if bad.size:
            j = int(bad[0])
            raise ValueError(
                f"workspace slots {i} (elements {offsets[i]}+{sizes[i]}) "
                f"and {j} (elements {offsets[j]}+{sizes[j]}) overlap while "
                "both can be live")
