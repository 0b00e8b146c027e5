"""Block partitioning of supernodes (paper Algorithm 2, Figure 1).

Each supernode's off-diagonal rows are split into *blocks*: maximal runs of
rows that fall inside a single (target) supernode's column range.  A block
``B[j, k]`` lives in supernode ``k`` and carries rows belonging to
supernode ``j`` — exactly the paper's notation, where ``j`` "denotes the
supernode that contains the diagonal entries of the rows of the block".

Blocks are the unit of computation (one dense BLAS-3 call each) and of
communication (one message each) in the fan-out algorithm.

:func:`partition_blocks` computes every supernode's run boundaries in one
vectorised pass over the concatenated structures (the original
per-supernode loop is kept as a bit-identity test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .supernodes import SupernodePartition

__all__ = ["Block", "BlockPartition", "partition_blocks"]


@dataclass(frozen=True)
class Block:
    """A dense off-diagonal block ``B[tgt, src]`` of the factor.

    Attributes
    ----------
    src:
        Supernode whose columns the block occupies (``k`` in ``B[j, k]``).
    tgt:
        Supernode containing the block's rows (``j`` in ``B[j, k]``).
    rows:
        Global row indices covered by the block (sorted; all inside
        ``tgt``'s column range).
    offset:
        Offset of the block's first row inside ``src``'s off-diagonal row
        list (dense panel row coordinates, diagonal block excluded).
    """

    src: int
    tgt: int
    rows: np.ndarray
    offset: int

    @property
    def nrows(self) -> int:
        """Number of rows of the block."""
        return self.rows.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Block(tgt={self.tgt}, src={self.src}, nrows={self.nrows})"


@dataclass
class BlockPartition:
    """All blocks of the factor, indexed by source supernode.

    Attributes
    ----------
    part:
        The supernode partition the blocks refine.
    blocks:
        ``blocks[k]`` lists the off-diagonal blocks of supernode ``k`` in
        ascending target order (row order).  Diagonal blocks are implicit:
        every supernode has exactly one.
    """

    part: SupernodePartition
    blocks: list[list[Block]]
    _n_blocks: int | None = field(default=None, repr=False, compare=False)
    _index: dict[tuple[int, int], Block] | None = field(
        default=None, repr=False, compare=False)

    @property
    def nsup(self) -> int:
        """Number of supernodes."""
        return self.part.nsup

    def n_blocks(self) -> int:
        """Total number of blocks, diagonal blocks included (memoised)."""
        if self._n_blocks is None:
            self._n_blocks = self.nsup + sum(len(b) for b in self.blocks)
        return self._n_blocks

    def block_of(self, k: int, tgt: int) -> Block:
        """The block of supernode ``k`` targeting supernode ``tgt``.

        Backed by a ``(src, tgt)`` dictionary built on first use — the
        runtime calls this per update message, so a linear
        scan over ``blocks[k]`` was quadratic in dense spots.
        """
        if self._index is None:
            self._index = {(b.src, b.tgt): b
                           for per_src in self.blocks for b in per_src}
        block = self._index.get((k, tgt))
        if block is None:
            raise KeyError(f"supernode {k} has no block targeting {tgt}")
        return block

    def targets(self, k: int) -> list[int]:
        """Target supernodes of ``k``'s off-diagonal blocks, ascending."""
        return [b.tgt for b in self.blocks[k]]


def partition_blocks(part: SupernodePartition) -> BlockPartition:
    """Split every supernode's rows into blocks by target supernode.

    Implements paper Algorithm 2: for supernode ``k``, rows of its structure
    that fall within supernode ``j``'s diagonal range form block
    ``B[j, k]``.  Because supernodes are contiguous column ranges and the
    structure is sorted, blocks are maximal contiguous runs of the
    structure grouped by ``sn_of_col``.

    All run boundaries are found in one vectorised pass over the
    concatenated structures; only the ``Block`` construction itself
    remains a (cheap) Python loop.
    """
    nsup = part.nsup
    blocks: list[list[Block]] = [[] for _ in range(nsup)]
    if nsup == 0:
        return BlockPartition(part=part, blocks=blocks)
    structs = part.structs
    sptr = np.zeros(nsup + 1, dtype=np.int64)
    np.cumsum(part.struct_sizes, out=sptr[1:])
    if sptr[-1] == 0:
        return BlockPartition(part=part, blocks=blocks)

    cat = np.concatenate(structs)
    owner = part.sn_of_col[cat]
    # A block starts where the owning supernode changes or a source
    # supernode's structure begins.
    cut = np.flatnonzero(np.diff(owner)) + 1
    bounds = np.unique(np.concatenate([sptr, cut]))
    starts = bounds[:-1]
    ends = bounds[1:]
    src = np.searchsorted(sptr, starts, side="right") - 1
    tgt = owner[starts]
    offset = starts - sptr[src]
    nrows = ends - starts
    for k, t, o, m in zip(src.tolist(), tgt.tolist(),
                          offset.tolist(), nrows.tolist()):
        blocks[k].append(Block(src=k, tgt=t, rows=structs[k][o:o + m], offset=o))
    return BlockPartition(part=part, blocks=blocks)
