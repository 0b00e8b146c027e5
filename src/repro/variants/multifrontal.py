"""Multifrontal sparse Cholesky (MUMPS-like, paper Sections 2.3 and 5.3).

The paper cites MUMPS as the other well-known distributed solver — "based
on the multifrontal approach (a variant of right-looking)" — and excludes
it from GPU measurements because "it does not currently offer GPU
functionality".  This module implements that third algorithm family so it
can serve as a CPU-only comparison point and as an independent numeric
cross-check:

* one *frontal matrix* per supernode over the variables
  ``cols(s) ∪ struct(s)``;
* children's Schur complements are folded in by *extend-add*;
* a partial dense factorization eliminates the supernode's columns and
  produces the contribution block passed to the parent;
* parallelism follows the assembly tree (the supernodal elimination
  tree), with contribution blocks as the only messages — by default under
  a *proportional* subtree-to-rank mapping (Geist-Ng style), the
  distribution family MUMPS-like solvers use.

The eliminated columns are scattered into the shared
:class:`~repro.core.storage.FactorStorage`, so the factor is bit-comparable
with the fan-out solver's and the standard solve graphs apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.base import CommonOptions, SolverBase
from ..core.offload import CPU_ONLY, OffloadPolicy
from ..core.tasks import OutMessage, SimTask, TaskGraph, TaskKind
from ..kernels import dense as kd
from ..kernels import flops as kf
from ..kernels.dispatch import KernelCall
from ..memory import pack_slots
from ..sparse.csc import SymmetricCSC
from ..symbolic.analysis import SymbolicAnalysis

__all__ = ["MultifrontalOptions", "MultifrontalSolver",
           "proportional_supernode_mapping"]

_F64 = 8


def proportional_supernode_mapping(analysis: SymbolicAnalysis,
                                   nranks: int) -> np.ndarray:
    """Proportional (subtree-to-ranks) supernode mapping.

    Walks the supernodal elimination forest top-down, recursively splitting
    each node's rank interval among its children in proportion to their
    subtree workloads (dense partial-factorization flops).  Subtrees landing
    on a single rank run communication-free — the locality property that
    makes this the classic multifrontal distribution.
    """
    part = analysis.supernodes
    nsup = part.nsup
    # Per-supernode factorization work.
    work = np.empty(nsup)
    for s in range(nsup):
        w = part.width(s)
        m = part.structs[s].size
        work[s] = (kf.potrf_flops(w) + kf.trsm_flops(m, w)
                   + kf.syrk_flops(m, w) + 1.0)
    children: list[list[int]] = [[] for _ in range(nsup)]
    roots: list[int] = []
    for s in range(nsup):
        p = part.parent_sn[s]
        if p >= 0:
            children[p].append(s)
        else:
            roots.append(s)
    subtree = work.copy()
    for s in range(nsup):  # children have smaller indices than parents
        p = part.parent_sn[s]
        if p >= 0:
            subtree[p] += subtree[s]

    owner = np.zeros(nsup, dtype=np.int64)

    def assign(node: int, lo: int, hi: int) -> None:
        # Ranks [lo, hi) handle this subtree; the node itself goes to the
        # first rank of the interval.
        owner[node] = lo
        kids = children[node]
        if not kids or hi - lo <= 1:
            for c in kids:
                assign(c, lo, hi)
            return
        total = sum(subtree[c] for c in kids)
        cursor = float(lo)
        for c in sorted(kids, key=lambda c: -subtree[c]):
            share = (hi - lo) * subtree[c] / total
            c_lo = int(cursor)
            c_hi = max(c_lo + 1, int(round(cursor + share)))
            c_hi = min(c_hi, hi)
            assign(c, c_lo, c_hi)
            cursor += share
    # Split ranks across root subtrees proportionally as well.
    total_roots = sum(subtree[r] for r in roots)
    cursor = 0.0
    for r in sorted(roots, key=lambda r: -subtree[r]):
        share = nranks * subtree[r] / total_roots
        lo = int(cursor)
        hi = max(lo + 1, int(round(cursor + share)))
        hi = min(hi, nranks)
        assign(r, lo, hi)
        cursor += share
    return owner


@dataclass(frozen=True)
class MultifrontalOptions(CommonOptions):
    """Configuration of a multifrontal run (CPU-only, like MUMPS)."""

    offload: OffloadPolicy = field(default_factory=lambda: CPU_ONLY)
    mapping: str = "proportional"  # or "cyclic"


class MultifrontalSolver(SolverBase):
    """MUMPS-like multifrontal SPD solver on the simulated runtime."""

    options_cls = MultifrontalOptions

    def __init__(self, a: SymmetricCSC,
                 options: MultifrontalOptions | None = None, **kwargs):
        super().__init__(a, options, **kwargs)
        if self.options.mapping == "proportional":
            self._owner_of = proportional_supernode_mapping(
                self.analysis, self.options.nranks)
        elif self.options.mapping == "cyclic":
            self._owner_of = (np.arange(self.analysis.nsup, dtype=np.int64)
                              % self.options.nranks)
        else:
            raise ValueError(
                f"unknown multifrontal mapping {self.options.mapping!r}")

    def _prepare_storage(self) -> None:
        """Blank the pre-scattered A entries before every factorization.

        The frontal assembly overwrites diag blocks and panels wholesale;
        leaving the scattered entries in place would double-count them.
        """
        for s in range(self.analysis.nsup):
            self.storage.diag[s][:, :] = 0.0
            self.storage.panels[s][:, :] = 0.0

    # ---------------------------------------------------------- task graph

    def _build_factor_graph(self) -> TaskGraph:
        """Assembly-tree DAG of ``frontal`` tasks; contribution blocks are
        the only messages.

        The context's workspace holds one front region, sized for the
        largest front (fronts are private to their call), and one slot
        per update matrix, live from its supernode's front to its
        parent's; :func:`~repro.memory.pack_slots` lets updates whose
        lives cannot meet share bytes.
        """
        analysis = self.analysis
        part = analysis.supernodes
        ctx = self._exec_context()
        graph = TaskGraph(context=ctx)

        front_task: list[SimTask] = [None] * part.nsup  # type: ignore
        children: list[list[int]] = [[] for _ in range(part.nsup)]
        for s in range(part.nsup):
            p = part.parent_sn[s]
            if p >= 0:
                children[p].append(s)

        for s in range(part.nsup):
            w = part.width(s)
            m = part.structs[s].size

            flops = (kf.potrf_flops(w) + kf.trsm_flops(m, w)
                     + kf.syrk_flops(m, w))
            front_task[s] = graph.new_task(
                kind=TaskKind.FACTOR,
                rank=int(self._owner_of[s]),
                op=kd.OP_POTRF,
                flops=flops + (w + m) ** 2,  # + assembly/extend-add cost
                buffer_elems=(w + m) ** 2,
                operand_bytes=(w + m) ** 2 * _F64,
                kernel=KernelCall("frontal", (s, tuple(children[s]))),
                label=f"FRONT[{s}]",
                priority=float(s),
            )

        # Assembly-tree dependencies; contribution blocks are the messages.
        for s in range(part.nsup):
            p = part.parent_sn[s]
            if p < 0:
                continue
            child_t, parent_t = front_task[s], front_task[p]
            m = part.structs[s].size
            nbytes = m * m * _F64
            if child_t.rank == parent_t.rank:
                graph.add_dependency(child_t, parent_t)
            else:
                child_t.messages.append(OutMessage(
                    dst_rank=parent_t.rank, nbytes=nbytes,
                    consumers=[parent_t.tid]))
                parent_t.deps += 1

        m = part.struct_sizes
        front = int(((np.diff(part.sn_start) + m) ** 2).max())
        ctx.reserve("front", (front,))
        # An update (every supernode with rows below it has one) is
        # written by its supernode's front and read by its parent's.
        updates = np.flatnonzero(part.parent_sn >= 0)
        offsets, _total = pack_slots(m[updates] ** 2, updates,
                                     part.parent_sn[updates], part.parent_sn)
        for s, off in zip(updates.tolist(), offsets.tolist()):
            ctx.reserve(("update", s), (m[s], m[s]), offset=front + off)
        return graph
