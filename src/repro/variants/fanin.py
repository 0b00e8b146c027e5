"""Fan-in sparse Cholesky (Ashcraft's taxonomy, paper Section 2.3).

The paper classifies parallel Cholesky algorithms into *fan-out* (symPACK:
updates computed by the owner of the **target**, factor blocks broadcast),
*fan-in* (updates computed by the owner of the **source** column, partial
sums collected as *aggregate vectors*), and *fan-both*.  This module
implements the fan-in family member so the taxonomy can be measured, not
just cited:

* supernodes are distributed 1D-cyclically (the classical fan-in layout);
* the owner of source supernode ``s`` computes every update ``s -> t``
  locally, accumulating all of its updates to a remote ``t`` into one
  per-(rank, target) *aggregate buffer*;
* one aggregate message per (rank, target) pair replaces the fan-out
  broadcast of factor blocks — trading message count for the memory and
  latency of aggregate accumulation.

Numerics are identical to the fan-out solver (same symbolic phase, same
kernels); only where updates execute and what travels on the network
differ.  Aggregate buffers are slots of the graph context's workspace
(zeroed per run), so the built graph replays across factorizations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..core.base import CommonOptions, SolverBase
from ..core.offload import CPU_ONLY, OffloadPolicy
from ..core.tasks import OutMessage, SimTask, TaskGraph, TaskKind
from ..kernels import dense as kd
from ..kernels import flops as kf
from ..kernels.dispatch import KernelCall, flat_index

__all__ = ["FanInOptions", "FanInSolver"]

_F64 = 8


@dataclass(frozen=True)
class FanInOptions(CommonOptions):
    """Configuration of a fan-in run (CPU-only offload by default)."""

    offload: OffloadPolicy = field(default_factory=lambda: CPU_ONLY)


class FanInSolver(SolverBase):
    """Fan-in supernodal Cholesky on the simulated PGAS runtime.

    API is the shared :class:`~repro.core.base.SolverBase` surface
    (factorize / solve / residual_norm), so the family comparison bench
    treats all variants uniformly.
    """

    options_cls = FanInOptions

    def _owner(self, s: int) -> int:
        return s % self.options.nranks

    # ---------------------------------------------------------- task graph

    def _build_factor_graph(self) -> TaskGraph:
        """Fan-in DAG: source-owner updates + aggregate apply tasks."""
        analysis = self.analysis
        part = analysis.supernodes
        blocks = analysis.blocks
        ctx = self._exec_context()
        graph = TaskGraph(context=ctx)

        block_index = [
            {blk.tgt: bi for bi, blk in enumerate(blocks.blocks[t])}
            for t in range(part.nsup)
        ]

        # Aggregate buffers: one per (source rank, target supernode) pair
        # that has at least one remote update.  Shaped like the target's
        # full panel (diag + off-diag rows) for simple scatter-adds; each
        # is a workspace slot for the whole run, zeroed by fresh_run().
        def aggregate_for(rank: int, t: int) -> int:
            w = part.width(t)
            rows = part.structs[t].size
            ctx.reserve(("agg", rank, t), (w + rows, w))
            return (w + rows) * w

        panel_task: list[SimTask] = [None] * part.nsup  # type: ignore
        for s in range(part.nsup):
            w = part.width(s)
            m = part.structs[s].size

            panel_task[s] = graph.new_task(
                kind=TaskKind.FACTOR,
                rank=self._owner(s),
                op=kd.OP_TRSM,
                flops=kf.potrf_flops(w) + kf.trsm_flops(m, w),
                buffer_elems=max((m + w) * w, 1),
                operand_bytes=(m + w) * w * _F64,
                kernel=KernelCall("panel_factor", (s,)),
                label=f"PANEL[{s}]",
                priority=float(s),
            )

        # Update tasks on the OWNER OF THE SOURCE (the fan-in property),
        # plus per-(rank, target) apply tasks on the target owner.
        updates_into: dict[tuple[int, int], list[SimTask]] = defaultdict(list)
        for s in range(part.nsup):
            w = part.width(s)
            blist = blocks.blocks[s]
            src_rank = self._owner(s)
            for bj, col_blk in enumerate(blist):
                t = col_blk.tgt
                fc_t = part.first_col(t)
                w_t = part.width(t)
                col_pos = col_blk.rows - fc_t
                remote = self._owner(t) != src_rank
                if remote:
                    aggregate_for(src_rank, t)  # reserve the slot
                    agg_ref = ("scratch", ("agg", src_rank, t))
                actions = []
                flops = 0.0
                max_buf = 0
                for bi in range(bj, len(blist)):
                    row_blk = blist[bi]
                    j = row_blk.tgt
                    a_rows = ("blk", s, bi)
                    a_cols = ("blk", s, bj)
                    if j == t:
                        rpos = row_blk.rows - fc_t
                        flops += kf.syrk_flops(col_blk.nrows, w)
                        if remote:
                            actions.append(("syrk", agg_ref, a_cols, None,
                                            flat_index(rpos, col_pos, w_t),
                                            1.0))
                        else:
                            actions.append(("syrk", ("diag", t), a_cols, None,
                                            flat_index(rpos, col_pos, w_t),
                                            -1.0))
                    else:
                        tb = block_index[t].get(j)
                        if tb is None:
                            raise RuntimeError(
                                f"missing target block B[{j},{t}]")
                        tgt_blk = blocks.blocks[t][tb]
                        rpos = np.searchsorted(tgt_blk.rows, row_blk.rows)
                        flops += kf.gemm_flops(row_blk.nrows,
                                               col_blk.nrows, w)
                        if remote:
                            off = w_t + tgt_blk.offset
                            actions.append(("gemm", agg_ref, a_rows, a_cols,
                                            flat_index(off + rpos, col_pos,
                                                       w_t), 1.0))
                        else:
                            actions.append(("gemm", ("blk", t, tb), a_rows,
                                            a_cols,
                                            flat_index(rpos, col_pos, w_t),
                                            -1.0))
                    max_buf = max(max_buf, row_blk.nrows * w,
                                  col_blk.nrows * w)

                ut = graph.new_task(
                    kind=TaskKind.UPDATE,
                    rank=src_rank,
                    op=kd.OP_GEMM,
                    flops=flops,
                    buffer_elems=max_buf,
                    operand_bytes=2 * max_buf * _F64,
                    kernel=KernelCall("multi_update", (tuple(actions),)),
                    label=f"UPD[{s}->{t}]",
                    priority=float(s),
                )
                graph.add_dependency(panel_task[s], ut)
                updates_into[(src_rank, t)].append(ut)
                if not remote:
                    graph.add_dependency(ut, panel_task[t])

        # Aggregate send + apply: one message per (source rank, target).
        for (src_rank, t), tasks in sorted(updates_into.items()):
            if src_rank == self._owner(t):
                continue
            agg = aggregate_for(src_rank, t)

            apply_task = graph.new_task(
                kind=TaskKind.UPDATE,
                rank=self._owner(t),
                op=kd.OP_GEMM,
                flops=float(agg),  # an AXPY-like accumulation
                buffer_elems=agg,
                operand_bytes=agg * _F64,
                kernel=KernelCall("apply_panel",
                                  (t, ("scratch", ("agg", src_rank, t)))),
                label=f"APPLY[{src_rank}->{t}]",
                priority=float(t),
            )
            graph.add_dependency(apply_task, panel_task[t])
            # The aggregate leaves once every contributing local update is
            # folded in: the *last* update task carries the message, the
            # others feed a zero-byte local chain.
            sender = tasks[-1]
            for upstream in tasks[:-1]:
                graph.add_dependency(upstream, sender)
            sender.messages.append(OutMessage(
                dst_rank=self._owner(t), nbytes=agg * _F64,
                consumers=[apply_task.tid]))
            apply_task.deps += 1

        return graph
