"""Fan-both sparse Cholesky (paper Section 2.3; Jacquelin et al. [15]).

symPACK descends from an asynchronous task-based *fan-both* solver (the
paper's reference [15], explicitly credited in its acknowledgements).  The
fan-both family generalises fan-out and fan-in: updates may be computed on
*any* processor according to a computation map, and both kinds of message
exist — *factors* (as in fan-out) and *aggregate vectors* (as in fan-in).

This implementation uses the natural 2D computation map: update
``U[j,s,t]`` executes on ``map(j, s)`` — the owner of the *source row
block* — so each factor block never moves (its owner computes every update
that reads it as the row operand), the column operand ``B[t,s]`` fans out
along its block row, and contributions fan in to the target's owner as
per-(rank, target-block) aggregates.  Setting the process grid to ``1 x P``
degenerates to fan-in; computing updates at the target instead recovers
fan-out — the generalisation the taxonomy describes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..core.base import CommonOptions, SolverBase
from ..core.mapping import ProcessMap, make_map
from ..core.offload import CPU_ONLY, OffloadPolicy
from ..core.tasks import OutMessage, SimTask, TaskGraph, TaskKind
from ..kernels import dense as kd
from ..kernels import flops as kf
from ..kernels.dispatch import KernelCall, flat_index
from ..sparse.csc import SymmetricCSC

__all__ = ["FanBothOptions", "FanBothSolver"]

_F64 = 8


@dataclass(frozen=True)
class FanBothOptions(CommonOptions):
    """Configuration of a fan-both run (CPU-only offload by default)."""

    offload: OffloadPolicy = field(default_factory=lambda: CPU_ONLY)
    mapping: str = "2d"


class FanBothSolver(SolverBase):
    """Fan-both supernodal Cholesky with a 2D computation map."""

    options_cls = FanBothOptions

    def __init__(self, a: SymmetricCSC, options: FanBothOptions | None = None,
                 **kwargs):
        super().__init__(a, options, **kwargs)
        self.pmap: ProcessMap = make_map(self.options.nranks,
                                         self.options.mapping)

    def _solve_pmap(self) -> ProcessMap:
        """Triangular solves reuse the fan-both computation map."""
        return self.pmap

    # ---------------------------------------------------------- task graph

    def _build_factor_graph(self) -> TaskGraph:
        """Fan-both DAG: factor fan-out plus aggregate fan-in messages."""
        analysis = self.analysis
        part = analysis.supernodes
        blocks = analysis.blocks
        pmap = self.pmap
        ctx = self._exec_context()
        graph = TaskGraph(context=ctx)

        block_index = [
            {blk.tgt: bi for bi, blk in enumerate(blocks.blocks[t])}
            for t in range(part.nsup)
        ]

        d_task: list[SimTask] = [None] * part.nsup  # type: ignore
        f_task: dict[tuple[int, int], SimTask] = {}

        for s in range(part.nsup):
            w = part.width(s)

            d_task[s] = graph.new_task(
                kind=TaskKind.DIAG, rank=pmap(s, s), op=kd.OP_POTRF,
                flops=kf.potrf_flops(w), buffer_elems=w * w,
                operand_bytes=w * w * _F64,
                kernel=KernelCall("potrf_diag", (s,)), label=f"D[{s}]",
                priority=float(s))

            for bi, blk in enumerate(blocks.blocks[s]):
                m = blk.nrows

                f_task[(s, bi)] = graph.new_task(
                    kind=TaskKind.FACTOR, rank=pmap(blk.tgt, s),
                    op=kd.OP_TRSM, flops=kf.trsm_flops(m, w),
                    buffer_elems=max(m * w, w * w),
                    operand_bytes=(m * w + w * w) * _F64,
                    kernel=KernelCall("trsm_block", (s, bi)),
                    label=f"F[{blk.tgt},{s}]", priority=float(s))

        # Aggregate buffers per (computing rank, target supernode, target
        # block index or -1 for the diagonal): workspace slots for the
        # whole run, zeroed by fresh_run() for graph replay.
        def aggregate_for(rank: int, t: int, tb: int) -> int:
            rows = part.width(t) if tb < 0 else blocks.blocks[t][tb].nrows
            ctx.reserve(("agg", rank, t, tb), (rows, part.width(t)))
            return rows * part.width(t)

        d_consumers: list[dict[int, list[int]]] = [defaultdict(list)
                                                   for _ in range(part.nsup)]
        f_consumers: dict[tuple[int, int], dict[int, list[int]]] = {
            k: defaultdict(list) for k in f_task}
        # Update tasks contributing to each aggregate.
        agg_updates: dict[tuple[int, int, int], list[SimTask]] = defaultdict(list)

        for s in range(part.nsup):
            for bi, blk in enumerate(blocks.blocks[s]):
                ft = f_task[(s, bi)]
                if ft.rank == d_task[s].rank:
                    graph.add_dependency(d_task[s], ft)
                else:
                    d_consumers[s][ft.rank].append(ft.tid)
                    ft.deps += 1

        for s in range(part.nsup):
            w = part.width(s)
            blist = blocks.blocks[s]
            for bj, col_blk in enumerate(blist):
                t = col_blk.tgt
                fc_t = part.first_col(t)
                w_t = part.width(t)
                col_pos = col_blk.rows - fc_t
                for bi in range(bj, len(blist)):
                    row_blk = blist[bi]
                    j = row_blk.tgt
                    a_rows = ("blk", s, bi)
                    a_cols = ("blk", s, bj)
                    compute_rank = pmap(j, s)  # fan-both computation map
                    if j == t:
                        tb = -1
                        tgt_rank = pmap(t, t)
                        rpos = row_blk.rows - fc_t
                        flops = kf.syrk_flops(col_blk.nrows, w)
                    else:
                        tb = block_index[t].get(j)
                        if tb is None:
                            raise RuntimeError(
                                f"missing target block B[{j},{t}]")
                        tgt_blk = blocks.blocks[t][tb]
                        tgt_rank = pmap(j, t)
                        rpos = np.searchsorted(tgt_blk.rows, row_blk.rows)
                        flops = kf.gemm_flops(row_blk.nrows,
                                              col_blk.nrows, w)

                    local = compute_rank == tgt_rank
                    if local:
                        tgt_ref = (("diag", t) if tb < 0
                                   else ("blk", t, tb))
                        sign = -1.0
                    else:
                        aggregate_for(compute_rank, t, tb)
                        tgt_ref = ("scratch", ("agg", compute_rank, t, tb))
                        sign = 1.0

                    flat = flat_index(rpos, col_pos, w_t)
                    if tb < 0:
                        kernel = KernelCall(
                            "syrk_sub", (tgt_ref, a_cols, flat, sign))
                    else:
                        kernel = KernelCall(
                            "gemm_sub",
                            (tgt_ref, a_rows, a_cols, flat, sign))

                    ut = graph.new_task(
                        kind=TaskKind.UPDATE, rank=compute_rank,
                        op=kd.OP_SYRK if tb < 0 else kd.OP_GEMM,
                        flops=flops,
                        buffer_elems=max(row_blk.nrows * w,
                                         col_blk.nrows * w),
                        operand_bytes=2 * max(row_blk.nrows,
                                              col_blk.nrows) * w * _F64,
                        kernel=kernel, label=f"U[{j},{s},{t}]",
                        priority=float(s))

                    # Source dependencies (factor messages, fan-out style).
                    for src_bi in {bi, bj}:
                        src_ft = f_task[(s, src_bi)]
                        if src_ft.rank == ut.rank:
                            graph.add_dependency(src_ft, ut)
                        else:
                            f_consumers[(s, src_bi)][ut.rank].append(ut.tid)
                            ut.deps += 1

                    if local:
                        downstream = (d_task[t] if tb < 0
                                      else f_task[(t, tb)])
                        graph.add_dependency(ut, downstream)
                    else:
                        agg_updates[(compute_rank, t, tb)].append(ut)

        # Aggregate sends (fan-in style messages).
        for (rank, t, tb), tasks in sorted(agg_updates.items()):
            agg = aggregate_for(rank, t, tb)
            downstream = d_task[t] if tb < 0 else f_task[(t, tb)]
            tgt_ref = ("diag", t) if tb < 0 else ("blk", t, tb)

            apply_task = graph.new_task(
                kind=TaskKind.UPDATE, rank=downstream.rank, op=kd.OP_GEMM,
                flops=float(agg), buffer_elems=agg,
                operand_bytes=agg * _F64,
                kernel=KernelCall(
                    "axpy_sub", (tgt_ref, ("scratch", ("agg", rank, t, tb)))),
                label=f"APPLY[{rank}->{t},{tb}]", priority=float(t))
            graph.add_dependency(apply_task, downstream)
            sender = tasks[-1]
            for upstream in tasks[:-1]:
                graph.add_dependency(upstream, sender)
            sender.messages.append(OutMessage(
                dst_rank=downstream.rank, nbytes=agg * _F64,
                consumers=[apply_task.tid]))
            apply_task.deps += 1

        # Assemble the factor messages (D and F fan-out).
        for s in range(part.nsup):
            w = part.width(s)
            for dst_rank, consumers in sorted(d_consumers[s].items()):
                d_task[s].messages.append(OutMessage(
                    dst_rank=dst_rank, nbytes=w * w * _F64,
                    consumers=consumers))
        for (s, bi), per_rank in f_consumers.items():
            blk = blocks.blocks[s][bi]
            nbytes = blk.nrows * part.width(s) * _F64
            for dst_rank, consumers in sorted(per_rank.items()):
                f_task[(s, bi)].messages.append(OutMessage(
                    dst_rank=dst_rank, nbytes=nbytes, consumers=consumers))
        return graph
