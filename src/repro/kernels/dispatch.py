"""Declarative kernel dispatch: ``KernelCall`` descriptors + batch executor.

Instead of burying numerics in per-task Python closures, every
:class:`~repro.core.tasks.SimTask` carries a :class:`KernelCall` — a named
operation plus *symbolic* operand references (``("diag", s)``,
``("blk", s, bi)``, ``("scratch", key)``, ``("rhs",)``) that are resolved
against an :class:`ExecContext` at execution time.  This buys three things
the closure design could not provide:

* **re-runnable graphs** — a built :class:`~repro.core.tasks.TaskGraph`
  holds no baked-in array pointers beyond the context, so resetting the
  context (``fresh_run`` + ``FactorStorage.reset``) replays the same graph
  (the PEXSI repeated-factorization pattern);
* **batched execution** — the engine *defers* numerics: a run's kernels
  execute as one stream once the simulation drains, with
  maximal runs of consecutive same-op calls executed as one batch
  (stacked GEMM/SYRK products when operand shapes agree), cutting Python
  per-call overhead on the hot update path while keeping the scatter
  order — and therefore the floating-point results — identical to
  one-at-a-time execution of the same stream;
* **one timing-independent order** — each task graph levelizes itself
  once (:meth:`~repro.core.tasks.TaskGraph.levelize`: a task's *wave* is
  its DAG depth), and every run executes the graph's canonical
  ``(wave, tid)`` stream, so the bits are a function of the task graph
  alone, never of simulated timing, scheduling policy, plans or faults.
  The executor never runs anything concurrently; waves are an ordering
  notion that the engine, checkpoint cuts (stream prefixes) and compiled
  plans share, and which the wave conflict verifier
  (:mod:`repro.analysis.waves`) proves sound.

Operand references understood by :meth:`ExecContext.resolve`:

========================  =====================================================
reference                 resolves to
========================  =====================================================
``("diag", s)``           ``storage.diag_block(s)``
``("blk", s, bi)``        ``storage.off_block(s, bi)``
``("panel", s)``          ``storage.panels[s]`` (full off-diagonal panel)
``("scratch", key)``      a view of a workspace slot (aggregates, fronts)
``("rhs",)``              the dense right-hand-side block of a solve graph
========================  =====================================================

Scatter targets (``syrk_sub`` / ``gemm_sub`` / ``multi_update``) carry
precomputed *raveled flat indices* (:func:`flat_index`) instead of
``(rpos, cpos)`` pairs, so the apply is a single flat-indexed add on the
target's contiguous memory — elementwise identical to the historical
``tgt[np.ix_(rpos, cpos)] += sign * prod`` form.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..memory import BufferPool
from . import dense as kd

__all__ = ["KernelCall", "ExecContext", "KernelExecutor", "KERNEL_OPS",
           "flat_index"]


def flat_index(rpos: Any, cpos: Any, ncols: int) -> np.ndarray:
    """Raveled C-order indices of the ``rpos × cpos`` scatter rectangle.

    Precomputed at graph-build time so the numeric scatter is a single
    flat-indexed add into the target's contiguous buffer.
    """
    rpos = np.asarray(rpos, dtype=np.int64)
    cpos = np.asarray(cpos, dtype=np.int64)
    return (rpos[:, None] * int(ncols) + cpos[None, :]).ravel()


def _flat_view(tgt: np.ndarray) -> np.ndarray:
    """1-D view of a scatter target; loud failure if a copy would be made."""
    if not tgt.flags.c_contiguous:
        raise ValueError("scatter target is not C-contiguous")
    return tgt.reshape(-1)


@dataclass(frozen=True)
class KernelCall:
    """One declarative numeric operation: an op name plus operand args.

    ``args`` holds only build-time constants — symbolic buffer references,
    index arrays and scalars — never live array objects, so a graph of
    ``KernelCall``s can be executed repeatedly against a reset context.
    """

    op: str
    args: tuple = ()


NOOP = KernelCall("noop")

_Entry = tuple[KernelCall, int]  # one (call, wave) stream entry


class ExecContext:
    """Run-state a graph's kernel calls resolve their operands against.

    Attributes
    ----------
    storage:
        The :class:`~repro.core.storage.FactorStorage` being factored (or
        read, for solve graphs).
    rhs:
        Dense ``(n, nrhs)`` right-hand-side block of a solve graph
        (column-major, so each column is contiguous).
    slots:
        The workspace layout, ``key -> (offset, shape)`` in elements,
        reserved by the graph builder (:meth:`reserve`).
    workspace:
        One pool buffer backing every slot (:meth:`fresh_run`).  Kernels
        only ever see views of it, so no kernel allocates and nothing a
        kernel holds can outlive its run.
    pool:
        :class:`~repro.memory.BufferPool` the workspace comes from; a
        private pool is created lazily when the context is used
        standalone (sessions inject their shared, ledgered pool).
    """

    def __init__(self, storage: Any = None,
                 rhs: np.ndarray | None = None,
                 pool: BufferPool | None = None) -> None:
        self.storage = storage
        self.rhs = rhs
        self.pool = pool
        self.slots: dict = {}
        self.size = 0  # workspace elements
        self.workspace: np.ndarray | None = None
        self._views: dict = {}

    def reserve(self, key: Any, shape: Sequence[int],
                offset: int | None = None) -> None:
        """Reserve the workspace slot ``key`` of ``shape`` elements.

        Without ``offset`` the slot goes past every slot reserved so far,
        so it lives for the whole run; a builder that lays slots out
        itself (:func:`repro.memory.pack_slots`) passes their offsets.
        Re-reserving a key with its own shape is a no-op; with another
        shape it is a graph-build bug (two buffers silently aliased) and
        raises.
        """
        shape = tuple(int(d) for d in shape)
        known = self.slots.get(key)
        if known is not None:
            if known[1] != shape:
                raise ValueError(
                    f"workspace slot {key!r} already reserved with shape "
                    f"{known[1]}, requested {shape}")
            return
        if self.workspace is not None:
            raise RuntimeError("workspace slots are reserved before the "
                               "graph first runs")
        if offset is None:
            offset = self.size
        self.slots[key] = (int(offset), shape)
        self.size = max(self.size, int(offset) + int(np.prod(shape)))

    # --------------------------------------------------------- run lifetime

    def fresh_run(self) -> None:
        """Zero the workspace so the owning graph can execute again.

        The first call takes the whole workspace from the pool; later
        calls zero-fill it in place.
        """
        if self.workspace is not None:
            self.workspace.fill(0.0)
        elif self.size:
            if self.pool is None:
                self.pool = BufferPool()
            ws = self.workspace = self.pool.take((self.size,),
                                                 label="workspace")
            self._views = {
                key: ws[off:off + int(np.prod(shape))].reshape(shape)
                for key, (off, shape) in self.slots.items()}

    def close(self) -> None:
        """Give the workspace back to the pool (idempotent)."""
        ws, self.workspace = self.workspace, None
        self._views = {}
        if ws is not None:
            self.pool.give(ws)

    def resolve(self, ref: tuple) -> np.ndarray:
        """Resolve a symbolic operand reference to a live array."""
        kind = ref[0]
        if kind == "diag":
            return self.storage.diag_block(ref[1])
        if kind == "blk":
            return self.storage.off_block(ref[1], ref[2])
        if kind == "panel":
            return self.storage.panels[ref[1]]
        if kind == "scratch":
            return self._views[ref[1]]
        if kind == "rhs":
            return self.rhs
        raise KeyError(f"unknown operand reference {ref!r}")


# --------------------------------------------------------------- handlers
#
# Each handler executes one call: handler(ctx, *call.args).  The op
# vocabulary covers all five solver families (fan-out, fan-in, fan-both,
# multifrontal, PaStiX-like) plus the shared triangular-solve graphs.


def _op_noop(ctx: ExecContext) -> None:
    pass


def _op_potrf_diag(ctx: ExecContext, s: int) -> None:
    diag = ctx.storage.diag_block(s)
    diag[:, :] = kd.potrf(diag)


def _op_trsm_block(ctx: ExecContext, s: int, bi: int) -> None:
    view = ctx.storage.off_block(s, bi)
    view[:, :] = kd.trsm_right_lower_trans(view, ctx.storage.diag_block(s))


def _op_panel_factor(ctx: ExecContext, s: int) -> None:
    diag = ctx.storage.diag_block(s)
    panel = ctx.storage.panels[s]
    diag[:, :] = kd.potrf(diag)
    if panel.shape[0]:
        panel[:, :] = kd.trsm_right_lower_trans(panel, diag)


def _op_syrk_sub(ctx: ExecContext, tgt_ref: tuple, a_ref: tuple,
                 flat: np.ndarray, sign: float) -> None:
    prod = kd.syrk_lower(ctx.resolve(a_ref))
    _flat_view(ctx.resolve(tgt_ref))[flat] += (sign * prod).reshape(-1)


def _op_gemm_sub(ctx: ExecContext, tgt_ref: tuple, a_ref: tuple,
                 b_ref: tuple, flat: np.ndarray, sign: float) -> None:
    prod = kd.gemm_nt(ctx.resolve(a_ref), ctx.resolve(b_ref))
    _flat_view(ctx.resolve(tgt_ref))[flat] += (sign * prod).reshape(-1)


def _op_multi_update(ctx: ExecContext, actions: Sequence[tuple]) -> None:
    """Aggregated update: a sequence of syrk/gemm scatter actions.

    Actions in a group frequently share their scatter target (fan-in
    per-supernode groups and plan-compiled fusions always do), so the
    target resolve + flat view is hoisted per distinct ``tgt_ref``
    instead of being re-derived for every action.
    """
    views: dict[tuple, np.ndarray] = {}
    for kind, tgt_ref, a_ref, b_ref, flat, sign in actions:
        if kind == "syrk":
            prod = kd.syrk_lower(ctx.resolve(a_ref))
        else:
            prod = kd.gemm_nt(ctx.resolve(a_ref), ctx.resolve(b_ref))
        view = views.get(tgt_ref)
        if view is None:
            view = views[tgt_ref] = _flat_view(ctx.resolve(tgt_ref))
        view[flat] += (sign * prod).reshape(-1)


def _op_apply_panel(ctx: ExecContext, t: int, agg_ref: tuple) -> None:
    """Fan-in apply: subtract a full-panel aggregate from supernode ``t``."""
    agg = ctx.resolve(agg_ref)
    w = ctx.storage.diag_block(t).shape[0]
    ctx.storage.diag_block(t)[:, :] -= agg[:w, :]
    if ctx.storage.panels[t].shape[0]:
        ctx.storage.panels[t][:, :] -= agg[w:, :]


def _op_axpy_sub(ctx: ExecContext, tgt_ref: tuple, agg_ref: tuple) -> None:
    """Fan-both apply: subtract a per-block aggregate from its target."""
    ctx.resolve(tgt_ref)[:, :] -= ctx.resolve(agg_ref)


def _op_frontal(ctx: ExecContext, s: int, kids: Sequence[int]) -> None:
    """Multifrontal front: assemble, extend-add, partially factor, scatter.

    The front is a view of the workspace's shared front region (a front
    is private to its call, and calls never run concurrently); the Schur
    update goes to the supernode's own slot ``("update", s)``, which its
    parent's call reads.
    """
    storage = ctx.storage
    analysis = storage.analysis
    part = analysis.supernodes
    fc, lc = part.first_col(s), part.last_col(s)
    w = lc - fc + 1
    struct = part.structs[s]
    m = struct.size
    # front_vars is strictly increasing (supernode columns, then the
    # sorted struct rows below them), so searchsorted replaces the
    # historical per-entry position dict.
    front_vars = np.concatenate([np.arange(fc, lc + 1), struct])
    a = analysis.a_perm.lower
    indptr = a.indptr

    front_ref = ("scratch", "front")
    front = ctx.resolve(front_ref)[:(w + m) ** 2].reshape(w + m, w + m)
    front.fill(0.0)
    # Assemble original entries of A (lower triangle), all columns at once.
    p0, p1 = indptr[fc], indptr[lc + 1]
    rows = a.indices[p0:p1]
    cols = np.repeat(np.arange(w), np.diff(indptr[fc:lc + 2]))
    front[np.searchsorted(front_vars, rows), cols] = a.data[p0:p1]
    # Extend-add the children's contribution blocks.
    for child in kids:
        idx = np.searchsorted(front_vars, part.structs[child])
        front[np.ix_(idx, idx)] += ctx.resolve(("scratch", ("update", child)))
    # Partial factorization of the first w variables.
    l11 = kd.potrf(front[:w, :w])
    front[:w, :w] = l11
    if m:
        l21 = kd.trsm_right_lower_trans(front[w:, :w], l11)
        front[w:, :w] = l21
        update_ref = ("scratch", ("update", s))
        np.subtract(front[w:, w:], kd.syrk_lower(l21),
                    out=ctx.resolve(update_ref))
    # Scatter the eliminated columns into the shared factor.
    storage.diag_block(s)[:, :] = front[:w, :w]
    if m:
        storage.panels[s][:, :] = front[w:, :w]


# The three solve kernels sweep a multi-column rhs column by column so
# that every column goes through the single-vector BLAS path.  That makes
# the service's rhs coalescing lossless — each column of a k-wide solve
# is bit-identical to its solo solve — for two reasons.  The kernel order
# is the canonical (wave, tid) order of the solve graph, which does not
# depend on the nrhs-scaled task durations of the simulation.  And the
# solve buffer is column-major (``SolverBase.solve``), so each column is
# contiguous, exactly as a single rhs is, and BLAS sees the same
# unit-stride operand.


def _op_trsv(ctx: ExecContext, s: int, fc: int, lc: int,
             lower: bool) -> None:
    """Per-supernode dense triangular solve of the rhs slice."""
    diag = ctx.storage.diag_block(s)
    mat = diag if lower else diag.T
    sl = ctx.rhs[fc : lc + 1]
    for c in range(sl.shape[1]):
        sl[:, c] = kd.trsv(mat, sl[:, c], lower)


def _op_gemv_fwd(ctx: ExecContext, s: int, bi: int, rows: np.ndarray,
                 fc: int, lc: int) -> None:
    view = ctx.storage.off_block(s, bi)
    for c in range(ctx.rhs.shape[1]):
        ctx.rhs[rows, c] -= view @ ctx.rhs[fc : lc + 1, c]


def _op_gemv_bwd(ctx: ExecContext, s: int, bi: int, rows: np.ndarray,
                 fc: int, lc: int) -> None:
    view = ctx.storage.off_block(s, bi)
    for c in range(ctx.rhs.shape[1]):
        ctx.rhs[fc : lc + 1, c] -= view.T @ ctx.rhs[rows, c]


KERNEL_OPS = {
    "noop": _op_noop,
    "potrf_diag": _op_potrf_diag,
    "trsm_block": _op_trsm_block,
    "panel_factor": _op_panel_factor,
    "syrk_sub": _op_syrk_sub,
    "gemm_sub": _op_gemm_sub,
    "multi_update": _op_multi_update,
    "apply_panel": _op_apply_panel,
    "axpy_sub": _op_axpy_sub,
    "frontal": _op_frontal,
    "trsv": _op_trsv,
    "gemv_fwd": _op_gemv_fwd,
    "gemv_bwd": _op_gemv_bwd,
}


# --------------------------------------------------------- batch handlers
#
# A batch handler executes a run of consecutive same-op calls at once.
# Products are order-independent; the scatter-adds are applied in stream
# order, so results match the one-at-a-time path.
# Each returns the number of calls that actually went through a stacked
# product (same-shape groups of more than one call).
#
# Stacking a product group costs an ``np.stack`` copy of every operand,
# which only pays off when the group amortises it (enough members) and
# the per-call BLAS overhead dominates the flops (small blocks).  Groups
# outside that regime run as plain per-call products — same results,
# since stacked and single products are bitwise identical per item.

_STACK_MIN_GROUP = 4      # fewer members: copies cost more than they save
_STACK_MAX_ELTS = 1024    # larger operands: BLAS flops dominate overhead


def _stack_worthwhile(n_members: int, elts: int) -> bool:
    return n_members >= _STACK_MIN_GROUP and elts <= _STACK_MAX_ELTS


def _batch_gemm_sub(ctx: ExecContext, calls: Sequence[KernelCall]) -> int:
    resolved = []
    groups: dict[tuple, list[int]] = {}
    for i, call in enumerate(calls):
        tgt_ref, a_ref, b_ref, flat, sign = call.args
        a = ctx.resolve(a_ref)
        b = ctx.resolve(b_ref)
        resolved.append((ctx.resolve(tgt_ref), a, b, flat, sign))
        groups.setdefault((a.shape, b.shape), []).append(i)
    products: list = [None] * len(calls)
    stacked = 0
    for idxs in groups.values():
        if _stack_worthwhile(len(idxs), resolved[idxs[0]][1].size):
            stacked += len(idxs)
            a_stack = np.stack([resolved[i][1] for i in idxs])
            b_stack = np.stack([resolved[i][2] for i in idxs])
            prod = np.matmul(a_stack, b_stack.transpose(0, 2, 1))
            for k, i in enumerate(idxs):
                products[i] = prod[k]
        else:
            for i in idxs:
                products[i] = kd.gemm_nt(resolved[i][1], resolved[i][2])
    for (tgt, _a, _b, flat, sign), prod in zip(resolved, products):
        _flat_view(tgt)[flat] += (sign * prod).reshape(-1)
    return stacked


def _batch_syrk_sub(ctx: ExecContext, calls: Sequence[KernelCall]) -> int:
    resolved = []
    groups: dict[tuple, list[int]] = {}
    for i, call in enumerate(calls):
        tgt_ref, a_ref, flat, sign = call.args
        a = ctx.resolve(a_ref)
        resolved.append((ctx.resolve(tgt_ref), a, flat, sign))
        groups.setdefault(a.shape, []).append(i)
    products: list = [None] * len(calls)
    stacked = 0
    for idxs in groups.values():
        if _stack_worthwhile(len(idxs), resolved[idxs[0]][1].size):
            stacked += len(idxs)
            a_stack = np.stack([resolved[i][1] for i in idxs])
            prod = np.matmul(a_stack, a_stack.transpose(0, 2, 1))
            for k, i in enumerate(idxs):
                products[i] = prod[k]
        else:
            for i in idxs:
                products[i] = kd.syrk_lower(resolved[i][1])
    for (tgt, _a, flat, sign), prod in zip(resolved, products):
        _flat_view(tgt)[flat] += (sign * prod).reshape(-1)
    return stacked


def _potrf_group(pool: np.ndarray, pos: list[int]) -> None:
    """Factor the diag-pool blocks at ``pos`` through the Cholesky gufunc.

    The blocks are distinct (each supernode is factored exactly once per
    run), so the batched factorization is order-independent, and the
    gufunc produces bitwise the same factor for a ``(k, w, w)`` batch as
    for ``k`` single calls.  When the group covers the whole pool the
    batch runs straight off the contiguous pool — no gather, and a single
    bulk write-back.
    """
    if len(pos) == 1:
        d = pool[pos[0]]
        d[:, :] = kd.potrf(d)
    elif len(pos) == pool.shape[0]:
        pool[:, :, :] = kd.potrf(pool)
    else:
        idx = np.asarray(pos, dtype=np.intp)
        pool[idx] = kd.potrf(pool[idx])


def _batch_potrf_diag(ctx: ExecContext, calls: Sequence[KernelCall]) -> int:
    """Factor a run of diagonal blocks batched by pool width."""
    storage = ctx.storage
    by_width: dict[int, list[int]] = {}
    pos_of = storage.diag_pos
    for call in calls:
        w, i = pos_of[call.args[0]]
        by_width.setdefault(w, []).append(i)
    stacked = 0
    for w, pos in by_width.items():
        if len(pos) > 1:
            stacked += len(pos)
        _potrf_group(storage.diag_pool[w], pos)
    return stacked


_BATCH_OPS = {
    "gemm_sub": _batch_gemm_sub,
    "syrk_sub": _batch_syrk_sub,
    "potrf_diag": _batch_potrf_diag,
}


@dataclass
class ExecutorStats:
    """Batching effectiveness counters of one :class:`KernelExecutor`."""

    calls: int = 0          # kernel calls executed
    batches: int = 0        # handler invocations (groups of calls)
    stacked: int = 0        # calls executed through a stacked-product batch
    flush_seconds: float = 0.0  # wall-clock spent executing streams


class KernelExecutor:
    """Ordered, batching executor of :class:`KernelCall` descriptors.

    :meth:`execute_stream` is the one entry point: it runs a
    ``(call, wave)`` stream in order — a graph's canonical
    ``(wave, tid)`` stream (or a prefix or suffix of it), or a compiled
    plan's — with maximal runs of consecutive same-op calls handed to a
    batch handler.  :meth:`run_one` over the per-op :data:`KERNEL_OPS`
    handlers is the one-at-a-time reference the determinism property
    tests compare it to.
    """

    def __init__(self, context: ExecContext | None = None,
                 flush_hook: Callable[[Any, list[_Entry], list[_Entry]],
                                      None] | None = None) -> None:
        self.context = context if context is not None else ExecContext()
        # Observer of every flush, called before execution with the
        # (call, wave) stream as submitted and as about to be executed.
        # The wave verifier (session ``check_waves``) checks the first.
        self.flush_hook = flush_hook
        self.stats = ExecutorStats()

    def execute_stream(self, stream: Sequence[_Entry],
                       submitted: Sequence[_Entry] | None = None) -> None:
        """Execute a ``(call, wave)`` stream, in order, as one flush.

        The flush hook sees ``submitted`` (the engine passes the DES start
        order of the same calls) next to ``stream``; without it, the hook
        sees the stream as both (plan replays).
        """
        if not stream:
            return
        if self.flush_hook is not None:
            executed = list(stream)
            self.flush_hook(self, executed if submitted is None
                            else list(submitted), executed)
        self._execute(stream)

    def _execute(self, pending: Sequence[_Entry]) -> None:
        t0 = time.perf_counter()
        try:
            self._flush_serial([c for c, _ in pending])
        finally:
            self.stats.flush_seconds += time.perf_counter() - t0

    def run_one(self, call: KernelCall) -> None:
        """Execute a single call immediately: the unbatched reference."""
        KERNEL_OPS[call.op](self.context, *call.args)

    def _flush_serial(self, pending: list[KernelCall]) -> None:
        """Stream order, with consecutive same-op runs batched."""
        ctx = self.context
        n = len(pending)
        i = 0
        while i < n:
            op = pending[i].op
            j = i + 1
            while j < n and pending[j].op == op:
                j += 1
            batch = pending[i:j]
            self.stats.calls += len(batch)
            self.stats.batches += 1
            handler = _BATCH_OPS.get(op)
            if handler is not None and len(batch) > 1:
                self.stats.stacked += handler(ctx, batch)
            else:
                fn = KERNEL_OPS[op]
                for call in batch:
                    fn(ctx, *call.args)
            i = j
