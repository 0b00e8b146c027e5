"""Declarative read/write effects of every kernel op.

The wave conflict verifier needs, for each :class:`~repro.kernels.dispatch
.KernelCall`, the exact memory regions the call reads and writes and
*how* it writes them — in place (``immediate``) or as an accumulating
scatter-add / aggregate subtract (``deferred``).
This module is the single source of truth for those effects; the lint
pass cross-checks it against :data:`~repro.kernels.dispatch.KERNEL_OPS`
(every op must be described) and against the handler bodies themselves
(a handler must not mutate an operand its spec declares read-only).

Regions are expressed against **canonical buffers**: ``("blk", s, bi)``
references alias supernode ``s``'s panel memory, so they canonicalise to
``("panel", s)`` plus an element range — which is what makes overlap
detection between a block view and its enclosing panel exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.dispatch import ExecContext, KernelCall

__all__ = ["Access", "KERNEL_EFFECTS", "HANDLER_WRITE_SPEC", "RHS_OPS",
           "canonical_region", "call_accesses"]

# Ops that read/write overlapping slices of the shared rhs buffer; the
# whole-buffer model below makes every pair of them conflict, so the
# wave verifier does not try to prove such flushes.
RHS_OPS = frozenset({"trsv", "gemv_fwd", "gemv_bwd"})


@dataclass(frozen=True)
class Access:
    """One memory region touched by a kernel call.

    Attributes
    ----------
    key:
        Canonical buffer key: ``("diag", s)``, ``("panel", s)``,
        ``("scratch", k)``, ``("transient", k)`` or ``("rhs",)``.
    write:
        ``True`` for a write (or read-modify-write); ``False`` for a
        pure read.
    deferred:
        ``True`` when the write accumulates into the buffer
        (scatter-adds, aggregate applies); ``False`` for in-place
        access.
    start / end:
        Element range within the canonical buffer; ``end is None`` means
        the full buffer with unknown extent.
    flat:
        Exact canonical element indices for scatter writes (rectangle
        scatters are not contiguous); ``None`` when the whole
        ``start:end`` range is touched.
    """

    key: tuple
    write: bool
    deferred: bool
    start: int
    end: int | None
    flat: np.ndarray | None = None

    def overlaps(self, other: "Access") -> tuple[int, int] | None:
        """Overlapping element envelope with ``other``, or ``None``.

        Uses the exact scatter index sets when both sides carry them;
        otherwise the range envelope (conservative, and exact for every
        whole-buffer access).
        """
        if self.key != other.key:
            return None
        lo = max(self.start, other.start)
        hi_self = np.inf if self.end is None else self.end
        hi_other = np.inf if other.end is None else other.end
        hi = min(hi_self, hi_other)
        if lo >= hi:
            return None
        if self.flat is not None and other.flat is not None:
            common = np.intersect1d(self.flat, other.flat,
                                    assume_unique=False)
            if common.size == 0:
                return None
            return int(common.min()), int(common.max()) + 1
        return int(lo), (int(hi) if np.isfinite(hi) else -1)


def canonical_region(ref: tuple, ctx: ExecContext) -> tuple[tuple, int, int | None]:
    """``(canonical key, start, end)`` of an operand reference.

    Block references resolve to a range of their supernode's panel (block
    views are row-slices of the panel, so this is exact aliasing
    information, not an approximation).
    """
    kind = ref[0]
    storage = ctx.storage
    if kind == "diag":
        size = None if storage is None else storage.diag_block(ref[1]).size
        return ("diag", ref[1]), 0, size
    if kind == "panel":
        size = None if storage is None else storage.panels[ref[1]].size
        return ("panel", ref[1]), 0, size
    if kind == "blk":
        s, bi = ref[1], ref[2]
        if storage is None:
            return ("panel", s), 0, None
        blk = storage.analysis.blocks.blocks[s][bi]
        width = storage.panels[s].shape[1]
        return ("panel", s), blk.offset * width, (blk.offset + blk.nrows) * width
    if kind == "scratch":
        arr = None if ctx is None else ctx.scratch.get(ref[1])
        return ("scratch", ref[1]), 0, (None if arr is None else arr.size)
    if kind == "rhs":
        size = None if ctx.rhs is None else ctx.rhs.size
        return ("rhs",), 0, size
    raise KeyError(f"unknown operand reference {ref!r}")


def _whole(ref: tuple, ctx: ExecContext, *, write: bool,
           deferred: bool = False) -> Access:
    key, start, end = canonical_region(ref, ctx)
    return Access(key=key, write=write, deferred=deferred,
                  start=start, end=end)


def _scatter(tgt_ref: tuple, flat: np.ndarray, ctx: ExecContext) -> Access:
    """Deferred scatter-add into ``tgt_ref`` at (target-relative) ``flat``."""
    key, start, _end = canonical_region(tgt_ref, ctx)
    canon = np.asarray(flat, dtype=np.int64) + start
    if canon.size == 0:
        return Access(key=key, write=True, deferred=True, start=start,
                      end=start)
    return Access(key=key, write=True, deferred=True,
                  start=int(canon.min()), end=int(canon.max()) + 1,
                  flat=canon)


# ------------------------------------------------------- per-op effects


def _fx_noop(call: KernelCall, ctx: ExecContext) -> list[Access]:
    return []


def _fx_potrf_diag(call: KernelCall, ctx: ExecContext) -> list[Access]:
    return [_whole(("diag", call.args[0]), ctx, write=True)]


def _fx_trsm_block(call: KernelCall, ctx: ExecContext) -> list[Access]:
    s, bi = call.args
    return [_whole(("diag", s), ctx, write=False),
            _whole(("blk", s, bi), ctx, write=True)]


def _fx_panel_factor(call: KernelCall, ctx: ExecContext) -> list[Access]:
    s = call.args[0]
    return [_whole(("diag", s), ctx, write=True),
            _whole(("panel", s), ctx, write=True)]


def _fx_syrk_sub(call: KernelCall, ctx: ExecContext) -> list[Access]:
    tgt_ref, a_ref, flat, _sign = call.args
    return [_whole(a_ref, ctx, write=False), _scatter(tgt_ref, flat, ctx)]


def _fx_gemm_sub(call: KernelCall, ctx: ExecContext) -> list[Access]:
    tgt_ref, a_ref, b_ref, flat, _sign = call.args
    return [_whole(a_ref, ctx, write=False),
            _whole(b_ref, ctx, write=False),
            _scatter(tgt_ref, flat, ctx)]


def _fx_multi_update(call: KernelCall, ctx: ExecContext) -> list[Access]:
    out: list[Access] = []
    for kind, tgt_ref, a_ref, b_ref, flat, _sign in call.args[0]:
        out.append(_whole(a_ref, ctx, write=False))
        if kind != "syrk" and b_ref is not None:
            out.append(_whole(b_ref, ctx, write=False))
        out.append(_scatter(tgt_ref, flat, ctx))
    return out


def _fx_apply_panel(call: KernelCall, ctx: ExecContext) -> list[Access]:
    t, agg_ref = call.args
    return [_whole(agg_ref, ctx, write=False),
            _whole(("diag", t), ctx, write=True, deferred=True),
            _whole(("panel", t), ctx, write=True, deferred=True)]


def _fx_axpy_sub(call: KernelCall, ctx: ExecContext) -> list[Access]:
    tgt_ref, agg_ref = call.args
    return [_whole(agg_ref, ctx, write=False),
            _whole(tgt_ref, ctx, write=True, deferred=True)]


def _fx_frontal(call: KernelCall, ctx: ExecContext) -> list[Access]:
    s, kids = call.args
    out = [Access(key=("transient", ("contrib", int(c))), write=False,
                  deferred=False, start=0, end=None) for c in kids]
    out.append(Access(key=("transient", ("contrib", int(s))), write=True,
                      deferred=False, start=0, end=None))
    out.append(_whole(("diag", s), ctx, write=True))
    out.append(_whole(("panel", s), ctx, write=True))
    return out


def _fx_rhs_op(call: KernelCall, ctx: ExecContext) -> list[Access]:
    # Solve kernels read and write overlapping slices of the one shared
    # rhs buffer and the wave verifier skips their streams, so the
    # whole-buffer write is the honest (and sufficient) description.
    return [_whole(("rhs",), ctx, write=True)]


KERNEL_EFFECTS = {
    "noop": _fx_noop,
    "potrf_diag": _fx_potrf_diag,
    "trsm_block": _fx_trsm_block,
    "panel_factor": _fx_panel_factor,
    "syrk_sub": _fx_syrk_sub,
    "gemm_sub": _fx_gemm_sub,
    "multi_update": _fx_multi_update,
    "apply_panel": _fx_apply_panel,
    "axpy_sub": _fx_axpy_sub,
    "frontal": _fx_frontal,
    "trsv": _fx_rhs_op,
    "gemv_fwd": _fx_rhs_op,
    "gemv_bwd": _fx_rhs_op,
}


def call_accesses(call: KernelCall, ctx: ExecContext) -> list[Access]:
    """All memory regions ``call`` touches, per the effects registry."""
    try:
        fx = KERNEL_EFFECTS[call.op]
    except KeyError:
        raise KeyError(
            f"kernel op {call.op!r} has no entry in KERNEL_EFFECTS; "
            "declare its read/write sets before using it") from None
    return fx(call, ctx)


# Which operands each handler in ``kernels/dispatch.py`` may mutate,
# keyed by op.  ``resolve`` lists the *variable names* whose
# ``ctx.resolve(<name>)`` result is writable; ``accessors`` lists the
# writable ``ctx``/``ctx.storage`` access paths.  The lint pass enforces
# that handler bodies mutate nothing else.
HANDLER_WRITE_SPEC: dict[str, dict[str, frozenset[str]]] = {
    "noop": {"resolve": frozenset(), "accessors": frozenset()},
    "potrf_diag": {"resolve": frozenset(),
                   "accessors": frozenset({"diag_block"})},
    "trsm_block": {"resolve": frozenset(),
                   "accessors": frozenset({"off_block"})},
    "panel_factor": {"resolve": frozenset(),
                     "accessors": frozenset({"diag_block", "panels"})},
    "syrk_sub": {"resolve": frozenset({"tgt_ref"}),
                 "accessors": frozenset()},
    "gemm_sub": {"resolve": frozenset({"tgt_ref"}),
                 "accessors": frozenset()},
    "multi_update": {"resolve": frozenset({"tgt_ref"}),
                     "accessors": frozenset()},
    "apply_panel": {"resolve": frozenset(),
                    "accessors": frozenset({"diag_block", "panels"})},
    "axpy_sub": {"resolve": frozenset({"tgt_ref"}),
                 "accessors": frozenset()},
    "frontal": {"resolve": frozenset(),
                "accessors": frozenset({"diag_block", "panels",
                                        "transient"})},
    "trsv": {"resolve": frozenset(), "accessors": frozenset({"rhs"})},
    "gemv_fwd": {"resolve": frozenset(), "accessors": frozenset({"rhs"})},
    "gemv_bwd": {"resolve": frozenset(), "accessors": frozenset({"rhs"})},
}
