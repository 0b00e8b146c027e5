"""Wave conflict verifier: waves are a sound levelization of the effects.

The kernel executor never runs anything concurrently, but every run
executes its task graph's canonical ``(wave, tid)`` stream, levelized
once per graph (:meth:`TaskGraph.levelize
<repro.core.tasks.TaskGraph.levelize>`); checkpoint cuts and compiled
plan streams are prefixes and copies of that order.  The sorted stream
produces the bytes of the DES start order (a legal serial order) iff
the wave numbers are a sound levelization of the byte-level effects —
any two calls whose accesses conflict sit in different waves, ordered
the way they were started.

:func:`verify_flush` consumes the *submitted* ``(KernelCall, wave)``
stream — the DES start order the engine hands the flush hook next to
the executed segment, which is already wave-sorted, so checking it
would compare wave order with itself — and proves it for that stream
with three rules, each
checked pairwise over overlapping accesses to the same canonical buffer
(:mod:`repro.analysis.effects` classifies every write as *in place* or
*accumulating* — a scatter-add or aggregate subtract,
``Access.deferred``):

1. **Intra-wave isolation** (``WAVE001``): two calls in the same wave
   must not touch overlapping bytes when at least one access is an
   in-place write — calls of one wave may be executed in either order.
2. **Cross-wave order consistency** (``WAVE002``): for overlapping
   in-place accesses in different waves (with at least one write), wave
   order must agree with submission order.
3. **Accumulate/in-place ordering** (``WAVE003``): an accumulating
   write must sit in a strictly earlier wave than an overlapping
   in-place access submitted after it, and in the same or a later wave
   than one submitted before it.

Accumulate–accumulate pairs need no check of their own: every consumer
of the wave numbers keeps same-wave calls in a timing-independent order,
and two accumulating writes in different waves can only be applied out
of submission order if an in-place access separates them — which then
fails rule 3 against one of the two.

Known precision limit: the *source* read of an aggregate apply is
modelled at the apply's own wave.  A write to an aggregate submitted
*after* its apply is serially consistent and not flagged; no graph
builder produces that shape.

A stream with a missing wave has nothing to prove; one with any
rhs-sweep kernel is sorted but not proven, since the effect model
treats the shared rhs buffer as one region and every pair would
conflict.  :func:`verify_flush` returns no findings for either.  A
compiled plan's stream is checked the same way: the effects registry
expands each fused ``multi_update`` group action by action.
"""

from __future__ import annotations

from ..kernels.dispatch import ExecContext, KernelCall
from .effects import RHS_OPS, Access, call_accesses
from .report import Finding

__all__ = ["verify_flush", "is_wave_parallel"]

_ELT_BYTES = 8  # float64 factor/aggregate storage throughout


def is_wave_parallel(pending: list[tuple[KernelCall, int | None]]) -> bool:
    """Does this stream carry a wave levelization worth verifying?

    Non-empty, every entry has a wave, and no rhs-sweep op.
    """
    return bool(
        pending
        and all(w is not None for _, w in pending)
        and not any(c.op in RHS_OPS for c, _ in pending))


def verify_flush(pending: list[tuple[KernelCall, int | None]],
                 context: ExecContext) -> list[Finding]:
    """Check one flush's pending stream against the wave invariants.

    Returns one :class:`~repro.analysis.report.Finding` per
    violated pair, with submission indices, waves, ops, block
    coordinates and the offending element/byte ranges in ``details``.
    """
    if not is_wave_parallel(pending):
        return []

    # (submission idx, wave, op, Access) grouped by canonical buffer.
    immediate: dict[tuple, list[tuple[int, int, str, Access]]] = {}
    deferred: dict[tuple, list[tuple[int, int, str, Access]]] = {}
    for idx, (call, wave) in enumerate(pending):
        for acc in call_accesses(call, context):
            bucket = deferred if acc.deferred else immediate
            bucket.setdefault(acc.key, []).append((idx, wave, call.op, acc))

    findings: list[Finding] = []
    for key in set(immediate) | set(deferred):
        imms = immediate.get(key, ())
        defs = deferred.get(key, ())
        # Property 1 + 2: immediate vs immediate.
        for n, (idx_a, wave_a, op_a, acc_a) in enumerate(imms):
            for idx_b, wave_b, op_b, acc_b in imms[n + 1:]:
                if idx_a == idx_b or not (acc_a.write or acc_b.write):
                    continue
                span = acc_a.overlaps(acc_b)
                if span is None:
                    continue
                if wave_a == wave_b:
                    findings.append(_pair_finding(
                        "WAVE001", "concurrent overlapping access in one "
                        "wave", key, span,
                        (idx_a, wave_a, op_a, acc_a),
                        (idx_b, wave_b, op_b, acc_b)))
                elif (idx_a < idx_b) != (wave_a < wave_b):
                    findings.append(_pair_finding(
                        "WAVE002", "wave order contradicts submission "
                        "order", key, span,
                        (idx_a, wave_a, op_a, acc_a),
                        (idx_b, wave_b, op_b, acc_b)))
        # Property 3: deferred write vs immediate access.
        for idx_d, wave_d, op_d, acc_d in defs:
            for idx_i, wave_i, op_i, acc_i in imms:
                if idx_d == idx_i:
                    continue
                span = acc_d.overlaps(acc_i)
                if span is None:
                    continue
                # The accumulating write lands before the in-place
                # access iff its wave is strictly earlier.
                if (idx_d < idx_i) != (wave_d < wave_i):
                    findings.append(_pair_finding(
                        "WAVE003", "deferred apply ordered inconsistently "
                        "with in-place access", key, span,
                        (idx_d, wave_d, op_d, acc_d),
                        (idx_i, wave_i, op_i, acc_i)))
    findings.sort(key=lambda f: (f.details["task_a"], f.details["task_b"],
                                 f.rule))
    return findings


def _pair_finding(rule: str, what: str, key: tuple,
                  span: tuple[int, int],
                  a: tuple[int, int, str, Access],
                  b: tuple[int, int, str, Access]) -> Finding:
    idx_a, wave_a, op_a, _acc_a = a
    idx_b, wave_b, op_b, _acc_b = b
    lo, hi = span
    if hi < 0:
        elems = "whole buffer"
        byte_lo, byte_hi = lo * _ELT_BYTES, -1
    else:
        elems = f"elements [{lo}, {hi})"
        byte_lo, byte_hi = lo * _ELT_BYTES, hi * _ELT_BYTES
        elems += f" = bytes [{byte_lo}, {byte_hi})"
    where = f"buffer {key!r}"
    message = (
        f"{what}: task {idx_a} ({op_a}, wave {wave_a}) vs "
        f"task {idx_b} ({op_b}, wave {wave_b}) overlap on {elems}")
    return Finding(rule=rule, where=where, message=message, details={
        "buffer": key,
        "task_a": idx_a, "task_b": idx_b,
        "wave_a": wave_a, "wave_b": wave_b,
        "op_a": op_a, "op_b": op_b,
        "elem_range": (lo, hi),
        "byte_range": (byte_lo, byte_hi),
    })
