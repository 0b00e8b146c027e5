"""Unit tests of the wave conflict verifier (synthetic flush streams)."""

import numpy as np

from repro.analysis.effects import (HANDLER_WRITE_SPEC, KERNEL_EFFECTS,
                                    call_accesses)
from repro.analysis.waves import is_wave_parallel, verify_flush
from repro.kernels.dispatch import KERNEL_OPS, ExecContext, KernelCall


def _ctx():
    return ExecContext()


def _potrf(s):
    return KernelCall("potrf_diag", (s,))


def _syrk(tgt, flat):
    return KernelCall("syrk_sub", (tgt, ("scratch", "src"),
                                   np.asarray(flat, dtype=np.int64), -1.0))


class TestStreamGate:
    def test_missing_wave_never_checked(self):
        pending = [(_potrf(0), 0), (_potrf(0), None)]
        assert not is_wave_parallel(pending)
        assert verify_flush(pending, _ctx()) == []

    def test_rhs_ops_never_checked(self):
        pending = [(KernelCall("trsv", (0, 0, 1, True)), 0),
                   (_potrf(0), 0)]
        assert not is_wave_parallel(pending)
        assert verify_flush(pending, _ctx()) == []


class TestImmediatePairs:
    def test_distinct_buffers_clean(self):
        pending = [(_potrf(0), 0), (_potrf(1), 0), (_potrf(2), 1)]
        assert verify_flush(pending, _ctx()) == []

    def test_same_wave_overlap_is_wave001(self):
        pending = [(_potrf(3), 1), (_potrf(3), 1)]
        findings = verify_flush(pending, _ctx())
        assert [f.rule for f in findings] == ["WAVE001"]
        f = findings[0]
        assert f.details["buffer"] == ("diag", 3)
        assert (f.details["task_a"], f.details["task_b"]) == (0, 1)
        assert "wave 1" in f.message

    def test_wave_order_inversion_is_wave002(self):
        # Submitted second but scheduled in an earlier wave.
        pending = [(_potrf(3), 2), (_potrf(3), 1)]
        findings = verify_flush(pending, _ctx())
        assert [f.rule for f in findings] == ["WAVE002"]

    def test_consistent_cross_wave_order_clean(self):
        pending = [(_potrf(3), 0), (_potrf(3), 1)]
        assert verify_flush(pending, _ctx()) == []


class TestDeferredPairs:
    def test_scatter_before_consumer_clean(self):
        # Scatter-add into diag 0 (wave 0), potrf consumes it in wave 1:
        # wave order matches submission order.
        pending = [(_syrk(("diag", 0), [0, 1]), 0), (_potrf(0), 1)]
        assert verify_flush(pending, _ctx()) == []

    def test_scatter_sharing_consumer_wave_is_wave003(self):
        # Scatter submitted first but assigned the consumer's own wave:
        # the waves do not order the add before the potrf that reads it.
        pending = [(_syrk(("diag", 0), [0]), 1), (_potrf(0), 1)]
        findings = verify_flush(pending, _ctx())
        assert [f.rule for f in findings] == ["WAVE003"]

    def test_scatter_scheduled_early_is_wave003(self):
        # Submitted after the potrf but scheduled in an earlier wave:
        # a wave re-sort would apply it first, inverting the order.
        pending = [(_potrf(0), 1), (_syrk(("diag", 0), [0]), 0)]
        findings = verify_flush(pending, _ctx())
        assert [f.rule for f in findings] == ["WAVE003"]

    def test_disjoint_scatters_clean(self):
        # Accumulate-accumulate pairs need no wave ordering of their own.
        pending = [(_syrk(("diag", 0), [0, 1]), 0),
                   (_syrk(("diag", 0), [0, 1]), 0),
                   (_potrf(0), 1)]
        assert verify_flush(pending, _ctx()) == []

    def test_exact_scatter_indices_used(self):
        # The report pinpoints the scatter's flat indices [5, 7), not the
        # whole buffer: overlap with the potrf write is bytes [40, 56).
        pending = [(_syrk(("diag", 0), [5, 6]), 1), (_potrf(0), 1)]
        findings = verify_flush(pending, _ctx())
        assert findings and findings[0].details["elem_range"] == (5, 7)
        assert findings[0].details["byte_range"] == (40, 56)


class TestEffectsRegistry:
    def test_every_kernel_op_has_effects(self):
        assert set(KERNEL_EFFECTS) == set(KERNEL_OPS)

    def test_every_kernel_op_has_write_spec(self):
        assert set(HANDLER_WRITE_SPEC) == set(KERNEL_OPS)

    def test_unknown_op_is_loud(self):
        try:
            call_accesses(KernelCall("warp_speed", ()), _ctx())
        except KeyError as exc:
            assert "KERNEL_EFFECTS" in str(exc)
        else:
            raise AssertionError("unknown op must raise")
