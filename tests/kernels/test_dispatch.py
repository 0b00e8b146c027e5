"""Unit tests for declarative kernel dispatch and the batching executor."""

import numpy as np
import pytest

from repro.core import CPU_ONLY, FactorStorage, build_factor_graph, make_map
from repro.core.tracing import ExecutionTrace
from repro.kernels import dense as kd
from repro.kernels.dispatch import (
    KERNEL_OPS,
    ExecContext,
    KernelCall,
    KernelExecutor,
    flat_index,
)
from repro.sparse import random_spd
from repro.symbolic import analyze


class TestKernelCall:
    def test_frozen(self):
        call = KernelCall("potrf_diag", (3,))
        with pytest.raises(AttributeError):
            call.op = "other"

    def test_default_args_empty(self):
        assert KernelCall("noop").args == ()

    def test_all_ops_have_handlers(self):
        graph_ops = {"noop", "potrf_diag", "trsm_block", "panel_factor",
                     "syrk_sub", "gemm_sub", "multi_update", "apply_panel",
                     "axpy_sub", "frontal", "trsv", "gemv_fwd", "gemv_bwd"}
        assert graph_ops == set(KERNEL_OPS)


class TestExecContext:
    def test_scratch_array_get_or_create(self):
        ctx = ExecContext()
        a = ctx.scratch_array(("agg", 0, 1), (2, 3))
        assert a.shape == (2, 3) and not a.any()
        a[0, 0] = 5.0
        assert ctx.scratch_array(("agg", 0, 1), (2, 3)) is a

    def test_fresh_run_zeroes_scratch_in_place(self):
        ctx = ExecContext()
        a = ctx.scratch_array("k", (2, 2))
        a[:] = 7.0
        ctx.transient["x"] = object()
        ctx.fresh_run()
        assert not a.any()
        assert ctx.scratch["k"] is a  # same array, graphs keep their refs
        assert not ctx.transient

    def test_resolve_rhs_and_scratch(self):
        rhs = np.zeros((4, 1))
        ctx = ExecContext(rhs=rhs)
        assert ctx.resolve(("rhs",)) is rhs
        arr = ctx.scratch_array("k", (1, 1))
        assert ctx.resolve(("scratch", "k")) is arr

    def test_resolve_unknown_ref_raises(self):
        with pytest.raises(KeyError):
            ExecContext().resolve(("nope", 0))


def _sub_calls(seed=0, n_targets=3, calls_per=4, shape=(4, 4)):
    """A pile of gemm_sub calls scattering into named scratch targets."""
    rng = np.random.default_rng(seed)
    ctx = ExecContext()
    calls = []
    flat = flat_index(np.arange(shape[0]), np.arange(shape[1]), shape[1])
    for t in range(n_targets):
        ctx.scratch_array(("tgt", t), shape)
        for c in range(calls_per):
            a = ctx.scratch_array(("a", t, c), shape)
            b = ctx.scratch_array(("b", t, c), shape)
            a[:] = rng.standard_normal(shape)
            b[:] = rng.standard_normal(shape)
            calls.append(KernelCall("gemm_sub", (
                ("scratch", ("tgt", t)), ("scratch", ("a", t, c)),
                ("scratch", ("b", t, c)), flat, -1.0)))
    return ctx, calls


class _FakeTask:
    def __init__(self, kernel, op="GEMM", flops=10.0):
        self.kernel = kernel
        self.op = op
        self.flops = flops


class TestKernelExecutor:
    def test_flush_matches_eager_execution(self):
        ctx_b, calls = _sub_calls(seed=9)
        ex = KernelExecutor(ctx_b)
        for c in calls:
            ex.submit(_FakeTask(c), rank=0, device="cpu")
        ex.flush()
        ctx_e, _ = _sub_calls(seed=9)  # identical inputs, eager path
        for c in calls:
            KERNEL_OPS[c.op](ctx_e, *c.args)
        for t in range(3):
            assert np.array_equal(ctx_b.scratch[("tgt", t)],
                                  ctx_e.scratch[("tgt", t)])

    def test_consecutive_same_op_calls_stacked(self):
        ctx, calls = _sub_calls(seed=1)
        ex = KernelExecutor(ctx)
        for c in calls:
            ex.submit(_FakeTask(c), rank=0, device="cpu")
        ex.flush()
        assert ex.stats.calls == len(calls)
        assert ex.stats.batches == 1  # one maximal run of gemm_sub
        assert ex.stats.stacked == len(calls)

    def test_mixed_ops_split_batches(self):
        ctx, calls = _sub_calls(seed=2, n_targets=1, calls_per=2)
        ex = KernelExecutor(ctx)
        ex.submit(_FakeTask(calls[0]), 0, "cpu")
        ex.submit(_FakeTask(KernelCall("noop"), op="NOOP"), 0, "cpu")
        ex.submit(_FakeTask(calls[1]), 0, "cpu")
        ex.flush()
        assert ex.stats.batches == 3
        assert ex.stats.stacked == 0  # no run longer than one call

    def test_trace_records_at_submission(self):
        trace = ExecutionTrace()
        ex = KernelExecutor(ExecContext(), trace=trace)
        ex.submit(_FakeTask(KernelCall("noop"), op="POTRF", flops=5.0),
                  rank=1, device="gpu")
        assert trace.ops.calls[(1, "POTRF", "gpu")] == 1
        assert trace.ops.flops[(1, "POTRF", "gpu")] == 5.0

    def test_flush_runs_in_wave_tid_order(self):
        """The hook sees the stream as submitted and as executed."""
        seen = []
        ex = KernelExecutor(ExecContext(), flush_hook=lambda _ex, sub, run:
                            seen.append((sub, run)))
        calls = [KernelCall("noop") for _ in range(3)]
        for tid, wave in ((2, 1), (1, 0), (0, 1)):
            task = _FakeTask(calls[tid])
            task.tid = tid
            ex.submit(task, 0, "cpu", wave=wave)
        ex.flush()
        submitted, executed = seen[0]
        assert all(c is calls[t] for t, (c, _w) in zip((2, 1, 0), submitted))
        assert all(c is calls[t] for t, (c, _w) in zip((1, 0, 2), executed))
        assert [w for _c, w in executed] == [0, 1, 1]

    def test_flush_clears_pending(self):
        ex = KernelExecutor(ExecContext())
        ex.submit(_FakeTask(KernelCall("noop")), 0, "cpu")
        ex.flush()
        ex.flush()  # idempotent on empty queue
        assert ex.stats.calls == 1

    def test_graph_carries_no_closures(self):
        """Every task of a built factor graph is a declarative KernelCall."""
        a = random_spd(25, density=0.2, seed=5)
        an = analyze(a)
        st = FactorStorage(an)
        g = build_factor_graph(an, st, make_map(2), CPU_ONLY)
        for t in g.tasks:
            assert isinstance(t.kernel, KernelCall)
            assert t.kernel.op in KERNEL_OPS
            assert not callable(getattr(t, "run", None))

    def test_batched_factorization_matches_scipy(self, rng):
        """Deferred batched execution is numerically exact, not approximate."""
        a = random_spd(30, density=0.2, seed=8)
        an = analyze(a)
        st = FactorStorage(an)
        g = build_factor_graph(an, st, make_map(1), CPU_ONLY)
        ex = KernelExecutor(g.context)
        # Submit in a topological order (Kahn), as the engine would.
        indeg = [t.deps for t in g.tasks]
        consumers = {t.tid: list(t.local_consumers) for t in g.tasks}
        ready = [t.tid for t in g.tasks if indeg[t.tid] == 0]
        while ready:
            tid = ready.pop(0)
            ex.submit(g.tasks[tid], rank=0, device="cpu")
            for c in consumers[tid]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        ex.flush()
        l = np.tril(st.to_sparse_factor().toarray())
        expected = np.linalg.cholesky(an.a_perm.to_dense())
        assert np.allclose(l, expected, atol=1e-10)


class TestHandlers:
    def test_potrf_and_trsm_handlers(self):
        an = analyze(random_spd(20, density=0.3, seed=2))
        st = FactorStorage(an)
        ctx = ExecContext(storage=st)
        diag0 = st.diag_block(0).copy()
        KERNEL_OPS["potrf_diag"](ctx, 0)
        assert np.allclose(st.diag_block(0), np.tril(kd.potrf(diag0)))

    def test_trsv_forward_backward_roundtrip(self, rng):
        an = analyze(random_spd(20, density=0.3, seed=2))
        st = FactorStorage(an)
        ctx = ExecContext(storage=st)
        KERNEL_OPS["potrf_diag"](ctx, 0)
        part = an.supernodes
        fc, lc = part.first_col(0), part.last_col(0)
        w = lc - fc + 1
        rhs = rng.standard_normal((an.n, 1))
        orig = rhs[fc:lc + 1].copy()
        ctx2 = ExecContext(storage=st, rhs=rhs)
        KERNEL_OPS["trsv"](ctx2, 0, fc, lc, True)
        l = st.diag_block(0)
        assert np.allclose(np.tril(l) @ rhs[fc:lc + 1], orig, atol=1e-12)
        assert w >= 1
