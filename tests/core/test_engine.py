"""Unit tests for the fan-out DES engine (LTQ/RTQ + signal/get protocol)."""

import numpy as np
import pytest

from repro.core import (
    CPU_ONLY,
    FactorStorage,
    FanOutEngine,
    OffloadPolicy,
    TaskGraph,
    TaskKind,
    build_factor_graph,
    make_map,
)
from repro.machine import perlmutter
from repro.pgas import MemoryKindsMode, OomFallback, World
from repro.sparse import grid_laplacian_2d, random_spd
from repro.symbolic import analyze


def run_factor(a, nranks=4, policy=CPU_ONLY, device_capacity=None,
               mode=MemoryKindsMode.NATIVE, scheduling="fifo",
               ranks_per_node=4):
    an = analyze(a)
    st = FactorStorage(an)
    world = World(nranks=nranks, machine=perlmutter(),
                  ranks_per_node=min(ranks_per_node, nranks), mode=mode,
                  device_capacity=device_capacity)
    g = build_factor_graph(an, st, make_map(nranks), policy)
    engine = FanOutEngine(world, g, policy, scheduling=scheduling)
    result = engine.run()
    return an, st, world, result


class TestCorrectness:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 7, 16])
    def test_factor_correct_any_rank_count(self, nranks):
        a = random_spd(25, density=0.2, seed=1)
        an, st, _, _ = run_factor(a, nranks=nranks)
        l = np.tril(st.to_sparse_factor().toarray())
        expected = np.linalg.cholesky(an.a_perm.to_dense())
        assert np.allclose(l, expected, atol=1e-10)

    def test_all_tasks_executed(self, lap2d):
        _, _, _, result = run_factor(lap2d)
        assert result.tasks_total == result.trace.tasks_executed

    def test_corner_cases(self, corner_case):
        an, st, _, _ = run_factor(corner_case, nranks=3)
        l = np.tril(st.to_sparse_factor().toarray())
        expected = np.linalg.cholesky(an.a_perm.to_dense())
        assert np.allclose(l, expected, atol=1e-9)


class TestDeterminism:
    def test_same_makespan_every_run(self, lap2d):
        times = [run_factor(lap2d)[3].makespan for _ in range(3)]
        assert times[0] == times[1] == times[2]

    def test_priority_scheduling_also_correct(self):
        a = random_spd(20, density=0.2, seed=5)
        an, st, _, _ = run_factor(a, scheduling="priority")
        l = np.tril(st.to_sparse_factor().toarray())
        assert np.allclose(l, np.linalg.cholesky(an.a_perm.to_dense()),
                           atol=1e-10)

    def test_unknown_scheduling_rejected(self, lap2d):
        an = analyze(lap2d)
        st = FactorStorage(an)
        world = World(2, perlmutter())
        g = build_factor_graph(an, st, make_map(2), CPU_ONLY)
        with pytest.raises(ValueError):
            FanOutEngine(world, g, CPU_ONLY, scheduling="random")


class TestTimingSanity:
    def test_more_ranks_not_slower(self):
        """Strong scaling: 16 ranks must beat 1 rank on a real problem."""
        a = grid_laplacian_2d(16, 16)
        t1 = run_factor(a, nranks=1, ranks_per_node=1)[3].makespan
        t16 = run_factor(a, nranks=16)[3].makespan
        assert t16 < t1

    def test_single_rank_time_equals_work_sum(self):
        """With one rank there is no communication: makespan ~= busy time."""
        a = grid_laplacian_2d(8, 8)
        _, _, world, result = run_factor(a, nranks=1, ranks_per_node=1)
        assert result.makespan == pytest.approx(result.rank_busy[0], rel=1e-9)

    def test_communication_counted_multirank(self, lap2d):
        _, _, world, _ = run_factor(lap2d, nranks=4)
        assert world.stats.rpcs_sent > 0
        assert world.stats.gets_issued == world.stats.rpcs_sent
        assert world.stats.bytes_get > 0

    def test_single_rank_no_comm(self, lap2d):
        _, _, world, _ = run_factor(lap2d, nranks=1)
        assert world.stats.rpcs_sent == 0
        assert world.stats.bytes_get == 0

    def test_load_imbalance_reported(self, lap2d):
        _, _, _, result = run_factor(lap2d, nranks=4)
        assert result.load_imbalance >= 1.0


class TestGpuExecution:
    def test_gpu_ops_appear_with_policy(self):
        a = grid_laplacian_2d(20, 20)
        policy = OffloadPolicy().with_thresholds(
            GEMM=64, SYRK=64, TRSM=64, POTRF=64)
        _, _, _, result = run_factor(a, nranks=2, policy=policy,
                                     device_capacity=1 << 28)
        assert result.trace.ops.total_calls("gpu") > 0

    def test_gpu_offload_faster_when_compute_bound(self):
        # Needs large dense supernodes for the offload to pay off: the
        # flan-like 27-point stencil has ~200-wide separators.
        from repro.sparse import flan_like
        a = flan_like(scale=12)
        t_cpu = run_factor(a, nranks=1, ranks_per_node=1)[3].makespan
        policy = OffloadPolicy()  # default thresholds
        result = run_factor(a, nranks=1, ranks_per_node=1, policy=policy,
                            device_capacity=1 << 30)[3]
        assert result.trace.ops.total_calls("gpu") > 0
        assert result.makespan < t_cpu

    def test_oom_falls_back_to_cpu(self):
        a = grid_laplacian_2d(14, 14)
        policy = OffloadPolicy().with_thresholds(
            GEMM=16, SYRK=16, TRSM=16, POTRF=16)
        _, _, _, result = run_factor(a, nranks=2, policy=policy,
                                     device_capacity=2048)  # tiny device
        assert result.trace.gpu_fallbacks > 0
        # And the factorization still completed.
        assert result.tasks_total == result.trace.tasks_executed

    def test_oom_raise_option(self):
        a = grid_laplacian_2d(14, 14)
        policy = OffloadPolicy(oom_fallback=OomFallback.RAISE).with_thresholds(
            GEMM=16, SYRK=16, TRSM=16, POTRF=16)
        from repro.pgas import DeviceOutOfMemory
        with pytest.raises(DeviceOutOfMemory):
            run_factor(a, nranks=2, policy=policy, device_capacity=2048)

    def test_h2d_bytes_tracked(self):
        a = grid_laplacian_2d(18, 18)
        policy = OffloadPolicy().with_thresholds(
            GEMM=256, SYRK=256, TRSM=256, POTRF=256)
        _, _, _, result = run_factor(a, nranks=2, policy=policy,
                                     device_capacity=1 << 28)
        assert result.trace.h2d_bytes > 0


class TestProtocolFidelity:
    def test_remote_rpc_then_get_pattern(self, lap2d):
        """Every remote dependency is satisfied via RPC + get (Fig. 4)."""
        _, _, world, _ = run_factor(lap2d, nranks=4)
        assert world.stats.gets_issued == world.stats.rpcs_sent

    def test_deadlock_detection(self):
        """An inconsistent graph (dep never satisfied) raises, not hangs."""
        g = TaskGraph()
        t = g.new_task(kind=TaskKind.DIAG, rank=0, op="POTRF", flops=1.0,
                       buffer_elems=1, operand_bytes=8)
        t.deps = 1  # no producer will ever satisfy this
        world = World(1, perlmutter())
        engine = FanOutEngine.__new__(FanOutEngine)
        # Bypass validate() (which would catch it statically) to exercise
        # the runtime guard.
        engine.world = world
        engine.graph = g
        engine.policy = CPU_ONLY
        engine.scheduling = "fifo"
        from repro.core.tracing import ExecutionTrace
        engine.trace = ExecutionTrace()
        engine._remaining = [1]
        from collections import deque
        engine._rtq_fifo = [deque()]
        engine._rtq_heap = [[]]
        engine._busy = [False]
        engine._notifications = [[]]
        engine._device_resident = [set()]
        engine._executed = [False]
        engine._done_count = 0
        engine._checkpointer = None
        with pytest.raises(RuntimeError, match="unexecuted"):
            engine.run()


class TestGraphStream:
    """The engine executes its graph's stream; the DES order is observed."""

    def _fan_graph(self):
        # Root t1 feeds t2, then t0: FIFO starts 1, 2, 0; the stream is
        # (level, tid) order 1, 0, 2.
        g = TaskGraph()
        tasks = [g.new_task(kind=TaskKind.DIAG, rank=0, op="POTRF",
                            flops=float(i + 1), buffer_elems=1,
                            operand_bytes=8) for i in range(3)]
        g.add_dependency(tasks[1], tasks[2])
        g.add_dependency(tasks[1], tasks[0])
        return g, tasks

    def test_hook_sees_start_order_and_graph_stream(self):
        g, tasks = self._fan_graph()
        seen = []
        engine = FanOutEngine(World(1, perlmutter()), g, CPU_ONLY,
                              flush_hook=lambda _ex, sub, run:
                              seen.append((sub, run)))
        engine.run()
        [(submitted, executed)] = seen
        assert executed == g.stream
        assert [c for c, _w in executed] == [tasks[t].kernel
                                             for t in (1, 0, 2)]
        assert submitted == [(tasks[t].kernel, int(g.levels[t]))
                             for t in (1, 2, 0)]
        assert engine.cursor == len(g.stream)

    def test_trace_records_at_task_start(self):
        """Op counters are recorded in the DES, before any kernel runs."""
        g, tasks = self._fan_graph()
        at_flush = []
        engine = FanOutEngine(
            World(1, perlmutter()), g, CPU_ONLY,
            flush_hook=lambda _ex, _sub, _run: at_flush.append(
                (engine.trace.ops.calls[(0, "POTRF", "cpu")],
                 engine.trace.ops.flops[(0, "POTRF", "cpu")])))
        engine.run()
        assert at_flush == [(3, 6.0)]
