"""Unit tests for execution tracing and op counters."""

import threading

from repro.core import ExecutionTrace, OpCounters
from repro.core.tracing import SERVICE_EVENT_RING
from repro.service import ServiceStats


class TestOpCounters:
    def test_record_and_query(self):
        c = OpCounters()
        c.record(0, "GEMM", "cpu", 100.0)
        c.record(0, "GEMM", "gpu", 200.0)
        c.record(1, "POTRF", "cpu", 50.0)
        by_op = c.calls_by_op()
        assert by_op["GEMM"] == {"cpu": 1, "gpu": 1}
        assert by_op["POTRF"] == {"cpu": 1, "gpu": 0}

    def test_rank_filter(self):
        c = OpCounters()
        c.record(0, "SYRK", "cpu", 1.0)
        c.record(1, "SYRK", "cpu", 1.0)
        assert c.calls_by_op(rank=0)["SYRK"]["cpu"] == 1

    def test_totals(self):
        c = OpCounters()
        c.record(0, "GEMM", "cpu", 10.0)
        c.record(0, "TRSM", "gpu", 30.0)
        assert c.total_calls() == 2
        assert c.total_calls("gpu") == 1
        assert c.total_flops() == 40.0
        assert c.total_flops("cpu") == 10.0


class TestExecutionTrace:
    def test_timeline_off_by_default(self):
        t = ExecutionTrace()
        t.record_task(0.0, 1.0, 0, "D[0]")
        assert t.tasks_executed == 1
        assert t.timeline == []

    def test_timeline_opt_in(self):
        t = ExecutionTrace(keep_timeline=True)
        t.record_task(0.0, 1.0, 2, "F[1,0]")
        assert t.timeline == [(0.0, 1.0, 2, "F[1,0]")]

    def test_transfer_and_fallback_accumulators(self):
        t = ExecutionTrace()
        t.add_h2d(100)
        t.add_h2d(50)
        t.add_d2h(30)
        t.record_fallback()
        assert t.h2d_bytes == 150
        assert t.d2h_bytes == 30
        assert t.gpu_fallbacks == 1

    def test_service_events_and_tier_counts(self):
        t = ExecutionTrace()
        t.record_request(ServiceStats(request_id=0, tier="cold",
                                      queue_wait=0.1, factor_seconds=1.0))
        t.record_request(ServiceStats(request_id=1, tier="factor",
                                      queue_wait=0.0, solve_seconds=0.2,
                                      coalesced_width=3))
        t.record_request(ServiceStats(request_id=2, tier="factor",
                                      queue_wait=0.0, solve_seconds=0.2))
        assert t.tier_counts() == {"cold": 1, "factor": 2}
        assert t.service_events[1].coalesced_width == 3

    def test_service_events_ring_is_bounded_and_counts_stay_exact(self):
        t = ExecutionTrace()
        total = 10_000
        for i in range(total):
            t.record_request(ServiceStats(
                request_id=i, tier="factor" if i % 4 else "refactor",
                queue_wait=0.0))
        assert len(t.service_events) == SERVICE_EVENT_RING < total
        assert t.service_events[-1].request_id == total - 1
        counts = t.tier_counts()
        assert counts == {"refactor": total // 4, "factor": total - total // 4}
        assert sum(counts.values()) == total


class TestThreadSafety:
    """The service shares one trace across worker threads — counters must
    not drop updates under concurrent recording."""

    THREADS = 8
    PER_THREAD = 500

    def _hammer(self, fn):
        threads = [threading.Thread(target=fn) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_concurrent_op_counter_record(self):
        c = OpCounters()

        def work():
            for i in range(self.PER_THREAD):
                c.record(i % 4, "GEMM", "cpu" if i % 2 else "gpu", 2.0)

        self._hammer(work)
        total = self.THREADS * self.PER_THREAD
        assert c.total_calls() == total
        assert c.total_flops() == 2.0 * total

    def test_concurrent_trace_recording(self):
        t = ExecutionTrace()

        def work():
            for i in range(self.PER_THREAD):
                t.record_task(0.0, 1.0, i % 4, "D[0]")
                t.add_h2d(8)
                t.add_d2h(4)
                t.record_fallback()
                t.record_request(ServiceStats(
                    request_id=i, tier="factor",
                    queue_wait=0.0, solve_seconds=0.1))

        self._hammer(work)
        total = self.THREADS * self.PER_THREAD
        assert t.tasks_executed == total
        assert t.h2d_bytes == 8 * total
        assert t.d2h_bytes == 4 * total
        assert t.gpu_fallbacks == total
        assert len(t.service_events) == min(total, SERVICE_EVENT_RING)
        assert t.tier_counts() == {"factor": total}
