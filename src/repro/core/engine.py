"""The fan-out execution engine.

Executes a :class:`~repro.core.tasks.TaskGraph` on a simulated PGAS
:class:`~repro.pgas.runtime.World`, implementing the paper's communication
paradigm (Section 3.4, Figures 3–4) event-for-event:

1. when a task completes, the producer issues one ``signal(ptr, meta)``
   RPC per dependent rank;
2. an idle (or just-finished) rank *polls*: ``progress()`` executes queued
   signal RPCs, which enqueue global pointers into a notification list;
3. the poll loop issues a non-blocking one-sided RMA **get** per queued
   pointer, pulling the data to host or directly to device memory
   (memory kinds), as appropriate for where the consumer will run;
4. get completion decrements the consumers' dependency counters; tasks
   reaching zero move from the LTQ to the RTQ;
5. the rank picks the next task from the RTQ and executes it — on CPU or
   GPU according to the per-operation offload thresholds.

Numerics are real but *deferred*: each task's declarative
:class:`~repro.kernels.dispatch.KernelCall` is submitted to a
:class:`~repro.kernels.dispatch.KernelExecutor` at its simulated start and
the whole run is flushed — in canonical ``(wave, tid)`` order, batched by
op — once the simulation drains, so the bits depend on the graph alone.
Time, placement and communication are simulated against the machine
model.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from ..kernels.dispatch import ExecutorStats, KernelExecutor
from ..memory import MemorySnapshot
from ..pgas.device import DeviceOutOfMemory, OomFallback
from ..pgas.device_kinds import vendor_libraries
from ..pgas.network import MemoryKindsMode, MemorySpace
from ..pgas.runtime import World
from .offload import OffloadPolicy
from .tasks import OutMessage, SimTask, TaskGraph
from .tracing import ExecutionTrace

__all__ = ["EngineResult", "FanOutEngine", "Scheduling"]


class Scheduling(str, Enum):
    """RTQ scheduling discipline shared by solver options and the engine.

    ``FIFO`` is the paper default ("whichever one is at the top of the
    queue"); ``PRIORITY`` pops the lowest ``task.priority`` first (the
    paper leaves policy exploration to future work).  Constructing the
    enum from an unknown string raises ``ValueError``, so it doubles as
    the single validation point.
    """

    FIFO = "fifo"
    PRIORITY = "priority"


@dataclass
class EngineResult:
    """Outcome of one engine run."""

    makespan: float
    trace: ExecutionTrace
    tasks_total: int
    rank_busy: list[float] = field(default_factory=list)
    exec_stats: ExecutorStats | None = None
    # Ledger snapshot taken right after the numeric flush, *before* the
    # session reclaims device segments and run scratch — i.e. the run's
    # in-flight memory footprint (peaks are the interesting part).
    mem: MemorySnapshot = field(default_factory=MemorySnapshot)

    @property
    def load_imbalance(self) -> float:
        """max/mean busy-time ratio (1.0 = perfect balance)."""
        if not self.rank_busy or max(self.rank_busy) == 0:
            return 1.0
        mean = sum(self.rank_busy) / len(self.rank_busy)
        return max(self.rank_busy) / mean if mean > 0 else 1.0


class FanOutEngine:
    """Distributed executor of one task graph over one world.

    Parameters
    ----------
    world:
        Simulated PGAS job (ranks, network, devices).
    graph:
        The task DAG; ``deps`` counters must be consistent
        (``graph.validate()`` is called).  The graph is read-only during
        execution — message pointers live in the engine's in-flight
        notifications, never on the graph — so the same graph can be run
        again by a fresh engine.
    policy:
        GPU offload policy.
    scheduling:
        A :class:`Scheduling` value or its string name.
    trace:
        Optional pre-existing trace to accumulate into (so factorization
        and solve can share counters, as in paper Figure 6).
    executor:
        Optional pre-built kernel executor; by default one is created
        over ``graph.context``.
    flush_hook:
        Optional flush observer forwarded to the default-constructed
        executor (see :class:`~repro.kernels.dispatch.KernelExecutor`),
        which runs every flush in canonical ``(wave, tid)`` order.
    checkpointer:
        Optional :class:`~repro.resilience.checkpoint.CheckpointManager`
        (duck-typed): notified at engine start and on every task
        completion so it can cut wave-frontier checkpoints.
    resume:
        Optional restart state from a checkpoint restore: tasks marked
        executed are skipped and dependency counters/waves are rederived
        so the run continues exactly where the checkpoint cut.
    """

    def __init__(
        self,
        world: World,
        graph: TaskGraph,
        policy: OffloadPolicy,
        scheduling: str | Scheduling = Scheduling.FIFO,
        trace: ExecutionTrace | None = None,
        executor: KernelExecutor | None = None,
        flush_hook=None,
        checkpointer=None,
        resume=None,
    ) -> None:
        graph.validate()
        self.world = world
        self.graph = graph
        self.policy = policy
        self.scheduling = Scheduling(scheduling)
        self.trace = trace if trace is not None else ExecutionTrace()
        self.executor = (executor if executor is not None
                         else KernelExecutor(graph.context, trace=self.trace,
                                             flush_hook=flush_hook))
        if self.executor.trace is None:
            self.executor.trace = self.trace
        self._checkpointer = checkpointer

        n_ranks = world.nranks
        self._remaining = [t.deps for t in graph.tasks]
        self._rtq_fifo: list[deque[int]] = [deque() for _ in range(n_ranks)]
        self._rtq_heap: list[list[tuple[float, int]]] = [[] for _ in range(n_ranks)]
        self._busy = [False] * n_ranks
        # In-flight notifications per destination rank: (message, ptr)
        # pairs, the ptr being the payload's global pointer registered by
        # the producer at send time.
        self._notifications: list[list[tuple[OutMessage, object]]] = [
            [] for _ in range(n_ranks)
        ]
        self._device_resident: list[set] = [set() for _ in range(n_ranks)]
        self._executed = [False] * len(graph.tasks)
        self._done_count = 0
        # Dependency wave (DAG depth) of each task: 0 for roots, else
        # 1 + max over producers.  Producers all complete before a
        # consumer is submitted, so the value is final by submission time.
        self._wave = [0] * len(graph.tasks)
        if resume is not None:
            self._apply_resume(resume)
        # Rank-level fault windows (stall/pause end) re-poll through here.
        world.wake_hooks.append(self._on_wake)

    def _on_wake(self, rank: int, t: float) -> None:
        self._try_schedule(rank, t)

    def _apply_resume(self, resume) -> None:
        """Rebuild counters and waves from a checkpoint's executed set.

        A consumer's dependency counter must equal its number of
        *unexecuted* producers, and its wave the max over executed
        producers' waves + 1 — both rederivable from the checkpoint's
        ``(executed, waves)`` pair alone.  No signals are replayed:
        message payloads are size-only handles, and the restored storage
        already holds every executed producer's output.
        """
        for tid in resume.executed:
            self._executed[tid] = True
            self._wave[tid] = resume.waves[tid]
        self._done_count = len(resume.executed)
        for task in self.graph.tasks:
            if not self._executed[task.tid]:
                continue
            child_wave = self._wave[task.tid] + 1
            for child in task.local_consumers:
                if self._executed[child]:
                    continue
                self._remaining[child] -= 1
                if child_wave > self._wave[child]:
                    self._wave[child] = child_wave
            for msg in task.messages:
                for child in msg.consumers:
                    if self._executed[child]:
                        continue
                    self._remaining[child] -= 1
                    if child_wave > self._wave[child]:
                        self._wave[child] = child_wave
        for tid, left in enumerate(self._remaining):
            if not self._executed[tid] and left < 0:
                raise RuntimeError(
                    f"task {tid} dependency counter went negative on resume")

    # --------------------------------------------------------------- queues

    def _push_ready(self, tid: int) -> None:
        task = self.graph.tasks[tid]
        if self.scheduling == Scheduling.FIFO:
            self._rtq_fifo[task.rank].append(tid)
        else:
            heapq.heappush(self._rtq_heap[task.rank], (task.priority, tid))

    def _pop_ready(self, rank: int) -> int | None:
        if self.scheduling == Scheduling.FIFO:
            queue = self._rtq_fifo[rank]
            return queue.popleft() if queue else None
        heap = self._rtq_heap[rank]
        return heapq.heappop(heap)[1] if heap else None

    def _decrement(self, tid: int) -> None:
        self._remaining[tid] -= 1
        if self._remaining[tid] == 0:
            self._push_ready(tid)
        elif self._remaining[tid] < 0:
            raise RuntimeError(
                f"task {tid} dependency counter went negative"
            )

    # ------------------------------------------------------------- protocol

    def _signal_handler(self, payload: tuple[OutMessage, object]) -> None:
        """The RPC body: enqueue (meta, ptr) for the poll loop (Fig. 4 step 3)."""
        self._notifications[payload[0].dst_rank].append(payload)

    def _poll(self, rank: int, now: float) -> None:
        """Steps 2–5 of Figure 4: progress RPCs, then issue gets."""
        self.world.progress(rank, now)
        pending = self._notifications[rank]
        if not pending:
            return
        self._notifications[rank] = []
        for msg, ptr in pending:
            dst_space = MemorySpace.HOST
            if (
                msg.gpu_block
                and self.policy.enabled
                and self.world.network.mode is MemoryKindsMode.NATIVE
                and self.world.ranks[rank].device is not None
            ):
                # Large factorized diagonal blocks are copied directly into
                # the local device segment (paper Section 4.2).
                dst_space = MemorySpace.DEVICE

            self.world.rma_get(rank, ptr, now, dst_space=dst_space,
                               on_complete=self._get_complete,
                               on_complete_args=(msg, dst_space, rank))

    def _get_complete(self, done_t: float, _data, msg: OutMessage,
                      dst_space: MemorySpace, rank: int) -> None:
        """RMA-get completion (Fig. 4 step 5): credit consumers, re-poll."""
        if dst_space is MemorySpace.DEVICE and msg.key is not None:
            self._device_resident[rank].add(msg.key)
        for tid in msg.consumers:
            self._decrement(tid)
        self._try_schedule(rank, done_t)

    # ------------------------------------------------------------ execution

    def _place_task(self, task: SimTask, rank: int) -> tuple[str, float]:
        """Device placement and simulated duration of one task."""
        machine = self.world.machine
        device = "cpu"
        if self.policy.wants_gpu(task.op, task.buffer_elems):
            device = "gpu"
        duration = machine.task_overhead_s

        if device == "gpu":
            allocator = self.world.ranks[rank].device
            if allocator is None:
                device = "cpu"
            else:
                resident = self._device_resident[rank]
                transfer = 0.0
                new_bytes = 0
                seen = set()
                for key, nbytes in task.in_buffers:
                    if key in resident or key in seen:
                        continue
                    seen.add(key)
                    new_bytes += nbytes
                    transfer += machine.pcie_time(nbytes)
                try:
                    if new_bytes:
                        allocator.allocate((max(1, new_bytes // 8),))
                    duration += transfer
                    self.trace.add_h2d(new_bytes)
                    resident.update(seen)
                    for key, _ in task.out_buffers:
                        resident.add(key)
                    # Vendor stack: HIP / Level-Zero launches cost more
                    # than CUDA (paper §6 portability path).
                    launch_factor = vendor_libraries(allocator.kind).launch_factor
                    duration += (machine.kernel_launch_s * (launch_factor - 1.0)
                                 + machine.gpu_time(task.flops))
                except DeviceOutOfMemory:
                    self.trace.record_fallback()
                    if self.policy.oom_fallback is OomFallback.RAISE:
                        raise
                    device = "cpu"

        if device == "cpu":
            # A CPU run of a buffer another task left on the device pulls
            # it back; conservatively we charge nothing here because panels
            # are kept coherent in host memory (write-through model), which
            # matches symPACK keeping authoritative data on the host.
            duration += machine.cpu_time(task.flops)
            for key, _ in task.out_buffers:
                self._device_resident[rank].discard(key)

        return device, duration

    def _try_schedule(self, rank: int, now: float) -> None:
        """Poll, then start the next ready task if the rank is idle."""
        if self._busy[rank]:
            return
        injector = self.world.injector
        if injector is not None and injector.rank_blocked(rank):
            return  # paused or crashed; wake hooks re-poll at window end
        self._poll(rank, now)
        tid = self._pop_ready(rank)
        if tid is None:
            return
        task = self.graph.tasks[tid]
        self._busy[rank] = True
        device, duration = self._place_task(task, rank)
        # Numerics are deferred: the flush runs in (wave, tid) order, and
        # a consumer's wave exceeds every producer's, so execution is
        # dependency-respecting whatever the simulated start order.
        self.executor.submit(task, rank, device, wave=self._wave[tid])
        end = now + duration
        self.world.ranks[rank].busy_time += duration
        self.trace.record_task(now, end, rank, task.label)
        self.world.events.schedule(end, self._complete, tid)

    def _complete(self, now: float, tid: int) -> None:
        """TASK_DONE: fan out results, release the rank (Fig. 3 steps 2–6)."""
        task = self.graph.tasks[tid]
        rank = task.rank
        injector = self.world.injector
        if injector is not None and rank in injector.dead_ranks:
            # Fail-stop: a rank that crashed mid-task loses the work.  The
            # task stays unexecuted (its submitted kernel's wave stays
            # above every checkpoint frontier, so it is never flushed) and
            # its consumers starve until checkpoint restart.
            return
        state = self.world.ranks[rank]
        state.clock = now
        state.tasks_run += 1
        self._busy[rank] = False
        self._executed[tid] = True
        self._done_count += 1

        # Propagate dependency waves to every consumer (local and remote).
        wave = self._wave
        child_wave = wave[tid] + 1
        for child in task.local_consumers:
            if child_wave > wave[child]:
                wave[child] = child_wave
        for msg in task.messages:
            for child in msg.consumers:
                if child_wave > wave[child]:
                    wave[child] = child_wave

        if self._checkpointer is not None:
            self._checkpointer.on_task_done(self, now)

        # Local dependents.
        for child in task.local_consumers:
            self._decrement(child)
        # Newly-ready local tasks are picked up by _try_schedule below.

        # Remote fan-out: one signal RPC per destination rank.  The sender
        # serialises message initiations (send occupancy); one-sided RMA
        # keeps this tiny, two-sided baselines pay more per send, and
        # broadcast-style fan-outs (send_fanout) serialise the full sweep.
        occ = self.world.machine.send_occupancy_s
        fanout = max(len(task.messages), task.send_fanout)
        nranks = self.world.nranks
        for idx, msg in enumerate(task.messages):
            space = (MemorySpace.DEVICE
                     if msg.gpu_block
                     and any(k in self._device_resident[rank]
                             for k, _ in task.out_buffers)
                     else MemorySpace.HOST)
            ptr = self.world.register_bytes(rank, msg.nbytes, space)
            if task.send_fanout:
                # Deterministic broadcast slot of this destination rank.
                slot = (msg.dst_rank - rank) % nranks - 1
            else:
                slot = idx
            send_t = now + (slot + 1) * occ
            self.world.signal(
                rank, msg.dst_rank, self._signal_handler, (msg, ptr), send_t,
                on_delivered=self._kick, on_delivered_args=(msg.dst_rank,),
            )

        if fanout and occ > 0:
            # Stay busy through the send sweep, then look for work.
            self._busy[rank] = True
            sweep_end = now + fanout * occ
            state.busy_time += fanout * occ

            self.world.events.schedule(sweep_end, self._end_send_sweep, rank)
        else:
            self._try_schedule(rank, now)

    def _kick(self, t: float, rank: int) -> None:
        """Event/delivery adapter: wake ``rank``'s scheduler at ``t``."""
        self._try_schedule(rank, t)

    def _end_send_sweep(self, t: float, rank: int) -> None:
        """Release a rank held busy through its serialised send sweep."""
        state = self.world.ranks[rank]
        state.clock = max(state.clock, t)
        self._busy[rank] = False
        self._try_schedule(rank, t)

    # ------------------------------------------------------------------ run

    def run(self) -> EngineResult:
        """Execute the graph to completion; returns timing and trace."""
        if self._checkpointer is not None:
            self._checkpointer.begin_run(self)
        for task in self.graph.tasks:
            if self._remaining[task.tid] == 0 and not self._executed[task.tid]:
                self._push_ready(task.tid)
        # One kickoff wave: every rank polls at the current time, admitted
        # as a single same-time batch (one guard check, consecutive seqs).
        self.world.events.schedule_batch(
            self.world.events.now,
            ((self._kick, (r,)) for r in range(self.world.nranks)),
        )
        limit = 50 * len(self.graph.tasks) + 10_000
        self.world.run(max_events=limit)

        if self._done_count != len(self.graph.tasks):
            injector = self.world.injector
            dead = (injector.dead_ranks if injector is not None
                    else frozenset())
            stranded = len(self.graph.tasks) - self._done_count
            if dead:
                from ..resilience.errors import RankUnresponsive
                raise RankUnresponsive(
                    rank=min(dead),
                    detail=f"rank crash stranded {stranded} task(s)")
            stuck = [t.label for t in self.graph.tasks
                     if not self._executed[t.tid]][:10]
            raise RuntimeError(
                f"engine finished with {stranded}"
                f" unexecuted tasks (protocol deadlock?); first stuck: {stuck}"
            )
        # The simulation has fixed every task's wave; now run the real
        # numerics in (wave, tid) order, batched.  Exceptions (e.g.
        # non-SPD pivots) surface here.
        self.executor.flush()
        busy = [r.busy_time for r in self.world.ranks]
        return EngineResult(
            makespan=self.world.makespan(),
            trace=self.trace,
            tasks_total=len(self.graph.tasks),
            rank_busy=busy,
            exec_stats=self.executor.stats,
            mem=self.world.ledger.snapshot(),
        )
