"""Task and message types of the fan-out engine.

The numeric factorization is a DAG of three task kinds (paper Section 3.2):
``D`` (diagonal factorization, POTRF), ``F`` (panel factorization, TRSM)
and ``U`` (update, SYRK/GEMM).  The distributed triangular solve reuses the
same machinery with ``FWD``/``BWD`` (per-supernode solves) and
``FUP``/``BUP`` (update) kinds.

A :class:`SimTask` is the unit of scheduling: statically mapped to a rank,
carrying a dependency counter, a cost descriptor (op + dims + buffer
bytes) for the machine model, and a declarative
:class:`~repro.kernels.dispatch.KernelCall` naming the real numeric work.
Tasks never hold closures or live array pointers, so a built
:class:`TaskGraph` (plus its :class:`~repro.kernels.dispatch.ExecContext`)
can be executed any number of times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ..kernels.dispatch import NOOP, ExecContext, KernelCall

__all__ = ["TaskKind", "OutMessage", "SimTask", "Levelization", "TaskGraph"]


class TaskKind:
    """Task kind labels (string constants; cheap and explicit)."""

    DIAG = "D"       # diagonal block factorization (POTRF)
    FACTOR = "F"     # off-diagonal block factorization (TRSM)
    UPDATE = "U"     # block update (SYRK/GEMM)
    FWD = "FWD"      # forward-solve of a supernode
    FUP = "FUP"      # forward-solve update contribution
    BWD = "BWD"      # backward-solve of a supernode
    BUP = "BUP"      # backward-solve update contribution


@dataclass
class OutMessage:
    """Data one task fans out to one remote rank on completion.

    One message satisfies every consumer task on the destination rank that
    needs this payload (the factorized block is sent once per rank, not
    once per consumer) — matching the paper's notification protocol.

    Messages are pure graph structure: the engine attaches the global
    pointer of the payload to the in-flight notification itself (not to
    this object), so executing a graph leaves it unmodified and reusable.

    Attributes
    ----------
    dst_rank:
        Destination process.
    nbytes:
        Payload size.
    consumers:
        Task ids on ``dst_rank`` whose dependency counters drop when the
        RMA get for this payload completes.
    gpu_block:
        Marked by the producer for sufficiently large blocks: with native
        memory kinds these are copied *directly* into remote device memory
        (paper Section 4.2), skipping the host bounce.
    """

    dst_rank: int
    nbytes: int
    consumers: list[int]
    gpu_block: bool = False
    # Buffer key of the payload; when the get lands in device memory the
    # key becomes device-resident at the destination rank.
    key: object = None


@dataclass
class SimTask:
    """One statically-mapped task of a distributed computation.

    Attributes
    ----------
    tid:
        Dense task id (index into :class:`TaskGraph.tasks`).
    kind:
        One of the :class:`TaskKind` labels.
    rank:
        Owning process (2D block-cyclic map for factor tasks).
    op:
        Kernel class for the offload heuristic (POTRF/TRSM/SYRK/GEMM).
    flops:
        Floating-point operations charged to the executing device.
    buffer_elems:
        Element count of the largest operand buffer — the quantity the
        paper's per-operation offload thresholds inspect.
    operand_bytes:
        Bytes that must be device-resident to run the task on the GPU.
    kernel:
        Declarative numeric action; executed exactly once per graph run
        through the :class:`~repro.kernels.dispatch.KernelExecutor`.
    local_consumers:
        Task ids on the *same* rank depending on this task.
    messages:
        Remote fan-out on completion.
    deps:
        Incoming dependency count (decremented toward zero).
    label:
        Human-readable identity for traces/tests.
    """

    tid: int
    kind: str
    rank: int
    op: str
    flops: float
    buffer_elems: int
    operand_bytes: int
    kernel: KernelCall = NOOP
    local_consumers: list[int] = field(default_factory=list)
    messages: list[OutMessage] = field(default_factory=list)
    deps: int = 0
    label: str = ""
    # Buffer keys for device-residency tracking: (hashable key, nbytes).
    # Inputs not yet device-resident are charged a PCIe transfer when the
    # task runs on the GPU; outputs become resident there afterwards.
    in_buffers: list[tuple[object, int]] = field(default_factory=list)
    out_buffers: list[tuple[object, int]] = field(default_factory=list)
    priority: float = 0.0
    # Total outgoing sends to charge sender occupancy for; 0 means "the
    # number of messages".  Baselines that broadcast (e.g. PaStiX-style
    # solve-vector replication) set this to the broadcast fan-out so the
    # sender serialises the full fan-out even when only some destinations
    # carry dependency payloads.
    send_fanout: int = 0


@dataclass(frozen=True, eq=False)
class Levelization:
    """A task graph's static execution order, computed once per graph.

    ``levels[tid]`` is the task's DAG depth (longest path from a root);
    ``order`` lists the task ids sorted by ``(level, tid)``; ``ends[k]``
    is the number of tasks at level ``<= k``; ``stream`` is
    ``[(task.kernel, level)]`` in that order.  Every run of the graph
    executes ``stream`` — whatever the simulated start order — so the bits
    are a function of the graph alone.
    """

    levels: np.ndarray
    order: np.ndarray
    ends: np.ndarray
    stream: list[tuple[KernelCall, int]]

    def prefix(self, level: int) -> int:
        """Length of the stream prefix holding every task at <= ``level``."""
        return int(self.ends[level]) if level >= 0 else 0


def _levelize(tasks: list[SimTask]) -> Levelization:
    """One pass over the edges: validate the graph, then levelize it.

    Raises ``ValueError`` when a message consumer is not on the message's
    rank, a dependency count disagrees with the incoming edges, or the
    graph has a cycle.  The builders do not emit tasks in topological
    order, so levels come from a frontier (Kahn) sweep, one whole-array
    step per level; each frontier comes out sorted by tid, so their
    concatenation is the ``(level, tid)`` order.
    """
    n = len(tasks)
    rank: list[int] = []
    deps: list[int] = []
    kernels: list[KernelCall] = []
    fanout: list[int] = []
    dst: list[int] = []
    msg_dst: list[int] = []
    msg_rank: list[int] = []
    for t in tasks:
        rank.append(t.rank)
        deps.append(t.deps)
        kernels.append(t.kernel)
        before = len(dst)
        dst += t.local_consumers
        for msg in t.messages:
            consumers = msg.consumers
            dst += consumers
            msg_dst += consumers
            msg_rank += [msg.dst_rank] * len(consumers)
        fanout.append(len(dst) - before)
    dst_a = np.array(dst, dtype=np.int64)
    if dst and (dst_a.min() < 0 or dst_a.max() >= n):
        raise ValueError("a consumer id is not a task of this graph")
    misrouted = np.flatnonzero(np.array(rank, dtype=np.int64)[msg_dst]
                               != np.array(msg_rank, dtype=np.int64))
    if misrouted.size:
        i = int(misrouted[0])
        raise ValueError(
            f"message consumer {msg_dst[i]} not on rank {msg_rank[i]}")
    remaining = np.bincount(dst_a, minlength=n)
    wrong = np.flatnonzero(remaining != np.array(deps, dtype=np.int64))
    if wrong.size:
        t = tasks[int(wrong[0])]
        raise ValueError(
            f"task {t.tid} ({t.label}): deps={t.deps} but "
            f"{remaining[t.tid]} incoming edges")

    # Out-edges are already grouped by source, in tid order (CSR).
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fanout, out=indptr[1:])
    levels = np.full(n, -1, dtype=np.int64)
    fronts = []
    frontier = np.flatnonzero(remaining == 0)
    while frontier.size:
        levels[frontier] = len(fronts)
        fronts.append(frontier)
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        kids, hits = np.unique(dst_a[offsets + np.arange(offsets.size)],
                               return_counts=True)
        remaining[kids] -= hits
        frontier = kids[remaining[kids] == 0]
    order = np.concatenate(fronts) if fronts else np.empty(0, np.int64)
    if order.size != n:
        stuck = np.flatnonzero(levels < 0)[:10].tolist()
        raise ValueError(f"task graph has a cycle through tasks {stuck}")
    ends = np.cumsum([f.size for f in fronts], dtype=np.int64)
    stream = list(zip(itemgetter(*order.tolist())(kernels) if n > 1
                      else kernels, levels[order].tolist()))
    return Levelization(levels=levels, order=order, ends=ends, stream=stream)


@dataclass
class TaskGraph:
    """A complete distributed task DAG plus bookkeeping totals.

    ``context`` is the :class:`~repro.kernels.dispatch.ExecContext` the
    tasks' kernel calls resolve operands against; re-running a graph only
    requires resetting the context, never rebuilding the tasks.

    :meth:`levelize` validates the graph and fixes its execution order
    once; the engine, checkpoints and compiled plans all read that cached
    result.  :meth:`new_task` and :meth:`add_dependency` drop it, so
    builders must finish wiring edges before the graph first runs.
    """

    tasks: list[SimTask] = field(default_factory=list)
    context: ExecContext | None = None
    _levelization: Levelization | None = field(
        default=None, init=False, repr=False, compare=False)

    def new_task(self, **kwargs) -> SimTask:
        """Append a task, assigning its id."""
        task = SimTask(tid=len(self.tasks), **kwargs)
        self.tasks.append(task)
        self._levelization = None
        return task

    def add_dependency(self, producer: SimTask, consumer: SimTask) -> None:
        """Register a same-rank dependency edge (no communication)."""
        if producer.rank != consumer.rank:
            raise ValueError(
                "add_dependency is for local edges; use messages for remote"
            )
        producer.local_consumers.append(consumer.tid)
        consumer.deps += 1
        self._levelization = None

    def levelize(self) -> Levelization:
        """The graph's levelization, computed (and the graph validated:
        ``ValueError`` if inconsistent or cyclic) on first use."""
        if self._levelization is None:
            self._levelization = _levelize(self.tasks)
        return self._levelization

    @property
    def levels(self) -> np.ndarray:
        """Each task's DAG depth: 0 for roots, else 1 + max over producers."""
        return self.levelize().levels

    @property
    def stream(self) -> list[tuple[KernelCall, int]]:
        """``[(task.kernel, level)]`` in canonical ``(level, tid)`` order."""
        return self.levelize().stream

    def roots(self) -> list[SimTask]:
        """Tasks with no dependencies (initially ready)."""
        return [t for t in self.tasks if t.deps == 0]
