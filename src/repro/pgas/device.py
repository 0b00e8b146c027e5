"""Device allocators: the simulated "memory kinds" facility.

Mirrors ``upcxx::device_allocator`` / ``upcxx::make_gpu_allocator``: each
process binds to a device and carves allocations out of a fixed-capacity
segment.  Allocation failure behaviour is configurable exactly like the
paper's fallback options (Section 4.2): fall back to the CPU or throw.

The capacity check is a :class:`~repro.memory.MemoryLedger` budget on the
owning rank's ``device`` account, so device OOM is *deterministically
injectable*: shrink the budget on a shared ledger and every session built
over it hits the same ``DeviceOutOfMemory`` → :class:`OomFallback` path
the engine exercises on a real out-of-memory GPU.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..memory import MemoryBudgetExceeded, MemoryLedger
from .device_kinds import DeviceKind
from .global_ptr import BufferRegistry, GlobalPtr
from .network import MemorySpace

__all__ = ["DeviceOutOfMemory", "OomFallback", "DeviceAllocator"]


class DeviceOutOfMemory(MemoryError):
    """Raised when a device segment cannot satisfy an allocation."""


class OomFallback(Enum):
    """What to do when a device allocation fails (paper Section 4.2)."""

    CPU = "cpu"      # default: run the computation on the host instead
    RAISE = "raise"  # terminate the factorization with an exception


class DeviceAllocator:
    """Fixed-capacity device memory segment bound to one process.

    Attributes
    ----------
    device_id:
        Physical GPU index the owning process is bound to
        (``p mod gpus_per_node`` in the recommended cyclic binding).
    capacity:
        Segment size in bytes, installed as the ledger budget of the
        ``(rank, device)`` account (min-semantics: a tighter budget
        already on a shared ledger stays in force).
    registry:
        Buffer registry of the owning rank (device buffers are registered
        there with ``MemorySpace.DEVICE`` so RMA can address them).
    ledger:
        Shared byte-accounting ledger; private when omitted.
    rank:
        Owning process rank (the ledger account key).
    """

    def __init__(self, device_id: int, capacity: int,
                 registry: BufferRegistry,
                 kind: DeviceKind = DeviceKind.CUDA,
                 ledger: MemoryLedger | None = None,
                 rank: int = 0) -> None:
        self.device_id = device_id
        self.capacity = capacity
        self.registry = registry
        self.kind = kind
        self.ledger = ledger if ledger is not None else MemoryLedger()
        self.rank = rank
        self.ledger.ensure_budget(rank, MemorySpace.DEVICE, capacity)
        self.alloc_count = 0
        self.failed_allocs = 0
        self._sizes: dict[int, int] = {}
        self._ptrs: dict[int, GlobalPtr] = {}

    def allocate(self, shape: tuple[int, ...],
                 dtype: np.dtype | type = np.float64) -> GlobalPtr:
        """Allocate a device buffer; raises :class:`DeviceOutOfMemory` if full."""
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        try:
            self.ledger.charge(self.rank, MemorySpace.DEVICE, nbytes,
                               label="device")
        except MemoryBudgetExceeded as exc:
            self.failed_allocs += 1
            raise DeviceOutOfMemory(
                f"device {self.device_id}: requested {nbytes} bytes, "
                f"{self.available} available"
            ) from exc
        array = np.zeros(shape, dtype=dtype)
        ptr = self.registry.register(array, MemorySpace.DEVICE)
        self.alloc_count += 1
        self._sizes[ptr.buffer_id] = nbytes
        self._ptrs[ptr.buffer_id] = ptr
        return ptr

    def free(self, ptr: GlobalPtr) -> None:
        """Release a device buffer."""
        nbytes = self._sizes.pop(ptr.buffer_id, 0)
        self._ptrs.pop(ptr.buffer_id, None)
        self.ledger.release(self.rank, MemorySpace.DEVICE, nbytes,
                            label="device")
        self.registry.deregister(ptr)

    def release_all(self) -> None:
        """Free every outstanding allocation (end-of-run reclamation).

        The simulated engine allocates per-task staging buffers and a
        world lives for exactly one run, so the session calls this when
        the run completes — returning the rank's device account to its
        pre-run live bytes while the peak watermark survives in the
        ledger.
        """
        for buffer_id in sorted(self._ptrs):
            self.free(self._ptrs[buffer_id])

    @property
    def used(self) -> int:
        """Live bytes in this rank's device account."""
        return self.ledger.live(self.rank, MemorySpace.DEVICE)

    @property
    def peak(self) -> int:
        """Peak live bytes of this rank's device account."""
        return self.ledger.peak(self.rank, MemorySpace.DEVICE)

    @property
    def available(self) -> int:
        """Bytes remaining under the segment's ledger budget."""
        remaining = self.ledger.remaining(self.rank, MemorySpace.DEVICE)
        if remaining is None:
            return self.capacity - self.used
        return remaining
