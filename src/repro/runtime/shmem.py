"""Real shared-memory arena for the threaded runtime.

A :class:`RuntimeBuffer` owns a byte arena plus one of the two Damaris
allocation algorithms (:class:`~repro.core.shm.MutexAllocator` under a
real lock, or the lock-free :class:`~repro.core.shm.PartitionedAllocator`)
and hands out numpy views into reserved blocks — the ``dc_alloc`` path
gives the simulation a window it can compute into directly (zero copy).
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Tuple

import numpy as np

from repro.core.shm import Block, MutexAllocator, PartitionedAllocator
from repro.errors import ShmAllocationError
from repro.observe.tracer import NULL_TRACER, Tracer

__all__ = ["RuntimeBuffer"]


class RuntimeBuffer:
    """A byte arena with blocking allocation and numpy views."""

    def __init__(self, capacity: int, allocator: str = "mutex",
                 nclients: int = 1,
                 tracer: Optional[Tracer] = None,
                 trace_actor: str = "shm") -> None:
        self._arena = np.zeros(capacity, dtype=np.uint8)
        self.capacity = capacity
        if allocator == "mutex":
            self._allocator = MutexAllocator(capacity)
        elif allocator == "partitioned":
            self._allocator = PartitionedAllocator(capacity, nclients)
        else:
            raise ShmAllocationError(f"unknown allocator {allocator!r}")
        self._lock = threading.Lock()
        self._freed = threading.Condition(self._lock)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_actor = trace_actor
        #: Allocations that had to block at least once (not wakeups —
        #: spurious condition-variable wakeups must not inflate this).
        self.stalls = 0
        #: Bytes currently reserved (decremented on :meth:`free`).
        self.bytes_reserved = 0
        #: Cumulative bytes ever reserved (never decremented).
        self.bytes_reserved_total = 0

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._allocator.used_bytes

    def allocate(self, nbytes: int, client: int = 0,
                 timeout: Optional[float] = 30.0) -> Block:
        """Reserve ``nbytes``, blocking while the buffer is full.

        ``timeout`` is a real deadline: spurious (or unhelpful) wakeups
        re-wait only the remaining time, so a stream of frees that never
        makes room cannot postpone the :class:`ShmAllocationError`
        forever.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        stall_started = None
        stalled = False
        with self._freed:
            block = self._allocator.allocate(nbytes, client)
            while block is None:
                if not stalled:
                    # One stall per blocked allocation, however many
                    # times the condition variable wakes us.
                    stalled = True
                    self.stalls += 1
                    if self.tracer.enabled:
                        stall_started = self.tracer.now()
                if deadline is None:
                    self._freed.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 \
                            or not self._freed.wait(timeout=remaining):
                        # The longest stalls are the ones that time out;
                        # record them before raising so the trace keeps
                        # its most interesting spans.
                        if stall_started is not None:
                            self.tracer.record_span(
                                "shm_stall", "buffer_full",
                                self.trace_actor, stall_started,
                                self.tracer.now(), nbytes=int(nbytes),
                                client=client, timeout=True)
                        raise ShmAllocationError(
                            f"timed out waiting for {nbytes} B of buffer "
                            f"space (capacity {self.capacity} B)")
                block = self._allocator.allocate(nbytes, client)
            self.bytes_reserved += nbytes
            self.bytes_reserved_total += nbytes
        if stall_started is not None:
            self.tracer.record_span(
                "shm_stall", "buffer_full", self.trace_actor,
                stall_started, self.tracer.now(),
                nbytes=int(nbytes), client=client, timeout=False)
        return block

    def free(self, block: Block, client: int = 0) -> None:
        with self._freed:
            self._allocator.free(block, client)
            self.bytes_reserved -= block.size
            self._freed.notify_all()

    # ------------------------------------------------------------------ #
    # data access
    # ------------------------------------------------------------------ #
    def write_array(self, block: Block, array: np.ndarray) -> None:
        """Copy ``array`` into the block (the df_write memcpy)."""
        raw = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        if raw.size != block.size:
            raise ShmAllocationError(
                f"array of {raw.size} B does not fit block of "
                f"{block.size} B")
        self._arena[block.offset:block.end] = raw

    def view(self, block: Block, dtype: np.dtype,
             shape: Tuple[int, ...]) -> np.ndarray:
        """A live numpy view of the block (the dc_alloc window)."""
        count = block.size // np.dtype(dtype).itemsize
        flat = self._arena[block.offset:block.end].view(dtype)[:count]
        return flat.reshape(shape)

    def read_array(self, block: Block, dtype: np.dtype,
                   shape: Tuple[int, ...]) -> np.ndarray:
        """Copy the block's content out as an owned array (server side)."""
        return self.view(block, dtype, shape).copy()
