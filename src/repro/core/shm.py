"""Shared-memory segment and its two allocation algorithms.

Section III-B: *"A large memory buffer is created by the dedicated core at
start time, with a size chosen by the user. [...] Damaris uses the default
mutex-based allocation algorithm of the Boost library to allow concurrent
atomic reservation of segments by multiple clients. We also implemented
another lock-free reservation algorithm: when all clients are expected to
write the same amount of data, the shared-memory buffer is split in as
many parts as clients and each client uses its own region."*

Both allocators here are pure bookkeeping (offset arithmetic, no clock):
the DES charges their time costs explicitly, and the threaded runtime
wraps them in real locks.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ShmAllocationError

__all__ = ["Block", "SharedMemorySegment", "MutexAllocator",
           "PartitionedAllocator"]


class Block(NamedTuple):
    """A reserved region of the shared buffer (an immutable named tuple,
    built once per write)."""

    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size


class Allocator:
    """Interface shared by the two reservation algorithms."""

    #: Registry name (matches the XML ``allocator=`` attribute).
    name = "abstract"

    def allocate(self, nbytes: int, client: int = 0) -> Optional[Block]:
        """Reserve ``nbytes``; None when the buffer cannot satisfy it now."""
        raise NotImplementedError

    def free(self, block: Block, client: int = 0) -> None:
        raise NotImplementedError

    @property
    def used_bytes(self) -> int:
        raise NotImplementedError


class MutexAllocator(Allocator):
    """First-fit free-list allocator (Boost's default, mutex-protected).

    Any client may reserve any amount; adjacent free regions coalesce on
    release. The *mutex* aspect is a serialisation cost charged by the
    caller (DES) or a real lock (runtime) — the bookkeeping itself is
    identical.
    """

    name = "mutex"

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ShmAllocationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Sorted list of (offset, size) free extents.
        self._free: List[Tuple[int, int]] = [(0, capacity)]
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._used

    @property
    def largest_free_extent(self) -> int:
        return max((size for _, size in self._free), default=0)

    def allocate(self, nbytes: int, client: int = 0) -> Optional[Block]:
        if nbytes < 1:
            raise ShmAllocationError(f"cannot allocate {nbytes} bytes")
        if nbytes > self.capacity:
            raise ShmAllocationError(
                f"request of {nbytes} B exceeds the whole buffer "
                f"({self.capacity} B)")
        for position, (offset, size) in enumerate(self._free):
            if size >= nbytes:
                if size == nbytes:
                    self._free.pop(position)
                else:
                    self._free[position] = (offset + nbytes, size - nbytes)
                self._used += nbytes
                return Block(offset, nbytes)
        return None

    def free(self, block: Block, client: int = 0) -> None:
        self._used -= block.size
        if self._used < 0:
            raise ShmAllocationError("double free detected")
        # Insert and coalesce with neighbours.
        entry = (block.offset, block.size)
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < entry[0]:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, entry)
        self._coalesce(lo)

    def _coalesce(self, position: int) -> None:
        # Merge with successor first, then predecessor.
        if position + 1 < len(self._free):
            offset, size = self._free[position]
            next_offset, next_size = self._free[position + 1]
            if offset + size > next_offset:
                raise ShmAllocationError("overlapping free (double free?)")
            if offset + size == next_offset:
                self._free[position] = (offset, size + next_size)
                self._free.pop(position + 1)
        if position > 0:
            prev_offset, prev_size = self._free[position - 1]
            offset, size = self._free[position]
            if prev_offset + prev_size > offset:
                raise ShmAllocationError("overlapping free (double free?)")
            if prev_offset + prev_size == offset:
                self._free[position - 1] = (prev_offset, prev_size + size)
                self._free.pop(position)


class PartitionedAllocator(Allocator):
    """Lock-free allocator: one fixed region per client, bump-allocated.

    Requires all clients to write comparable volumes (the paper's stated
    precondition). Each client's region is a private bump arena, reset
    when all of its blocks are freed.
    """

    name = "partitioned"

    def __init__(self, capacity: int, nclients: int) -> None:
        if capacity < 1:
            raise ShmAllocationError(f"capacity must be >= 1, got {capacity}")
        if nclients < 1:
            raise ShmAllocationError(f"need >= 1 client, got {nclients}")
        self.capacity = capacity
        self.nclients = nclients
        self.region_size = capacity // nclients
        if self.region_size < 1:
            raise ShmAllocationError(
                f"buffer of {capacity} B cannot be split into {nclients} "
                "client regions")
        self._cursor: Dict[int, int] = {}
        self._live: Dict[int, int] = {}
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def region_of(self, client: int) -> Block:
        self._check_client(client)
        return Block(client * self.region_size, self.region_size)

    def allocate(self, nbytes: int, client: int = 0) -> Optional[Block]:
        self._check_client(client)
        if nbytes < 1:
            raise ShmAllocationError(f"cannot allocate {nbytes} bytes")
        if nbytes > self.region_size:
            raise ShmAllocationError(
                f"request of {nbytes} B exceeds the client region "
                f"({self.region_size} B)")
        cursor = self._cursor.get(client, 0)
        if cursor + nbytes > self.region_size:
            return None
        base = client * self.region_size
        self._cursor[client] = cursor + nbytes
        self._live[client] = self._live.get(client, 0) + 1
        self._used += nbytes
        return Block(base + cursor, nbytes)

    def free(self, block: Block, client: int = 0) -> None:
        self._check_client(client)
        live = self._live.get(client, 0)
        if live < 1:
            raise ShmAllocationError(
                f"client {client} frees a block it does not hold")
        self._live[client] = live - 1
        self._used -= block.size
        if self._live[client] == 0:
            # Arena empty: rewind the bump cursor.
            self._cursor[client] = 0

    def _check_client(self, client: int) -> None:
        if not 0 <= client < self.nclients:
            raise ShmAllocationError(
                f"client id {client} out of range 0..{self.nclients - 1}")


class SharedMemorySegment:
    """The buffer one dedicated core serves, with a pluggable allocator."""

    def __init__(self, capacity: int, allocator: str = "mutex",
                 nclients: int = 1) -> None:
        self.capacity = capacity
        if allocator == "mutex":
            self.allocator: Allocator = MutexAllocator(capacity)
        elif allocator == "partitioned":
            self.allocator = PartitionedAllocator(capacity, nclients)
        else:
            raise ShmAllocationError(f"unknown allocator {allocator!r}")
        #: Total bytes that ever passed through the buffer.
        self.bytes_reserved = 0
        #: Allocation attempts that had to wait for space.
        self.stalls = 0

    def allocate(self, nbytes: int, client: int = 0) -> Optional[Block]:
        block = self.allocator.allocate(nbytes, client)
        if block is not None:
            self.bytes_reserved += nbytes
        else:
            self.stalls += 1
        return block

    def free(self, block: Block, client: int = 0) -> None:
        self.allocator.free(block, client)

    @property
    def used_bytes(self) -> int:
        return self.allocator.used_bytes
