"""Parallel file system base: files, handles, create/open/write/close paths.

All I/O entry points are generator functions that a rank or server
program delegates to with ``yield from`` (or runs as its own process
with ``machine.sim.process(...)``); they charge metadata queueing, lock
acquisition and bandwidth-shared data movement as the paper's mechanisms
dictate. ``write`` and ``read`` split a request over the file's stripes
and wait on one completion event per target segment
(:meth:`~repro.storage.disk.StorageTarget.write_segment`); segments are
callback chains, not processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.des.process import AllOf
from repro.errors import (
    FileExistsInFSError,
    FileNotFoundInFSError,
    StorageError,
)
from repro.storage.disk import StorageTarget, TargetSpec
from repro.storage.locks import ExtentLockManager
from repro.storage.metadata import MetadataServer, MetadataSpec
from repro.storage.striping import StripeLayout, pick_targets
from repro.units import MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machine import Machine
    from repro.cluster.node import SMPNode

__all__ = ["SimFile", "FileHandle", "ParallelFileSystem"]


@dataclass
class SimFile:
    """A file known to the file system."""

    file_id: int
    path: str
    layout: StripeLayout
    size: int = 0
    open_handles: int = 0

    @property
    def shared(self) -> bool:
        """More than one handle open — lock conflicts become possible."""
        return self.open_handles > 1


@dataclass
class FileHandle:
    """An open file from the point of view of one client."""

    file: SimFile
    node: "SMPNode"
    owner: int
    closed: bool = False


class ParallelFileSystem:
    """Shared base of the Lustre/PVFS/GPFS models."""

    #: Human-readable name, overridden by subclasses.
    fs_type = "generic"

    def __init__(self, machine: "Machine", ntargets: int,
                 target_spec: Optional[TargetSpec] = None,
                 metadata_spec: Optional[MetadataSpec] = None,
                 n_metadata_servers: int = 1,
                 default_stripe_size: int = 1 * MiB,
                 default_stripe_count: int = 4,
                 lock_manager: Optional[ExtentLockManager] = None,
                 name: str = "fs") -> None:
        if ntargets < 1:
            raise StorageError(f"need >= 1 storage target, got {ntargets}")
        if n_metadata_servers < 1:
            raise StorageError("need >= 1 metadata server")
        self.machine = machine
        self.name = name
        self.targets: List[StorageTarget] = [
            StorageTarget(machine, f"{name}.t{i}",
                          target_spec or TargetSpec())
            for i in range(ntargets)
        ]
        self.metadata_servers: List[MetadataServer] = [
            MetadataServer(machine, f"{name}.mds{i}",
                           metadata_spec or MetadataSpec())
            for i in range(n_metadata_servers)
        ]
        self.default_stripe_size = default_stripe_size
        self.default_stripe_count = default_stripe_count
        self.locks = lock_manager
        self._files: Dict[str, SimFile] = {}
        self._next_file_id = 0
        self._next_first_target = 0
        self.bytes_written = 0.0
        self.files_created = 0

    # ------------------------------------------------------------------ #
    # metadata routing (overridden by subclasses)
    # ------------------------------------------------------------------ #
    def _mds_for(self, path: str) -> MetadataServer:
        """Which metadata server serves ``path`` (default: the single one)."""
        return self.metadata_servers[0]

    # ------------------------------------------------------------------ #
    # namespace operations
    # ------------------------------------------------------------------ #
    def exists(self, path: str) -> bool:
        return path in self._files

    def lookup(self, path: str) -> SimFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInFSError(path) from None

    def create(self, node: "SMPNode", path: str,
               stripe_count: Optional[int] = None,
               stripe_size: Optional[int] = None):
        """Process: create + open ``path``; returns a :class:`FileHandle`."""
        yield from self._mds_for(path).operate("create")
        if path in self._files:
            raise FileExistsInFSError(path)
        count = stripe_count if stripe_count is not None \
            else self.default_stripe_count
        size = stripe_size if stripe_size is not None \
            else self.default_stripe_size
        targets = pick_targets(len(self.targets), count,
                               self._next_first_target)
        self._next_first_target = (self._next_first_target + count) \
            % len(self.targets)
        file = SimFile(self._next_file_id, path,
                       StripeLayout(size, targets))
        self._next_file_id += 1
        self._files[path] = file
        self.files_created += 1
        file.open_handles += 1
        return FileHandle(file, node, owner=node.index)

    def open(self, node: "SMPNode", path: str):
        """Process: open an existing file; returns a :class:`FileHandle`."""
        yield from self._mds_for(path).operate("open")
        file = self.lookup(path)
        file.open_handles += 1
        return FileHandle(file, node, owner=node.index)

    def close(self, handle: FileHandle):
        """Process: close a handle."""
        if handle.closed:
            raise StorageError(f"double close of {handle.file.path!r}")
        yield from self._mds_for(handle.file.path).operate("close")
        handle.closed = True
        handle.file.open_handles -= 1

    def unlink(self, path: str):
        """Process: remove a file from the namespace."""
        yield from self._mds_for(path).operate("stat")
        self.lookup(path)
        del self._files[path]

    # ------------------------------------------------------------------ #
    # data path
    # ------------------------------------------------------------------ #
    def write(self, handle: FileHandle, offset: int, nbytes: int,
              granularity: Optional[float] = None, label: str = "write"):
        """Process: write ``nbytes`` at ``offset`` through ``handle``.

        Splits the request over the file's stripes; per-target segments
        move concurrently and the write completes when the slowest segment
        lands. Shared files pay lock acquisition first. ``granularity``
        is the contiguous access size the storage servers observe
        (defaults to the per-target segment size; smaller for strided or
        data-sieved writes).
        """
        if handle.closed:
            raise StorageError(f"write on closed handle {handle.file.path!r}")
        if nbytes <= 0:
            return 0
        sim = self.machine.sim
        started = sim.now
        file = handle.file
        segments = file.layout.split(offset, nbytes)
        if self.locks is not None and file.shared:
            if self.locks.expansive:
                yield from self.locks.acquire_expansive(
                    file.file_id, handle.owner, segments)
            else:
                full, partial = self._classify_stripes(file.layout, offset,
                                                       nbytes)
                yield from self.locks.acquire(file.file_id, handle.owner,
                                              full, partial)
        transfers = [
            self.targets[t].write_segment(handle.node, seg_bytes,
                                          file_id=file.file_id,
                                          granularity=granularity,
                                          label=label)
            for t, seg_bytes in segments.items()
        ]
        if len(transfers) == 1:
            yield transfers[0]
        else:
            yield AllOf(sim, transfers)
        file.size = max(file.size, offset + nbytes)
        self.bytes_written += nbytes
        tracer = sim.tracer
        if tracer.enabled:
            tracer.record_span(
                "fs_write", label, f"node{handle.node.index}/fs",
                started, sim.now, path=file.path, nbytes=int(nbytes),
                owner=handle.owner, shared=file.shared,
                **file.layout.trace_attrs(offset, nbytes))
        return nbytes

    @staticmethod
    def _classify_stripes(layout: StripeLayout, offset: int, nbytes: int):
        """Split a request's stripes into fully-covered stripe numbers and
        (stripe, flush bytes) pairs for the ragged boundary stripes.

        A revoked boundary-stripe lock forces the previous holder to flush
        its dirty data for that stripe — up to a whole stripe. This is why
        oversized stripes (the paper's 32 MB experiment) hurt shared-file
        writes: every revocation flushes stripe_size bytes serially."""
        end = offset + nbytes
        size = layout.stripe_size
        first = offset // size
        last = (end - 1) // size
        partial: List = []
        full_start, full_end = first, last + 1
        if offset % size:
            partial.append((first, size))
            full_start = first + 1
        if end % size and last >= full_start:
            partial.append((last, size))
            full_end = last
        return range(full_start, max(full_start, full_end)), partial

    def read(self, handle: FileHandle, offset: int, nbytes: int,
             label: str = "read"):
        """Process: read ``nbytes`` at ``offset`` (for analysis workloads)."""
        if handle.closed:
            raise StorageError(f"read on closed handle {handle.file.path!r}")
        if nbytes <= 0:
            return 0
        segments = handle.file.layout.split(offset, nbytes)
        transfers = [
            self.targets[t].read_segment(handle.node, seg_bytes,
                                         file_id=handle.file.file_id,
                                         label=label)
            for t, seg_bytes in segments.items()
        ]
        yield AllOf(self.machine.sim, transfers)
        return nbytes

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def file_count(self) -> int:
        return len(self._files)

    def target_balance(self) -> List[float]:
        """Bytes written per target (to inspect striping balance)."""
        return [t.bytes_written for t in self.targets]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"targets={len(self.targets)} files={self.file_count}>")
