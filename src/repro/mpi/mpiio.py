"""MPI-IO: independent and collective writes (ROMIO-style).

Collective writes are the paper's "collective-I/O" baseline (pHDF5 over
MPI-IO). Two ROMIO behaviours are modelled:

- **two-phase** (``mode="two-phase"``, ROMIO's collective buffering, the
  Lustre/GPFS default): all ranks synchronise, ship their data to one
  *aggregator* rank per node, and each aggregator writes its contiguous
  file region in ``cb_buffer``-sized rounds — large requests, few writers,
  but everything drains through the shared file's stripe set and the
  rounds serialise per aggregator;
- **direct** (``mode="direct"``, what ROMIO does on PVFS, which supports
  noncontiguous I/O natively): every rank writes its own region with data
  sieving — no exchange, but N concurrent writers and a bounded access
  granularity (the sieve buffer).

The costs modelled: rendezvous with the slowest rank, exchange flows over
NICs/fabric, stripe-lock conflicts (where the file system has locks),
request-granularity and writer-concurrency penalties at the storage
targets, and the closing barrier — the paper's write phase is "the time
between the two barriers delimiting the I/O phase".

Layout. Each write phase appends its data after the previous phases', in
rank order. The aggregator list (one rank per node by default) must be
non-empty, strictly increasing and within ``[0, size)``; aggregator ``i``
collects the contiguous block of ranks ``r * A // P == i`` (``A``
aggregators, ``P`` ranks), so its region follows aggregator ``i - 1``'s.
The first rank past a phase's allgather computes that phase's layout —
the phase total, every rank's offset and every aggregator's
``(offset, nbytes)`` region — once, in O(P), and caches it on the
:class:`CollectiveFile`; every rank then does O(1) work.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import MPIError
from repro.mpi.comm import Communicator
from repro.units import MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.filesystem import FileHandle, ParallelFileSystem

__all__ = ["CollectiveFile", "collective_open", "collective_write",
           "collective_close", "default_aggregators"]


class _PhaseLayout:
    """Where one write phase puts each rank's data.

    ``offsets[r]`` is the file offset of rank ``r``'s data;
    ``regions[i]`` is the ``(offset, nbytes)`` that aggregator ``i``
    writes: the data of its block of ranks, contiguous in rank order."""

    __slots__ = ("offsets", "regions")

    def __init__(self, volumes: Sequence[float], base: int,
                 naggs: int) -> None:
        # Running sums add in rank order, like sum(volumes[:r]).
        self.offsets = [base + int(prefix)
                        for prefix in accumulate(volumes[:-1], initial=0)]
        nranks = len(volumes)
        self.regions = []
        lo = 0
        for index in range(1, naggs + 1):
            hi = -(-index * nranks // naggs)  # first rank of the next block
            self.regions.append((self.offsets[lo],
                                 int(sum(volumes[lo:hi]))))
            lo = hi


class CollectiveFile:
    """A shared file opened collectively, with aggregator assignment."""

    def __init__(self, comm: Communicator, fs: "ParallelFileSystem",
                 path: str, aggregators: List[int],
                 handles: Dict[int, "FileHandle"]) -> None:
        self.comm = comm
        self.fs = fs
        self.path = path
        self.aggregators = aggregators
        #: Aggregator rank → its position in ``aggregators``.
        self._aggregator_index = {agg: index
                                  for index, agg in enumerate(aggregators)}
        self.handles = handles  # per-writer FileHandle
        #: Total bytes of each write phase, keyed by phase index.
        self.phase_totals: Dict[int, int] = {}
        #: Per-rank count of collective writes issued (phase index).
        self._rank_phase: Dict[int, int] = {}
        #: Layout of each write phase, keyed by phase index.
        self._layouts: Dict[int, _PhaseLayout] = {}

    def _enter_phase(self, rank: int) -> int:
        phase = self._rank_phase.get(rank, 0)
        self._rank_phase[rank] = phase + 1
        return phase

    def _layout(self, phase: int, volumes: Sequence[float]) -> _PhaseLayout:
        """The phase's layout, computed by the first rank to ask."""
        layout = self._layouts.get(phase)
        if layout is None:
            self.phase_totals[phase] = int(sum(volumes))
            layout = self._layouts[phase] = _PhaseLayout(
                volumes, self.offset_of_phase(phase), len(self.aggregators))
        return layout

    def offset_of_phase(self, phase: int) -> int:
        """File offset where the given write phase begins."""
        return sum(total for k, total in self.phase_totals.items()
                   if k < phase)

    def aggregator_of(self, rank: int) -> int:
        """The aggregator that rank's data is shipped to."""
        index = rank * len(self.aggregators) // self.comm.size
        return self.aggregators[index]


def default_aggregators(comm: Communicator) -> List[int]:
    """One aggregator rank per node (ROMIO's ``cb_config_list`` default)."""
    seen = {}
    for rank, core in enumerate(comm.cores):
        if core.node.index not in seen:
            seen[core.node.index] = rank
    return sorted(seen.values())


def _checked_aggregators(aggregators: Sequence[int], size: int) -> List[int]:
    aggs = list(aggregators)
    if not aggs or aggs[0] < 0 or aggs[-1] >= size \
            or any(a >= b for a, b in zip(aggs, aggs[1:])):
        raise MPIError(
            f"aggregators must be a non-empty, strictly increasing list of "
            f"ranks in [0, {size}), got {aggs!r}")
    return aggs


def _check_nbytes(nbytes: float) -> None:
    if not 0 <= nbytes < math.inf:
        raise MPIError(
            f"collective write size must be finite and >= 0, got {nbytes!r}")


def collective_open(comm: Communicator, rank: int,
                    fs: "ParallelFileSystem", path: str,
                    stripe_count: Optional[int] = None,
                    stripe_size: Optional[int] = None,
                    aggregators: Optional[Sequence[int]] = None,
                    all_ranks_write: bool = False):
    """Process: collectively create + open ``path``; returns CollectiveFile.

    Rank 0 resolves the aggregator list (``aggregators``, or one rank per
    node) and creates the file; the result is broadcast, and the other
    writer ranks (the aggregators, or everyone when ``all_ranks_write``)
    each open a handle.
    """
    shared: Optional[CollectiveFile] = None
    if rank == 0:
        aggs = default_aggregators(comm) if aggregators is None \
            else _checked_aggregators(aggregators, comm.size)
        handle0 = yield from fs.create(comm.node_of(0), path,
                                       stripe_count=stripe_count,
                                       stripe_size=stripe_size)
        shared = CollectiveFile(comm, fs, path, aggs, {0: handle0})
    shared = yield from comm.bcast(rank, shared, root=0, nbytes=512)
    if rank != 0 and (all_ranks_write or rank in shared._aggregator_index):
        handle = yield from fs.open(comm.node_of(rank), path)
        shared.handles[rank] = handle
    yield from comm.barrier(rank)
    return shared


def collective_write(cfile: CollectiveFile, rank: int, nbytes: int,
                     cb_buffer: int = 16 * MiB):
    """Process: two-phase collective write of ``nbytes`` from each rank.

    Rank data is laid out in rank order at the file's current offset; each
    rank's block is shipped to its aggregator, which writes its contiguous
    region in ``cb_buffer``-sized rounds. All ranks return after the
    closing barrier.
    """
    if cb_buffer < 1:
        raise MPIError(f"cb_buffer must be >= 1, got {cb_buffer}")
    _check_nbytes(nbytes)
    comm = cfile.comm

    phase = cfile._enter_phase(rank)
    volumes = yield from comm.allgather(rank, nbytes, nbytes=8.0)
    layout = cfile._layout(phase, volumes)

    my_aggregator = cfile.aggregator_of(rank)
    yield from comm.alltoallv(
        rank, {} if rank == my_aggregator else {my_aggregator: float(nbytes)})

    index = cfile._aggregator_index.get(rank)
    if index is not None:
        offset, region = layout.regions[index]
        # Collective-buffering rounds: cb_buffer bytes at a time.
        position = 0
        while position < region:
            chunk = min(cb_buffer, region - position)
            yield from cfile.fs.write(cfile.handles[rank],
                                      offset + position, chunk,
                                      label="cw")
            position += chunk
    yield from comm.barrier(rank)
    return nbytes


def collective_write_direct(cfile: CollectiveFile, rank: int, nbytes: int,
                            sieve_buffer: int = 4 * MiB):
    """Process: direct (non-aggregated) collective write with data sieving.

    Every rank writes its own rank-ordered region; the storage servers see
    N concurrent writers whose access granularity is the sieve buffer
    (ROMIO's behaviour on PVFS, which handles noncontiguous I/O natively
    and does no client locking)."""
    if sieve_buffer < 1:
        raise MPIError(f"sieve_buffer must be >= 1, got {sieve_buffer}")
    _check_nbytes(nbytes)
    comm = cfile.comm
    if rank not in cfile.handles:
        raise MPIError(
            "direct collective write requires collective_open(..., "
            "all_ranks_write=True)")
    phase = cfile._enter_phase(rank)
    volumes = yield from comm.allgather(rank, nbytes, nbytes=8.0)
    my_offset = cfile._layout(phase, volumes).offsets[rank]
    if nbytes > 0:
        yield from cfile.fs.write(cfile.handles[rank], my_offset,
                                  int(nbytes),
                                  granularity=float(sieve_buffer),
                                  label="cw-direct")
    yield from comm.barrier(rank)
    return nbytes


def collective_close(cfile: CollectiveFile, rank: int):
    """Process: collectively close the shared file."""
    if rank in cfile.handles:
        yield from cfile.fs.close(cfile.handles[rank])
    yield from cfile.comm.barrier(rank)
