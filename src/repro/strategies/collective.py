"""The collective-I/O baseline (pHDF5 over two-phase MPI-IO).

All ranks synchronise on a shared file per phase. Two ROMIO behaviours:
``mode="two-phase"`` (Lustre/GPFS: exchange toward one aggregator per
node, chunked aggregator writes) and ``mode="direct"`` (PVFS: every rank
writes its region with data sieving). Either way the phase pays rendezvous
with the slowest rank, and compression is impossible (pHDF5 restriction,
Section II-B of the paper): this strategy takes no compression model.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MPIError
from repro.formats.hdf5model import HDF5
from repro.mpi.mpiio import (
    collective_close,
    collective_open,
    collective_write,
    collective_write_direct,
)
from repro.strategies.base import IOStrategy, StrategyContext

__all__ = ["CollectiveIOStrategy"]


class CollectiveIOStrategy(IOStrategy):
    """One shared pHDF5 file per write phase."""

    name = "collective-io"

    def __init__(self, stripe_count: Optional[int] = None,
                 stripe_size: Optional[int] = None,
                 mode: str = "two-phase") -> None:
        if mode not in ("two-phase", "direct"):
            raise MPIError(f"unknown collective mode {mode!r}")
        #: Stripe settings of the shared file (None = file system default).
        self.stripe_count = stripe_count
        self.stripe_size = stripe_size
        self.mode = mode

    def write_phase(self, ctx: StrategyContext, rank: int, phase: int):
        machine = ctx.machine
        data_bytes = ctx.bytes_per_rank
        pack = HDF5.pack_time(data_bytes)
        if pack > 0:
            yield machine.sim.timeout(pack)
        cfile = yield from collective_open(
            ctx.comm, rank, ctx.fs, f"collective/phase{phase}.h5",
            stripe_count=self.stripe_count, stripe_size=self.stripe_size,
            all_ranks_write=(self.mode == "direct"))
        # Per-rank payload: user data plus this rank's share of the
        # dataset headers (the file-level overhead is negligible).
        payload = int(data_bytes
                      + HDF5.dataset_overhead_bytes * ctx.ndatasets)
        if self.mode == "two-phase":
            yield from collective_write(cfile, rank, payload)
        else:
            yield from collective_write_direct(cfile, rank, payload)
        yield from collective_close(cfile, rank)
