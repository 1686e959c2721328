"""The file-per-process baseline (HDF5, one file per rank per phase).

Every rank creates its own file — no synchronisation between processes,
but N files per phase hammer the metadata servers (catastrophically so on
Lustre's single MDS) and N concurrent streams thrash every storage target.
Compression *is* possible in this mode (HDF5 gzip filter), at the price of
CPU time inside the write phase on the compute cores.
"""

from __future__ import annotations

from typing import Optional

from repro.formats.compression import CompressionModel
from repro.formats.hdf5model import HDF5
from repro.strategies.base import IOStrategy, StrategyContext

__all__ = ["FilePerProcessStrategy"]


class FilePerProcessStrategy(IOStrategy):
    """One HDF5 file per process per write phase."""

    name = "file-per-process"

    def __init__(self, compression: Optional[CompressionModel] = None
                 ) -> None:
        #: gzip-style model each rank runs before writing (None = raw).
        self.compression = compression

    def write_phase(self, ctx: StrategyContext, rank: int, phase: int):
        machine = ctx.machine
        node = ctx.comm.node_of(rank)
        data_bytes = ctx.bytes_per_rank

        if self.compression is not None:
            # gzip runs on the compute core, inside the write phase.
            started = machine.sim.now
            yield machine.sim.timeout(
                self.compression.cpu_seconds(data_bytes))
            raw_bytes = data_bytes
            data_bytes = self.compression.output_bytes(data_bytes)
            tracer = machine.sim.tracer
            if tracer.enabled:
                tracer.record_span(
                    "compress", f"phase{phase}",
                    f"node{node.index}/rank{rank}", started,
                    machine.sim.now, rank=rank, phase=phase,
                    nbytes=int(raw_bytes))

        pack = HDF5.pack_time(data_bytes)
        if pack > 0:
            yield machine.sim.timeout(pack)

        path = f"fpp/phase{phase}/rank{rank}.h5"
        file_bytes = HDF5.file_bytes(data_bytes, ctx.ndatasets)
        handle = yield from ctx.fs.create(node, path)
        yield from ctx.fs.write(handle, 0, int(file_bytes), label="fpp")
        yield from ctx.fs.close(handle)
