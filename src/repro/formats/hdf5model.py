"""HDF5 / pHDF5 cost semantics for the simulated I/O strategies.

The DES never moves real bytes, so it needs a model of what the I/O
library adds on top of the raw data: format/metadata overhead bytes and
serialisation CPU time. :data:`HDF5` is the one instance every strategy
and the Damaris server charge. The paper's other HDF5 constraint —
**collective pHDF5 cannot compress** ("none of today's data formats
offers compression features using this approach", Section II-B) — is a
property of the strategies: the collective one takes no compression
model, and a sweep spec that asks it for one is rejected
(:func:`repro.experiments.specs.validate_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import KiB

__all__ = ["HDF5", "HDF5CostModel"]


@dataclass(frozen=True)
class HDF5CostModel:
    """Overheads charged per file and per dataset by the HDF5 layer."""

    #: Fixed bytes of superblock/header per file.
    file_overhead_bytes: float = 2 * KiB
    #: Bytes of object headers + b-tree per dataset.
    dataset_overhead_bytes: float = 1 * KiB
    #: CPU seconds per byte for in-memory serialisation (hyperslab packing).
    pack_seconds_per_byte: float = 1.0 / (2.0e9)

    def file_bytes(self, data_bytes: float, ndatasets: int) -> float:
        """Total bytes landing in the file for ``data_bytes`` of user data."""
        return (data_bytes + self.file_overhead_bytes
                + self.dataset_overhead_bytes * max(ndatasets, 0))

    def pack_time(self, data_bytes: float) -> float:
        """CPU time to stage/serialise the data before the write call."""
        return data_bytes * self.pack_seconds_per_byte


#: The cost model of every simulated HDF5 file (FPP, collective, Damaris).
HDF5 = HDF5CostModel()
