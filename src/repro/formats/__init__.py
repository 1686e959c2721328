"""Data layouts, compression codecs and the SHDF on-disk container.

- :mod:`repro.formats.layout` — typed, dimensioned descriptions of
  variables (the Damaris configuration's ``<layout>`` elements);
- :mod:`repro.formats.compression` — *real* codecs (zlib, 16-bit precision
  reduction) used by the threaded runtime and the compression-ratio
  benches, plus cost models used inside the DES;
- :mod:`repro.formats.shdf` — a real hierarchical scientific container
  (groups, chunked datasets, attributes, per-chunk compression) written by
  the examples — the stand-in for HDF5;
- :mod:`repro.formats.hdf5model` — the HDF5 *cost model* the simulated
  strategies charge (format overhead bytes, serialisation time).
"""

from repro.formats.layout import Layout
from repro.formats.compression import (
    Codec,
    CompressionModel,
    GzipCodec,
    Precision16Codec,
    compress_pipeline,
    decompress_pipeline,
)
from repro.formats.shdf import SHDFReader, SHDFWriter
from repro.formats.hdf5model import HDF5CostModel

__all__ = [
    "Codec",
    "CompressionModel",
    "GzipCodec",
    "HDF5CostModel",
    "Layout",
    "Precision16Codec",
    "SHDFReader",
    "SHDFWriter",
    "compress_pipeline",
    "decompress_pipeline",
]
