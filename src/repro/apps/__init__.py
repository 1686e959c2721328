"""Applications: the CM1 mini-kernel, its DES workload model and its
post-processing.

- :mod:`repro.apps.cm1` — a real (numpy) non-hydrostatic atmospheric
  kernel producing CM1-like 3-D fields; used by the examples and the
  compression-ratio bench (real entropy matters there);
- :mod:`repro.apps.workload` — the DES-side description of CM1's
  behaviour: domain decomposition, per-core output volume, compute time
  per iteration (the paper's weak-scaling configurations for Kraken,
  Grid'5000 and BluePrint);
- :mod:`repro.apps.postproc` — storm diagnostics over written outputs.
"""

from repro.apps.cm1 import MiniCM1
from repro.apps.workload import CM1Workload
from repro.apps.postproc import (
    OutputCatalog,
    StormDiagnostics,
    storm_time_series,
)

__all__ = [
    "CM1Workload",
    "MiniCM1",
    "OutputCatalog",
    "StormDiagnostics",
    "storm_time_series",
]
