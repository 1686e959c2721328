"""Experiment harness: platforms, measurement, figure drivers, reporting.

- :mod:`repro.experiments.platforms` — calibrated presets of the paper's
  three platforms (Kraken/Lustre, Grid'5000/PVFS, BluePrint/GPFS);
- :mod:`repro.experiments.harness` — run one (platform, strategy,
  workload) configuration and measure what the paper measures;
- :mod:`repro.experiments.figures` — one driver per table/figure of the
  evaluation section;
- :mod:`repro.experiments.executor` — cache-aware sweeps, serial or
  over one process pool (``REPRO_PARALLEL=N``), with bit-identical,
  seeded results;
- :mod:`repro.experiments.report` — paper-vs-measured table rendering.
"""

from repro.experiments.executor import (
    SweepTask,
    default_parallelism,
    run_sweep,
)
from repro.experiments.harness import ExperimentResult, run_experiment
from repro.experiments.platforms import (
    PlatformPreset,
    blueprint_preset,
    grid5000_preset,
    kraken_preset,
)

__all__ = [
    "ExperimentResult",
    "PlatformPreset",
    "SweepTask",
    "blueprint_preset",
    "default_parallelism",
    "grid5000_preset",
    "kraken_preset",
    "run_experiment",
    "run_sweep",
]
