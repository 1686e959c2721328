#!/usr/bin/env python3
"""Leveraging the dedicated cores' spare time (paper Section IV-D).

The dedicated cores are idle 75-99 % of the time. This example runs the
Damaris strategy on the simulated Kraken with the two spare-time features
the paper evaluates — lossless compression and contention-avoiding
transfer-slot scheduling — and prints their effect on the dedicated-core
write time and on storage volume (Figure 7's tradeoff).

Run:  python examples/spare_time_scheduling.py [cores]
      (cores must be a multiple of 12; default 576, the paper's smallest)
"""

import sys

import numpy as np

from repro.core.server import DamarisOptions
from repro.experiments.harness import run_experiment
from repro.experiments.platforms import kraken_preset
from repro.experiments.report import render_table
from repro.formats.compression import GZIP_MODEL
from repro.strategies import DamarisStrategy
from repro.units import GB, fmt_time

PHASES = 3


def main() -> None:
    ncores = int(sys.argv[1]) if len(sys.argv) > 1 else 576
    preset = kraken_preset()
    variants = [
        ("plain", DamarisStrategy()),
        ("+ scheduling", DamarisStrategy(
            options=DamarisOptions(use_scheduler=True))),
        ("+ gzip", DamarisStrategy(
            options=DamarisOptions(compression=GZIP_MODEL))),
        ("+ gzip + scheduling", DamarisStrategy(
            options=DamarisOptions(compression=GZIP_MODEL,
                                   use_scheduler=True))),
    ]
    rows = []
    for label, strategy in variants:
        machine, fs, workload = preset.build(ncores, seed=9)
        result = run_experiment(machine, fs, workload, strategy,
                                write_phases=PHASES)
        deployment = strategy.deployment
        totals = deployment.total_bytes()
        rows.append({
            "variant": label,
            "dedicated write (avg)": fmt_time(
                float(np.mean(result.dedicated_write_times))),
            "spare": f"{100 * result.spare_fraction:.0f} %",
            "stored volume": f"{totals['out'] / GB:.2f} GB",
            "client write phase": fmt_time(result.avg_write_phase),
        })
        print(f"  {label}: done")

    print()
    print(render_table(rows))
    print("\nScheduling staggers the dedicated cores' writes into slots "
          "and lowers contention; compression trades dedicated-core time "
          "for a ~1.9x smaller footprint. Both are invisible to the "
          "simulation (constant client write phase).")


if __name__ == "__main__":
    main()
