"""Per-figure experiment drivers.

Each function reproduces one table/figure of the paper's evaluation
(Section IV) from the calibrated platform presets and returns a
:class:`~repro.experiments.report.FigureReport`. The benches in
``benchmarks/`` call these and print the rendered tables; EXPERIMENTS.md
records paper-vs-measured.

``REPRO_FAST=1`` in the environment trims the sweeps (smaller scales,
fewer phases) for quick runs; the full sweeps match the paper.

Every driver expresses its sweep as a list of picklable, seeded *spec*
dicts (platform preset, core count, strategy description, seed) run
through :func:`repro.experiments.executor.run_sweep`, so the sweeps
parallelise and cache with bit-identical results under the knobs of
:mod:`repro.config`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import config
from repro.analysis.model import breakeven_io_fraction, dedication_benefit
from repro.analysis.scalability import scalability_factor
from repro.analysis.stats import jitter_stats
from repro.apps.workload import CM1Workload
from repro.experiments.executor import SweepTask, run_sweep
from repro.experiments.harness import ExperimentResult
from repro.experiments.platforms import blueprint_preset
from repro.experiments.report import FigureReport
from repro.experiments.specs import run_spec
from repro.units import GB, MB, MiB

__all__ = [
    "fig2_write_phase_kraken",
    "fig3_blueprint_volume",
    "fig4_scalability_kraken",
    "fig5_spare_time",
    "fig6_throughput_kraken",
    "table1_grid5000",
    "fig7_spare_strategies",
    "fig_fault_degradation",
    "model_breakeven",
    "default_fault_schedule",
    "fast_mode",
    "kraken_scales",
]


def fast_mode() -> bool:
    return config.get("REPRO_FAST")


def kraken_scales() -> Tuple[int, ...]:
    """Core counts for the Kraken sweeps (paper: 576 → 9216)."""
    if fast_mode():
        return (576, 1152)
    return (576, 2304, 9216)


# ---------------------------------------------------------------------- #
# Picklable sweep specs
# ---------------------------------------------------------------------- #
# A spec fully describes one experiment run as plain data so it can cross
# a process boundary: {"preset": ..., "ncores": ..., "strategy": {"kind":
# ..., per-kind fields}, "seed": ..., optional "nvariables"/"write_phases"}.
# The spec vocabulary (validation, strategy construction, execution) lives in
# :mod:`repro.experiments.specs`, shared with the repro.service job
# server — a spec submitted over the wire runs exactly the code path a
# figure driver fans out locally.


def _sweep(specs: Sequence[Dict[str, Any]],
           prefix: str) -> List[ExperimentResult]:
    tasks = []
    for i, spec in enumerate(specs):
        label = (f"{prefix}/{spec['preset']}/{spec['ncores']}"
                 f"/{spec['strategy']['kind']}")
        # The index keeps trace files apart when a sweep repeats the
        # same (preset, scale, strategy) with different parameters.
        spec = dict(spec, trace_label=f"{label}/{i:02d}")
        tasks.append(SweepTask(run_spec, (spec,), label=label))
    return run_sweep(tasks)


# The three paper strategies, in the order every Kraken sweep uses.
_KRAKEN_TRIO = ({"kind": "fpp"}, {"kind": "collective"}, {"kind": "damaris"})


# ---------------------------------------------------------------------- #
# Fig. 2 — write-phase duration on Kraken
# ---------------------------------------------------------------------- #
def fig2_write_phase_kraken(scales: Optional[Sequence[int]] = None,
                            seed: int = 42) -> FigureReport:
    """Average and maximum duration of a write phase, seen by the
    simulation, for the three approaches on Kraken."""
    report = FigureReport(
        figure="Figure 2",
        title="Write-phase duration on Kraken (simulation's view)",
        paper_claims=[
            "Collective-I/O reaches ~481 s average / ~800 s max at 9216 "
            "cores (~70 % of run time)",
            "File-per-process is faster but unpredictable (spread ~±17 s)",
            "Damaris cuts the write phase to ~0.2 s (±~0.1 s), "
            "independent of scale",
            "32 MB Lustre stripes double the collective write time",
        ])
    scales = tuple(scales) if scales is not None else kraken_scales()
    specs = [
        {"preset": "kraken", "ncores": ncores, "strategy": dict(strategy),
         "seed": seed}
        for ncores in scales
        for strategy in _KRAKEN_TRIO
    ]
    # The stripe-size misconfiguration experiment, at the largest scale.
    big = scales[-1]
    specs.append({"preset": "kraken", "ncores": big,
                  "strategy": {"kind": "collective",
                               "stripe_size": 32 * MiB},
                  "seed": seed, "write_phases": 1})
    results = _sweep(specs, "fig2")
    for result in results[:-1]:
        stats = jitter_stats([p.duration for p in result.phases])
        report.rows.append({
            "strategy": result.strategy,
            "cores": result.ncores,
            "avg_s": stats.mean,
            "max_s": stats.maximum,
            "spread_s": stats.spread,
        })
    oversized = results[-1]
    report.rows.append({
        "strategy": "collective-io (32MB stripes)",
        "cores": big,
        "avg_s": oversized.avg_write_phase,
        "max_s": oversized.max_write_phase,
        "spread_s": 0.0,
    })
    return report


# ---------------------------------------------------------------------- #
# Fig. 3 — write-phase duration vs data volume on BluePrint
# ---------------------------------------------------------------------- #
def fig3_blueprint_volume(ncores: int = 1024,
                          variable_counts: Optional[Sequence[int]] = None,
                          seed: int = 42) -> FigureReport:
    """FPP vs Damaris on BluePrint (1024 cores) as the per-phase output
    volume grows (variables enabled/disabled; gzip enabled for FPP)."""
    report = FigureReport(
        figure="Figure 3",
        title="Write-phase duration vs data volume on BluePrint "
              "(1024 cores, GPFS)",
        paper_claims=[
            "File-per-process variability grows with the output volume",
            "Damaris stays at ~0.2 s (±0.1 s) for the largest volume",
        ])
    if variable_counts is None:
        variable_counts = (2, 4, 6) if not fast_mode() else (2, 6)
    if fast_mode():
        ncores = min(ncores, 256)
    preset = blueprint_preset()
    specs: List[Dict[str, Any]] = []
    for nvars in variable_counts:
        for kind in ("fpp", "damaris"):
            specs.append({"preset": "blueprint", "ncores": ncores,
                          "strategy": {"kind": kind, "compression": "gzip"},
                          "seed": seed, "nvariables": nvars})
    results = _sweep(specs, "fig3")
    for i, nvars in enumerate(variable_counts):
        workload = CM1Workload.blueprint(nvariables=nvars)
        volume = workload.total_bytes(
            ncores - ncores // preset.cores_per_node)
        fpp, damaris = results[2 * i], results[2 * i + 1]
        for label, result in (("file-per-process", fpp),
                              ("damaris", damaris)):
            stats = jitter_stats([p.duration for p in result.phases])
            report.rows.append({
                "strategy": label,
                "volume_GB": volume / GB,
                "avg_s": stats.mean,
                "max_s": stats.maximum,
                "min_s": stats.minimum,
            })
    return report


# ---------------------------------------------------------------------- #
# Fig. 4 — scalability factor and run time on Kraken
# ---------------------------------------------------------------------- #
def fig4_scalability_kraken(scales: Optional[Sequence[int]] = None,
                            seed: int = 42) -> FigureReport:
    """S = N·C576/T_N and the run time of 50 iterations + 1 write phase."""
    report = FigureReport(
        figure="Figure 4",
        title="Scalability factor (a) and run time (b) on Kraken, "
              "50 iterations + 1 write phase",
        paper_claims=[
            "Damaris scales nearly perfectly where the others fail",
            "At 9216 cores: execution time cut by ~35 % vs "
            "file-per-process, divided by ~3.5 vs collective-I/O",
        ])
    scales = tuple(scales) if scales is not None else kraken_scales()
    baseline_cores = scales[0]
    specs: List[Dict[str, Any]] = [
        {"preset": "kraken", "ncores": baseline_cores,
         "strategy": {"kind": "noio"}, "seed": seed, "write_phases": 1},
    ]
    specs.extend(
        {"preset": "kraken", "ncores": ncores, "strategy": dict(strategy),
         "seed": seed, "write_phases": 1}
        for ncores in scales
        for strategy in _KRAKEN_TRIO
    )
    results = _sweep(specs, "fig4")
    c_base = results[0].run_time
    report.add_note(
        f"baseline C{baseline_cores} (no I/O, no dedicated core): "
        f"{c_base:.1f} s")
    for result in results[1:]:
        factor = scalability_factor(result.ncores, c_base, result.run_time)
        report.rows.append({
            "strategy": result.strategy,
            "cores": result.ncores,
            "run_time_s": result.run_time,
            "scalability": factor,
            "perfect": float(result.ncores),
        })
    return report


# ---------------------------------------------------------------------- #
# Fig. 5 — dedicated-core write time vs spare time
# ---------------------------------------------------------------------- #
def fig5_spare_time(scales: Optional[Sequence[int]] = None,
                    variable_counts: Optional[Sequence[int]] = None,
                    seed: int = 42) -> FigureReport:
    """(a) Kraken: dedicated-core write time per iteration vs scale;
    (b) BluePrint: vs output volume."""
    report = FigureReport(
        figure="Figure 5",
        title="Dedicated-core write time and spare time per iteration",
        paper_claims=[
            "Write time grows with scale on Kraken (file-system "
            "contention) but dedicated cores stay 75-99 % idle",
            "On BluePrint write time grows with the output volume",
        ])
    scales = tuple(scales) if scales is not None else kraken_scales()
    if variable_counts is None:
        variable_counts = (2, 4, 6) if not fast_mode() else (2, 6)
    bp_cores = 256 if fast_mode() else 1024
    specs: List[Dict[str, Any]] = [
        {"preset": "kraken", "ncores": ncores,
         "strategy": {"kind": "damaris"}, "seed": seed}
        for ncores in scales
    ]
    specs.extend(
        {"preset": "blueprint", "ncores": bp_cores,
         "strategy": {"kind": "damaris"}, "seed": seed, "nvariables": nvars}
        for nvars in variable_counts
    )
    results = _sweep(specs, "fig5")
    for result in results[:len(scales)]:
        write = float(np.mean(result.dedicated_write_times)) \
            if result.dedicated_write_times else 0.0
        report.rows.append({
            "platform": "kraken",
            "cores": result.ncores,
            "volume_GB": result.bytes_per_phase / GB,
            "write_s": write,
            "spare_fraction": result.spare_fraction,
        })
    for result in results[len(scales):]:
        write = float(np.mean(result.dedicated_write_times)) \
            if result.dedicated_write_times else 0.0
        report.rows.append({
            "platform": "blueprint",
            "cores": bp_cores,
            "volume_GB": result.bytes_per_phase / GB,
            "write_s": write,
            "spare_fraction": result.spare_fraction,
        })
    return report


# ---------------------------------------------------------------------- #
# Fig. 6 — aggregate throughput on Kraken
# ---------------------------------------------------------------------- #
def fig6_throughput_kraken(scales: Optional[Sequence[int]] = None,
                           seed: int = 42) -> FigureReport:
    report = FigureReport(
        figure="Figure 6",
        title="Average aggregate throughput on Kraken",
        paper_claims=[
            "Damaris ~6x over file-per-process and ~15x over "
            "collective-I/O at 9216 cores",
        ])
    scales = tuple(scales) if scales is not None else kraken_scales()
    specs = [
        {"preset": "kraken", "ncores": ncores, "strategy": dict(strategy),
         "seed": seed}
        for ncores in scales
        for strategy in _KRAKEN_TRIO
    ]
    results = _sweep(specs, "fig6")
    per_scale = len(_KRAKEN_TRIO)
    for i, ncores in enumerate(scales):
        throughputs = {}
        for result in results[i * per_scale:(i + 1) * per_scale]:
            throughputs[result.strategy] = result.aggregate_throughput
            report.rows.append({
                "strategy": result.strategy,
                "cores": ncores,
                "throughput_GB_s": result.aggregate_throughput / GB,
            })
        damaris = throughputs.get("damaris", 0.0)
        fpp = throughputs.get("file-per-process", 1.0)
        coll = throughputs.get("collective-io", 1.0)
        report.add_note(
            f"{ncores} cores: damaris/fpp = {damaris / fpp:.1f}x, "
            f"damaris/collective = {damaris / coll:.1f}x")
    return report


# ---------------------------------------------------------------------- #
# Table I — aggregate throughput on Grid'5000 (672 cores)
# ---------------------------------------------------------------------- #
def table1_grid5000(ncores: int = 672, seed: int = 42) -> FigureReport:
    report = FigureReport(
        figure="Table I",
        title="Average aggregate throughput on Grid'5000 (CM1, 672 cores)",
        paper_claims=[
            "File-per-process 695 MB/s, Collective-I/O 636 MB/s, "
            "Damaris 4.32 GB/s (>6x)",
            "FPP: ~4.22 % of run time in I/O; fastest processes <1 s, "
            "slowest >25 s",
        ])
    if fast_mode():
        ncores = 240
    specs = [
        {"preset": "grid5000", "ncores": ncores, "strategy": dict(strategy),
         "seed": seed}
        for strategy in _KRAKEN_TRIO
    ]
    results = _sweep(specs, "table1")
    for result in results:
        report.rows.append({
            "strategy": result.strategy,
            "cores": ncores,
            "throughput_MB_s": result.aggregate_throughput / MB,
            "write_phase_s": result.avg_write_phase,
        })
        if result.strategy == "file-per-process":
            ranks = np.concatenate([p.rank_times for p in result.phases])
            report.add_note(
                f"FPP: I/O fraction {100 * result.io_fraction:.2f} %, "
                f"fastest rank {ranks.min():.2f} s, slowest rank "
                f"{ranks.max():.2f} s")
    return report


# ---------------------------------------------------------------------- #
# Fig. 7 — leveraging spare time: compression + transfer scheduling
# ---------------------------------------------------------------------- #
def fig7_spare_strategies(kraken_cores: int = 2304,
                          grid5000_cores: int = 912,
                          seed: int = 42) -> FigureReport:
    report = FigureReport(
        figure="Figure 7",
        title="Dedicated-core write time with compression and transfer "
              "scheduling",
        paper_claims=[
            "Scheduling lowers the dedicated-core write time on both "
            "platforms (13.1 GB/s vs 9.7 GB/s at 2304 cores on Kraken)",
            "Compression adds dedicated-core overhead on Kraken "
            "(storage-vs-spare-time tradeoff)",
        ],
        notes=[
            "In the model the compression tradeoff appears on whichever "
            "platform is CPU-bound relative to its file system (here "
            "Grid'5000); on the contention-bound platform the smaller "
            "output can even win. Same tradeoff, platform-dependent sign.",
        ])
    if fast_mode():
        kraken_cores, grid5000_cores = 576, 240
    configs = [
        ("plain", {"kind": "damaris"}),
        ("scheduler", {"kind": "damaris", "use_scheduler": True}),
        ("gzip", {"kind": "damaris", "compression": "gzip"}),
        ("gzip+sched", {"kind": "damaris", "compression": "gzip",
                        "use_scheduler": True}),
    ]
    platforms = (("kraken", kraken_cores), ("grid5000", grid5000_cores))
    specs = [
        {"preset": platform, "ncores": ncores, "strategy": dict(strategy),
         "seed": seed, "write_phases": 2}
        for platform, ncores in platforms
        for _label, strategy in configs
    ]
    results = _sweep(specs, "fig7")
    i = 0
    for platform, ncores in platforms:
        for label, _strategy in configs:
            result = results[i]
            i += 1
            write = float(np.mean(result.dedicated_write_times)) \
                if result.dedicated_write_times else 0.0
            report.rows.append({
                "platform": platform,
                "cores": ncores,
                "variant": label,
                "write_s": write,
                "throughput_GB_s": result.aggregate_throughput / GB,
            })
    return report


# ---------------------------------------------------------------------- #
# Fault degradation — strategy behaviour under injected faults
# ---------------------------------------------------------------------- #
#: The committed example schedule (mirrored by
#: ``examples/fault_schedule.json``). Fault times are placed against the
#: kraken 48-core seed-42 two-phase timeline — compute ends ≈ 205 s,
#: phase-0 writes run ≈ 206-226 s, phase-1 writes ≈ 405-455 s — so every
#: class intersects real activity instead of idle compute time.
_DEFAULT_FAULTS: Dict[str, Any] = {
    "name": "example",
    "faults": [
        # Node 1 dies mid write phase 0 and reboots 30 s later.
        {"kind": "node_crash", "time": 225.0, "duration": 30.0,
         "nodes": [1], "label": "crash mid phase 0"},
        # Nodes 2 and 3 follow each other down (cascading PSU trip).
        {"kind": "correlated_crash", "time": 225.0, "duration": 30.0,
         "nodes": [2, 3], "stagger": 2.0,
         "label": "cascading double crash"},
        # Node 2 computes 25 % slower through phase 0 (thermal throttle).
        {"kind": "straggler", "time": 0.0, "duration": 60.0,
         "factor": 1.25, "nodes": [2], "label": "thermal throttle"},
        # Every NIC at a tenth of its bandwidth across phase-1 writes.
        {"kind": "nic_degrade", "time": 405.0, "duration": 55.0,
         "factor": 0.1, "label": "fabric degradation"},
        # All storage targets at 10 % capability across phase-0 writes.
        {"kind": "ost_brownout", "time": 200.0, "duration": 60.0,
         "factor": 0.1, "label": "OST brownout"},
        # Metadata service 50x slower across phase-0 creates.
        {"kind": "mds_brownout", "time": 200.0, "duration": 60.0,
         "factor": 50.0, "label": "MDS brownout"},
        # Two extra lock revocations per acquire during phase 0.
        {"kind": "lock_storm", "time": 200.0, "duration": 60.0,
         "extra_revokes": 2, "label": "lock revocation storm"},
    ],
}


def default_fault_schedule():
    """The example schedule the fault-degradation figure runs by default
    (identical to the committed ``examples/fault_schedule.json``)."""
    from repro.faults import FaultSchedule
    return FaultSchedule.from_dict(_DEFAULT_FAULTS)


def fig_fault_degradation(ncores: int = 48, seed: int = 42,
                          schedule=None) -> FigureReport:
    """Strategy degradation curves per fault class.

    For each strategy (the paper trio plus the failure-aware
    ``damaris_failover`` variant) runs one fault-free baseline and one
    run per fault class in the schedule, and reports data loss, recovery
    time and run-time dilation relative to the baseline. The schedule
    comes from ``REPRO_FAULTS=<path>`` (the ``--faults`` CLI flag) or
    falls back to :func:`default_fault_schedule`."""
    from repro.faults import FaultSchedule
    if schedule is None:
        path = config.get("REPRO_FAULTS")
        schedule = (FaultSchedule.from_json(path) if path
                    else default_fault_schedule())
    report = FigureReport(
        figure="Fault degradation",
        title=f"Strategy degradation per fault class "
              f"(kraken, {ncores} cores, schedule '{schedule.name}')",
        paper_claims=[
            "Synchronous strategies lose nothing in a crash (no buffered "
            "state) but stall inside the write phase",
            "Plain Damaris trades the hidden write for crash exposure: "
            "buffered-but-unpersisted iterations die with the node",
            "The failover variant replays the surviving shm buffer: "
            "zero loss for a longer recovery",
        ])
    strategies = ({"kind": "fpp"}, {"kind": "collective"},
                  {"kind": "damaris"}, {"kind": "damaris_failover"})
    kinds = schedule.kinds
    specs: List[Dict[str, Any]] = []
    for strategy in strategies:
        specs.append({"preset": "kraken", "ncores": ncores,
                      "strategy": dict(strategy), "seed": seed,
                      "write_phases": 2})
        specs.extend(
            {"preset": "kraken", "ncores": ncores,
             "strategy": dict(strategy), "seed": seed, "write_phases": 2,
             "faults": schedule.of_kind(kind).to_dict()}
            for kind in kinds
        )
    results = _sweep(specs, "faults")
    per = 1 + len(kinds)
    for i in range(len(strategies)):
        base = results[i * per]
        report.rows.append({
            "strategy": base.strategy,
            "fault": "(none)",
            "loss_MB": 0.0,
            "lost_iters": 0,
            "replayed": 0,
            "recovery_s": 0.0,
            "run_x": 1.0,
            "drain_x": 1.0,
        })
        for j, kind in enumerate(kinds):
            result = results[i * per + 1 + j]
            report.rows.append({
                "strategy": result.strategy,
                "fault": kind,
                "loss_MB": result.data_loss_bytes / MB,
                "lost_iters": sum(r["iterations_lost"]
                                  for r in result.fault_records),
                "replayed": sum(r["iterations_replayed"]
                                for r in result.fault_records),
                "recovery_s": result.mean_recovery_time,
                "run_x": result.run_time / base.run_time,
                "drain_x": result.drain_time / base.drain_time,
            })
    report.add_note(
        f"schedule '{schedule.name}': {len(schedule)} faults over "
        f"{len(kinds)} classes; recovery_s is mean injection-to-"
        f"recovered; run_x/drain_x are relative to each strategy's "
        f"fault-free baseline")
    return report


# ---------------------------------------------------------------------- #
# Section V-A — the breakeven model
# ---------------------------------------------------------------------- #
def model_breakeven(core_counts: Sequence[int] = (4, 8, 12, 16, 24, 32, 48),
                    io_percent: float = 5.0) -> FigureReport:
    report = FigureReport(
        figure="Section V-A",
        title="When does dedicating one core pay off? "
              "(breakeven I/O fraction p = 100/(N-1))",
        paper_claims=[
            "p = 4.35 % for N = 24 — below the commonly-admitted 5 % "
            "I/O budget",
        ])
    for n in core_counts:
        breakeven = breakeven_io_fraction(n)
        benefit = dedication_benefit(n, compute_seconds=100.0,
                                     write_seconds=io_percent)
        report.rows.append({
            "cores_per_node": n,
            "breakeven_percent": breakeven,
            "pays_off_at_5pct": benefit.pays_off,
            "predicted_speedup": benefit.speedup,
        })
    return report
