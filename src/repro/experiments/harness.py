"""Run one (machine, file system, workload, strategy) configuration.

The harness reproduces the paper's measurement protocol:

- ranks alternate compute blocks (``iterations_per_output`` model steps)
  and write phases;
- a write phase is delimited by two barriers; its duration *from the
  simulation's point of view* is the barrier-to-barrier time (Fig. 2/3);
- per-rank write times (the spread between fastest and slowest rank) are
  recorded inside the phase;
- aggregate throughput is user data volume over the time the data took to
  reach storage (for Damaris: over the dedicated cores' write window,
  "this throughput is only seen by the dedicated cores");
- for Damaris, the dedicated cores' per-iteration write time and spare
  time are collected (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.apps.workload import CM1Workload
from repro.cluster.machine import Machine
from repro.des.process import AllOf
from repro.errors import ReproError
from repro.mpi.comm import Communicator
from repro.observe.tracer import Tracer
from repro.storage.filesystem import ParallelFileSystem
from repro.strategies.base import IOStrategy, StrategyContext

__all__ = ["PhaseStats", "ExperimentResult", "run_experiment"]


@dataclass
class PhaseStats:
    """Measurements of one write phase."""

    phase: int
    start_time: float
    #: Barrier-to-barrier duration (identical across ranks by definition).
    duration: float
    #: Per-rank time spent inside the phase body (fastest vs slowest).
    rank_times: np.ndarray

    @property
    def rank_mean(self) -> float:
        return float(self.rank_times.mean())

    @property
    def rank_max(self) -> float:
        return float(self.rank_times.max())

    @property
    def rank_min(self) -> float:
        return float(self.rank_times.min())


@dataclass
class ExperimentResult:
    """Everything the figure drivers need from one run."""

    strategy: str
    ncores: int
    compute_ranks: int
    phases: List[PhaseStats]
    #: Simulated time when the last rank finished the application.
    run_time: float
    #: Simulated time when all asynchronous work had drained.
    drain_time: float
    #: User data bytes produced per write phase (all ranks).
    bytes_per_phase: float
    #: Damaris-only dedicated-core measurements (empty otherwise).
    dedicated_write_times: List[float] = field(default_factory=list)
    dedicated_windows: List[float] = field(default_factory=list)
    spare_fraction: Optional[float] = None
    files_created: int = 0
    #: Per-fault outcome records when a fault schedule was injected
    #: (plain dicts — see :meth:`repro.faults.FaultRecord.to_dict` — so
    #: results stay picklable/cacheable without importing repro.faults).
    fault_records: List[Dict] = field(default_factory=list)
    #: The flow network's cumulative solver counters at the end of the
    #: run (:attr:`repro.des.bandwidth.FlowNetwork.solver_stats`).
    solver_stats: Dict[str, Any] = field(default_factory=dict)

    # -- write phase (Fig. 2 / Fig. 3) ---------------------------------- #
    @property
    def avg_write_phase(self) -> float:
        return float(np.mean([p.duration for p in self.phases]))

    @property
    def max_write_phase(self) -> float:
        return float(np.max([p.duration for p in self.phases]))

    @property
    def min_write_phase(self) -> float:
        return float(np.min([p.duration for p in self.phases]))

    @property
    def rank_time_spread(self) -> float:
        """Mean over phases of (slowest - fastest rank time)."""
        return float(np.mean([p.rank_max - p.rank_min
                              for p in self.phases]))

    # -- throughput (Fig. 6 / Table I) ----------------------------------- #
    @property
    def aggregate_throughput(self) -> float:
        """User bytes per second through the storage path.

        For Damaris this is the throughput *seen by the dedicated cores*
        (paper Fig. 6): per-phase volume over the mean time a dedicated
        core spends writing. For synchronous strategies it is volume over
        the barrier-to-barrier phase duration."""
        if self.dedicated_write_times:
            window = float(np.mean(self.dedicated_write_times))
        else:
            window = self.avg_write_phase
        if window <= 0:
            return 0.0
        return self.bytes_per_phase / window

    # -- run time / scalability (Fig. 4) --------------------------------- #
    @property
    def io_fraction(self) -> float:
        """Fraction of the run spent in write phases (the '5 %' rule)."""
        if self.run_time <= 0:
            return 0.0
        return sum(p.duration for p in self.phases) / self.run_time

    # -- fault degradation (repro.faults) -------------------------------- #
    @property
    def data_loss_bytes(self) -> float:
        """User bytes destroyed by injected faults."""
        return float(sum(r["data_loss_bytes"] for r in self.fault_records))

    @property
    def mean_recovery_time(self) -> float:
        """Mean injection-to-fully-recovered time over injected faults."""
        times = [r["recovery_time"] for r in self.fault_records
                 if r["recovery_time"] is not None]
        return float(np.mean(times)) if times else 0.0

    # -- wire format (repro.service) ------------------------------------- #
    def summary(self) -> Dict:
        """JSON-safe digest of this run (plain ints/floats/strings only).

        This is what the sweep service returns over the wire: every
        derived measurement the figure drivers read, without the raw
        per-rank numpy arrays (whole-phase jitter spread is preserved as
        ``rank_time_spread``).
        """
        return {
            "strategy": self.strategy,
            "ncores": int(self.ncores),
            "compute_ranks": int(self.compute_ranks),
            "write_phases": len(self.phases),
            "run_time": float(self.run_time),
            "drain_time": float(self.drain_time),
            "bytes_per_phase": float(self.bytes_per_phase),
            "avg_write_phase": self.avg_write_phase,
            "max_write_phase": self.max_write_phase,
            "min_write_phase": self.min_write_phase,
            "rank_time_spread": self.rank_time_spread,
            "aggregate_throughput": self.aggregate_throughput,
            "io_fraction": self.io_fraction,
            "spare_fraction": (None if self.spare_fraction is None
                               else float(self.spare_fraction)),
            "dedicated_write_times": [float(t) for t
                                      in self.dedicated_write_times],
            "files_created": int(self.files_created),
            "data_loss_bytes": self.data_loss_bytes,
            "mean_recovery_time": self.mean_recovery_time,
            "fault_records": [dict(r) for r in self.fault_records],
        }


def run_experiment(machine: Machine, fs: ParallelFileSystem,
                   workload: CM1Workload, strategy: IOStrategy,
                   write_phases: int = 1,
                   tracer: Optional[Tracer] = None,
                   faults=None) -> ExperimentResult:
    """Run ``write_phases`` output cycles of the workload under
    ``strategy`` and return the measurements.

    Passing a ``tracer`` attaches it to the machine's simulator clock:
    every instrumented layer (clients, servers, storage, locks) records
    into it, and the harness itself adds one ``write_phase`` span per
    (rank, phase).

    ``faults`` is an optional :class:`repro.faults.FaultSchedule`: it is
    armed against the machine before any rank starts, its recoveries
    join the drain phase, and its per-fault records land on
    ``ExperimentResult.fault_records``. ``None`` (or an empty schedule)
    leaves the run bit-identical to a harness without the parameter —
    no event is scheduled and no sequence number is consumed."""
    if write_phases < 1:
        raise ReproError("need at least one write phase")
    if tracer is not None:
        machine.attach_tracer(tracer)

    cores_per_node = machine.spec.cores_per_node
    dedicated = (strategy.dedicated_cores_per_node
                 if strategy.uses_dedicated_cores else 0)
    dilation = workload.dilation(cores_per_node, dedicated) \
        if dedicated else 1.0
    compute_cores = [
        core for node in machine.nodes
        for core in node.cores[:cores_per_node - dedicated]
    ]
    comm = Communicator(machine, compute_cores)
    ctx = StrategyContext(
        machine=machine, fs=fs, comm=comm, workload=workload,
        dilation=dilation)
    strategy.setup(ctx)

    injector = None
    if faults is not None and len(faults):
        from repro.faults import FaultInjector
        injector = FaultInjector(faults)
        injector.arm(ctx, strategy)

    nranks = comm.size
    rank_times = np.zeros((write_phases, nranks), dtype=float)
    phase_starts = np.zeros(write_phases, dtype=float)
    phase_ends = np.zeros(write_phases, dtype=float)
    compute_seconds = workload.compute_block_seconds(dilation)

    def rank_program(rank: int):
        yield from strategy.rank_setup(ctx, rank)
        for phase in range(write_phases):
            yield comm.compute(rank, compute_seconds,
                               stream_name="cm1-compute")
            yield from comm.barrier(rank)
            if rank == 0:
                phase_starts[phase] = machine.sim.now
            entered = machine.sim.now
            yield from strategy.write_phase(ctx, rank, phase)
            rank_times[phase, rank] = machine.sim.now - entered
            trace = machine.sim.tracer
            if trace.enabled:
                node = comm.node_of(rank)
                trace.record_span(
                    "write_phase", f"phase{phase}",
                    f"node{node.index}/rank{rank}",
                    entered, machine.sim.now, rank=rank, phase=phase,
                    strategy=strategy.name)
            yield from comm.barrier(rank)
            if rank == 0:
                phase_ends[phase] = machine.sim.now
        yield from strategy.rank_teardown(ctx, rank)

    processes = [machine.sim.process(rank_program(rank))
                 for rank in range(nranks)]
    machine.sim.run_until_complete(AllOf(machine.sim, processes))
    run_time = machine.sim.now

    drains = list(strategy.drain_events(ctx))
    if injector is not None:
        # Recoveries (and failover replays) scheduled beyond the
        # application's natural end still have to be processed.
        drains.append(injector.done)
    if drains:
        machine.sim.run_until_complete(AllOf(machine.sim, drains))
    drain_time = machine.sim.now
    strategy.finalize(ctx)

    phases = [
        PhaseStats(phase=k, start_time=float(phase_starts[k]),
                   duration=float(phase_ends[k] - phase_starts[k]),
                   rank_times=rank_times[k])
        for k in range(write_phases)
    ]

    result = ExperimentResult(
        strategy=strategy.name,
        ncores=machine.total_cores,
        compute_ranks=nranks,
        phases=phases,
        run_time=run_time,
        drain_time=drain_time,
        bytes_per_phase=float(workload.total_bytes(nranks, dilation)),
        files_created=fs.files_created,
        solver_stats=machine.flows.solver_stats,
    )
    if injector is not None:
        result.fault_records = [record.to_dict()
                                for record in injector.records]

    deployment = ctx.state.get("deployment")
    if deployment is not None:
        result.dedicated_write_times = deployment.dedicated_write_times()
        # Per-iteration write window across all servers (Fig. 6's
        # dedicated-core view of throughput).
        windows: Dict[int, List[float]] = {}
        for server in deployment.servers:
            for iteration, start in \
                    server.persist_start_by_iteration.items():
                end = server.persist_end_by_iteration[iteration]
                windows.setdefault(iteration, []).append(start)
                windows.setdefault(-iteration - 1, []).append(end)
        result.dedicated_windows = [
            max(windows[-iteration - 1]) - min(windows[iteration])
            for iteration in range(write_phases)
            if iteration in windows and (-iteration - 1) in windows
        ]
        period = compute_seconds
        result.spare_fraction = deployment.mean_spare_fraction(period)
    return result
