"""Fault-injection suite: schedules, the injector, degradation metrics.

What these pin down:

- the declarative schedule layer validates its specs and round-trips
  through JSON unchanged;
- injection is deterministic: same seed + same schedule => bit-identical
  traces, serial or parallel, cache-cold or cache-warm;
- recovery restores healthy state *exactly*: a fault window placed over
  idle compute leaves every measurement bit-identical to a fault-free
  run;
- the zero-overhead contract: no schedule => the injector is never
  constructed and the run is indistinguishable from a harness without
  the ``faults`` parameter;
- crash semantics per strategy: synchronous strategies lose nothing,
  plain Damaris drops buffered iterations, the failover variant replays
  them from the surviving shm buffer.
"""

import json
import math

import pytest

from repro.cache import ResultCache
from repro.errors import ReproError
from repro.experiments.executor import SweepTask, run_sweep
from repro.experiments.figures import default_fault_schedule
from repro.experiments.specs import run_spec
from repro.experiments.harness import run_experiment
from repro.experiments.platforms import kraken_preset
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSchedule,
    FaultScheduleError,
    FaultSpec,
)
from repro.observe.tracer import Tracer
from repro.strategies import (
    CollectiveIOStrategy,
    DamarisFailoverStrategy,
    DamarisStrategy,
    FilePerProcessStrategy,
)

# The empirically placed crash of the committed example schedule: on
# kraken at 48 cores, seed 42, two write phases, the damaris write
# phase 0 runs ~224.9-225.1 s, so a crash at 225.0 lands mid-phase with
# iteration 0 buffered but not yet persisted.
CRASH = {"kind": "node_crash", "time": 225.0, "duration": 30.0,
         "nodes": [1]}


def run_one(strategy, faults=None, tracer=None, seed=42, ncores=48):
    machine, fs, workload = kraken_preset().build(ncores, seed=seed)
    return run_experiment(machine, fs, workload, strategy,
                          write_phases=2, tracer=tracer, faults=faults)


def schedule_of(*fault_dicts, name="test"):
    return FaultSchedule.from_dict(
        {"name": name, "faults": list(fault_dicts)})


# ---------------------------------------------------------------------- #
# schedule layer
# ---------------------------------------------------------------------- #
class TestFaultSchedule:
    def test_spec_validation(self):
        with pytest.raises(FaultScheduleError):
            FaultSpec(kind="meteor_strike", time=0.0, duration=1.0)
        with pytest.raises(FaultScheduleError):  # crashes need nodes
            FaultSpec(kind="node_crash", time=0.0, duration=1.0)
        with pytest.raises(FaultScheduleError):  # negative time
            FaultSpec(kind="straggler", time=-1.0, duration=1.0,
                      factor=2.0)
        with pytest.raises(FaultScheduleError):  # zero-length window
            FaultSpec(kind="straggler", time=0.0, duration=0.0,
                      factor=2.0)
        with pytest.raises(FaultScheduleError):  # slowdowns are >= 1
            FaultSpec(kind="straggler", time=0.0, duration=1.0,
                      factor=0.5)
        with pytest.raises(FaultScheduleError):  # fractions are (0, 1]
            FaultSpec(kind="nic_degrade", time=0.0, duration=1.0,
                      factor=2.0)
        with pytest.raises(FaultScheduleError):
            FaultSpec(kind="ost_brownout", time=0.0, duration=1.0,
                      factor=0.0)
        # NaN and infinities pass every range check; an infinite window
        # never recovers, so the run would never end.
        for field in ("time", "duration", "factor", "stagger",
                      "compute_factor"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(FaultScheduleError, match=field):
                    FaultSpec(**{"kind": "straggler", "time": 0.0,
                                 "duration": 1.0, "factor": 2.0,
                                 field: value})

    def test_unknown_field_rejected(self):
        good = {"kind": "straggler", "time": 0.0, "duration": 1.0,
                "factor": 2.0, "nodes": [0]}
        for bad in ({"blast_radius": 3}, {"time": "soon"}, {"nodes": 5},
                    {"nodes": "12"}, {"targets": [None]},
                    {"extra_revokes": math.inf}, {"factor": [2.0]}):
            with pytest.raises(FaultScheduleError, match=next(iter(bad))):
                FaultSpec.from_dict({**good, **bad})
        with pytest.raises(FaultScheduleError):
            FaultSchedule.from_dict({"faults": [5]})

    def test_round_trip(self, tmp_path):
        schedule = default_fault_schedule()
        assert FaultSchedule.from_dict(schedule.to_dict()) == schedule
        path = tmp_path / "sched.json"
        schedule.to_json(str(path))
        assert FaultSchedule.from_json(str(path)) == schedule

    def test_committed_example_matches_default(self):
        """examples/fault_schedule.json is the default schedule, verbatim."""
        with open("examples/fault_schedule.json") as fh:
            on_disk = json.load(fh)
        assert FaultSchedule.from_dict(on_disk) == default_fault_schedule()

    def test_kinds_and_of_kind(self):
        schedule = default_fault_schedule()
        assert set(schedule.kinds) == set(FAULT_KINDS)
        crashes = schedule.of_kind("node_crash")
        assert len(crashes) == 1
        assert crashes.name == "example/node_crash"
        assert all(fault.kind == "node_crash" for fault in crashes)

    def test_end_covers_stagger(self):
        spec = FaultSpec(kind="correlated_crash", time=10.0,
                         duration=5.0, nodes=(0, 1, 2), stagger=2.0)
        assert spec.end == 10.0 + 2 * 2.0 + 5.0
        assert schedule_of(spec.to_dict()).end == spec.end


# ---------------------------------------------------------------------- #
# injector semantics
# ---------------------------------------------------------------------- #
class TestInjector:
    def test_unknown_node_rejected_at_arm(self):
        faults = schedule_of({"kind": "node_crash", "time": 1.0,
                              "duration": 1.0, "nodes": [99]})
        with pytest.raises(FaultScheduleError):
            run_one(FilePerProcessStrategy(), faults=faults)

    def test_unknown_target_rejected_at_arm(self):
        faults = schedule_of({"kind": "ost_brownout", "time": 1.0,
                              "duration": 1.0, "factor": 0.5,
                              "targets": [999]})
        with pytest.raises(FaultScheduleError):
            run_one(FilePerProcessStrategy(), faults=faults)

    def test_double_arm_rejected(self):
        from repro.mpi.comm import Communicator
        from repro.strategies.base import StrategyContext
        injector = FaultInjector(schedule_of(CRASH))
        machine, fs, workload = kraken_preset().build(48, seed=42)
        comm = Communicator(machine, [machine.nodes[0].cores[0]])
        ctx = StrategyContext(machine=machine, fs=fs, comm=comm,
                              workload=workload)
        injector.arm(ctx, FilePerProcessStrategy())
        with pytest.raises(FaultScheduleError):
            injector.arm(ctx, FilePerProcessStrategy())

    def test_idle_window_fault_is_invisible(self):
        """A brownout over pure compute time (no I/O in flight) recovers
        exactly: every measurement matches the fault-free run."""
        baseline = run_one(FilePerProcessStrategy())
        faulted = run_one(
            FilePerProcessStrategy(),
            faults=schedule_of({"kind": "ost_brownout", "time": 50.0,
                                "duration": 50.0, "factor": 0.5}))
        assert faulted.run_time == baseline.run_time
        assert faulted.drain_time == baseline.drain_time
        assert [p.duration for p in faulted.phases] \
            == [p.duration for p in baseline.phases]
        record = faulted.fault_records[0]
        assert record["recovery_time"] == 50.0
        assert record["data_loss_bytes"] == 0.0

    def test_zero_overhead_without_schedule(self):
        """faults=None and an empty schedule are bit-identical to not
        passing the parameter at all (the injector is never built)."""
        tracers = [Tracer(), Tracer(), Tracer()]
        with_none = run_one(DamarisStrategy(), faults=None,
                            tracer=tracers[0])
        with_empty = run_one(DamarisStrategy(),
                             faults=FaultSchedule(faults=()),
                             tracer=tracers[1])
        plain = run_one(DamarisStrategy(), tracer=tracers[2])
        assert with_none.run_time == with_empty.run_time == plain.run_time
        assert (with_none.drain_time == with_empty.drain_time
                == plain.drain_time)
        assert tracers[0].spans == tracers[1].spans == tracers[2].spans
        assert tracers[0].events == tracers[1].events == tracers[2].events
        assert with_empty.fault_records == []

    def test_straggler_dilates_run(self):
        baseline = run_one(CollectiveIOStrategy())
        faulted = run_one(
            CollectiveIOStrategy(),
            faults=schedule_of({"kind": "straggler", "time": 0.0,
                                "duration": 60.0, "factor": 1.25,
                                "nodes": [2]}))
        # One slow node delays everyone through the barrier.
        assert faulted.run_time > baseline.run_time * 1.05

    def test_ost_brownout_slows_writes(self):
        baseline = run_one(CollectiveIOStrategy())
        faulted = run_one(
            CollectiveIOStrategy(),
            faults=schedule_of({"kind": "ost_brownout", "time": 200.0,
                                "duration": 60.0, "factor": 0.01}))
        assert faulted.run_time > baseline.run_time

    def test_correlated_crash_staggers_records(self):
        faults = schedule_of({"kind": "correlated_crash", "time": 225.0,
                              "duration": 30.0, "nodes": [2, 3],
                              "stagger": 2.0})
        result = run_one(FilePerProcessStrategy(), faults=faults)
        times = sorted(r["time"] for r in result.fault_records)
        assert times == [225.0, 227.0]
        assert {r["affected"][0] for r in result.fault_records} \
            == {"node2", "node3"}
        assert all(r["recovery_time"] == 30.0
                   for r in result.fault_records)

    def test_fault_trace_categories(self):
        tracer = Tracer()
        run_one(DamarisStrategy(), faults=schedule_of(CRASH),
                tracer=tracer)
        events = tracer.events_in("fault")
        assert {e.name for e in events} \
            == {"node_crash:inject", "node_crash:recover"}
        spans = tracer.spans_in("fault")
        assert len(spans) == 1
        assert spans[0].start == 225.0 and spans[0].end == 255.0


# ---------------------------------------------------------------------- #
# crash-during-write-phase semantics, per strategy
# ---------------------------------------------------------------------- #
class TestCrashSemantics:
    def test_synchronous_strategies_lose_nothing(self):
        for strategy in (FilePerProcessStrategy(), CollectiveIOStrategy()):
            result = run_one(strategy, faults=schedule_of(CRASH))
            record = result.fault_records[0]
            assert result.data_loss_bytes == 0.0
            assert record["iterations_lost"] == 0
            assert record["recovery_time"] == 30.0

    def test_plain_damaris_drops_buffered_iteration(self):
        result = run_one(DamarisStrategy(), faults=schedule_of(CRASH))
        record = result.fault_records[0]
        assert record["iterations_lost"] == 1
        assert result.data_loss_bytes > 1e6  # the buffered iteration
        assert record["iterations_replayed"] == 0
        assert record["recovery_time"] == 30.0

    def test_failover_replays_with_zero_loss(self):
        result = run_one(DamarisFailoverStrategy(),
                         faults=schedule_of(CRASH))
        record = result.fault_records[0]
        assert result.data_loss_bytes == 0.0
        assert record["iterations_lost"] == 0
        assert record["iterations_replayed"] == 1
        # Recovery includes the replay write, so it outlasts the outage.
        assert record["recovery_time"] > 30.0

    def test_failover_writes_all_files(self):
        """The replayed iteration reaches storage: same file count as a
        fault-free run."""
        baseline = run_one(DamarisFailoverStrategy())
        faulted = run_one(DamarisFailoverStrategy(),
                          faults=schedule_of(CRASH))
        assert faulted.files_created == baseline.files_created


# ---------------------------------------------------------------------- #
# determinism: replay, serial/parallel, cache cold/warm
# ---------------------------------------------------------------------- #
class TestDeterminism:
    def test_same_seed_and_schedule_is_bit_identical(self):
        traces = []
        for _ in range(2):
            tracer = Tracer()
            run_one(DamarisFailoverStrategy(),
                    faults=default_fault_schedule().of_kind("node_crash"),
                    tracer=tracer)
            traces.append(tracer)
        assert traces[0].spans == traces[1].spans
        assert traces[0].events == traces[1].events

    @staticmethod
    def _specs():
        schedule = default_fault_schedule()
        return [
            {"preset": "kraken", "ncores": 48, "seed": 42,
             "write_phases": 2, "strategy": {"kind": kind},
             "faults": schedule.of_kind(fault_kind).to_dict()}
            for kind in ("damaris", "damaris_failover")
            for fault_kind in ("node_crash", "ost_brownout")
        ]

    @staticmethod
    def _digest(result):
        return (result.strategy, result.run_time, result.drain_time,
                result.data_loss_bytes, result.mean_recovery_time,
                [p.duration for p in result.phases],
                result.fault_records)

    def test_serial_matches_parallel(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tasks = [SweepTask(run_spec, (spec,)) for spec in self._specs()]
        serial = run_sweep(tasks, parallel=1, cache=False)
        tasks = [SweepTask(run_spec, (spec,)) for spec in self._specs()]
        fanned = run_sweep(tasks, parallel=2, cache=False)
        assert [self._digest(r) for r in serial] \
            == [self._digest(r) for r in fanned]

    def test_cache_warm_matches_cold_and_keys_fold_schedule(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        tasks = [SweepTask(run_spec, (spec,)) for spec in self._specs()]
        cold = run_sweep(tasks, parallel=1, cache=cache)
        assert cache.stats.misses == len(tasks)
        tasks = [SweepTask(run_spec, (spec,)) for spec in self._specs()]
        warm = run_sweep(tasks, parallel=1, cache=cache)
        assert cache.stats.hits == len(tasks)
        assert [self._digest(r) for r in cold] \
            == [self._digest(r) for r in warm]
        # A different schedule must be a different cache key.
        changed = self._specs()[0]
        changed["faults"]["faults"][0]["time"] = 226.0
        misses_before = cache.stats.misses
        run_sweep([SweepTask(run_spec, (changed,))], parallel=1,
                  cache=cache)
        assert cache.stats.misses == misses_before + 1


# ---------------------------------------------------------------------- #
# harness guard rails
# ---------------------------------------------------------------------- #
def test_harness_still_validates_phases():
    machine, fs, workload = kraken_preset().build(48, seed=42)
    with pytest.raises(ReproError):
        run_experiment(machine, fs, workload, FilePerProcessStrategy(),
                       write_phases=0)
