"""Additional harness coverage: phase accounting and cross-strategy
invariants on one platform instance."""

import numpy as np
import pytest

from repro.apps.workload import CM1Workload
from repro.cluster import Machine, MachineSpec, NoNoise
from repro.experiments.harness import PhaseStats, run_experiment
from repro.storage import Lustre, MetadataSpec, TargetSpec
from repro.strategies import DamarisStrategy, NoIOStrategy
from repro.units import GiB


def quiet_platform():
    machine = Machine(
        MachineSpec(nodes=2, cores_per_node=4, mem_bandwidth=4 * GiB,
                    nic_bandwidth=2 * GiB),
        seed=31, noise=NoNoise(), completion_slack=0.0, fairness_slack=0.0)
    fs = Lustre(machine, ntargets=4,
                target_spec=TargetSpec(straggler_sigma=0.0,
                                       request_latency=0.0,
                                       object_half=1e9, stream_half=1e9,
                                       queue_depth=0),
                metadata_spec=MetadataSpec(sigma=0.0))
    return machine, fs


def workload():
    return CM1Workload(subdomain=(16, 16, 16), seconds_per_iteration=1.0,
                       iterations_per_output=2)


class TestComputeBlocks:
    def test_phase_start_times_increase(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, workload(), NoIOStrategy(),
                                write_phases=3)
        starts = [p.start_time for p in result.phases]
        assert starts == sorted(starts)
        assert starts[0] > 0


class TestPhaseStats:
    def test_derived_statistics(self):
        stats = PhaseStats(phase=0, start_time=10.0, duration=2.0,
                           rank_times=np.array([0.5, 1.0, 1.5]))
        assert stats.rank_mean == pytest.approx(1.0)
        assert stats.rank_max == 1.5
        assert stats.rank_min == 0.5


class TestDamarisAccounting:
    def test_io_fraction_near_zero_for_damaris(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, workload(), DamarisStrategy(),
                                write_phases=2)
        assert result.io_fraction < 0.05

    def test_bytes_per_phase_includes_dilation(self):
        machine, fs = quiet_platform()
        w = workload()
        result = run_experiment(machine, fs, w, DamarisStrategy(),
                                write_phases=1)
        dilation = w.dilation(4, 1)
        expected = w.bytes_per_core(dilation) * result.compute_ranks
        assert result.bytes_per_phase == pytest.approx(expected)

    def test_dedicated_windows_cover_phases(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, workload(), DamarisStrategy(),
                                write_phases=2)
        assert len(result.dedicated_windows) == 2
        assert all(w > 0 for w in result.dedicated_windows)
