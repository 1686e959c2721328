"""Integration tests: strategies driven by the experiment harness on a
small quiet platform (deterministic, second-scale)."""

import numpy as np
import pytest

from repro.apps.workload import CM1Workload
from repro.cluster import Machine, MachineSpec, NoNoise
from repro.core.server import DamarisOptions
from repro.errors import MPIError, ReproError
from repro.experiments.harness import run_experiment
from repro.formats.compression import GZIP_MODEL
from repro.storage import Lustre, MetadataSpec, PVFS, TargetSpec
from repro.strategies import (
    CollectiveIOStrategy,
    DamarisStrategy,
    FilePerProcessStrategy,
    NoIOStrategy,
)
from repro.units import GiB


def quiet_platform(nodes=2, cores=4, fs_cls=Lustre, ntargets=4):
    machine = Machine(
        MachineSpec(nodes=nodes, cores_per_node=cores,
                    mem_bandwidth=4 * GiB, nic_bandwidth=2 * GiB),
        seed=21, noise=NoNoise(), completion_slack=0.0, fairness_slack=0.0)
    fs = fs_cls(machine, ntargets=ntargets,
                target_spec=TargetSpec(straggler_sigma=0.0,
                                       request_latency=0.0,
                                       object_half=1e9, stream_half=1e9,
                                       queue_depth=0,
                                       peak_bandwidth=500e6,
                                       stream_peak=500e6),
                metadata_spec=MetadataSpec(sigma=0.0))
    return machine, fs


def small_workload(**kwargs):
    defaults = dict(subdomain=(32, 32, 16), seconds_per_iteration=0.5,
                    iterations_per_output=4)
    defaults.update(kwargs)
    return CM1Workload(**defaults)


class TestHarnessProtocol:
    def test_rejects_zero_phases(self):
        machine, fs = quiet_platform()
        with pytest.raises(ReproError):
            run_experiment(machine, fs, small_workload(), NoIOStrategy(),
                           write_phases=0)

    def test_no_io_run_time_is_compute_only(self):
        machine, fs = quiet_platform()
        workload = small_workload()
        result = run_experiment(machine, fs, workload, NoIOStrategy(),
                                write_phases=2)
        assert result.run_time == pytest.approx(
            2 * workload.compute_block_seconds(), rel=1e-3)
        assert result.avg_write_phase < 1e-3

    def test_phase_count_and_shape(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, small_workload(),
                                FilePerProcessStrategy(), write_phases=3)
        assert len(result.phases) == 3
        assert all(p.rank_times.shape == (8,) for p in result.phases)
        assert result.compute_ranks == 8
        assert result.ncores == 8

    def test_phase_duration_bounds_rank_times(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, small_workload(),
                                FilePerProcessStrategy(), write_phases=2)
        for phase in result.phases:
            assert phase.duration >= phase.rank_max - 1e-9


class TestFilePerProcess:
    def test_one_file_per_rank_per_phase(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, small_workload(),
                                FilePerProcessStrategy(), write_phases=2)
        assert result.files_created == 2 * result.compute_ranks
        assert fs.file_count == 2 * result.compute_ranks

    def test_compression_shrinks_files_but_costs_time(self):
        machine, fs = quiet_platform()
        plain = run_experiment(machine, fs, small_workload(),
                               FilePerProcessStrategy())
        machine2, fs2 = quiet_platform()
        compressed = run_experiment(
            machine2, fs2, small_workload(),
            FilePerProcessStrategy(compression=GZIP_MODEL))
        assert fs2.bytes_written < fs.bytes_written
        # gzip CPU time appears in the write phase.
        assert compressed.avg_write_phase != plain.avg_write_phase


class TestCollective:
    def test_two_phase_single_file(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, small_workload(),
                                CollectiveIOStrategy(), write_phases=2)
        assert fs.file_count == 2  # one shared file per phase
        assert result.files_created == 2

    def test_direct_mode_on_pvfs(self):
        machine, fs = quiet_platform(fs_cls=PVFS)
        result = run_experiment(machine, fs, small_workload(),
                                CollectiveIOStrategy(mode="direct"),
                                write_phases=1)
        assert fs.file_count == 1
        assert result.avg_write_phase > 0

    def test_bad_mode_rejected(self):
        with pytest.raises(MPIError):
            CollectiveIOStrategy(mode="quantum")

    def test_file_size_matches_payload(self):
        machine, fs = quiet_platform()
        workload = small_workload()
        run_experiment(machine, fs, workload, CollectiveIOStrategy(),
                       write_phases=1)
        file = fs.lookup("collective/phase0.h5")
        assert file.size >= workload.total_bytes(8)

    def test_all_ranks_synchronised(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, small_workload(),
                                CollectiveIOStrategy(), write_phases=1)
        phase = result.phases[0]
        # Collective writes end at a barrier inside the phase body, so
        # every rank reports (nearly) the same time.
        assert phase.rank_max - phase.rank_min < 1e-6


class TestDamarisStrategy:
    def test_dedicates_one_core_per_node(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, small_workload(),
                                DamarisStrategy(), write_phases=2)
        assert result.compute_ranks == 6  # 3 of 4 cores per node
        for node in machine.nodes:
            assert len(node.dedicated_cores()) == 1

    def test_write_phase_far_below_synchronous(self):
        machine, fs = quiet_platform()
        damaris = run_experiment(machine, fs, small_workload(),
                                 DamarisStrategy(), write_phases=2)
        machine2, fs2 = quiet_platform()
        fpp = run_experiment(machine2, fs2, small_workload(),
                             FilePerProcessStrategy(), write_phases=2)
        assert damaris.avg_write_phase < 0.25 * fpp.avg_write_phase

    def test_dedicated_cores_do_the_io(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, small_workload(),
                                DamarisStrategy(), write_phases=2)
        assert result.dedicated_write_times
        assert result.spare_fraction is not None
        assert 0.0 <= result.spare_fraction <= 1.0
        assert fs.file_count == 2 * len(machine.nodes)

    def test_drain_flushes_everything(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, small_workload(),
                                DamarisStrategy(), write_phases=2)
        assert result.drain_time >= result.run_time
        assert fs.bytes_written > 0

    def test_compression_on_server(self):
        machine, fs = quiet_platform()
        strategy = DamarisStrategy(
            options=DamarisOptions(compression=GZIP_MODEL))
        run_experiment(machine, fs, small_workload(), strategy,
                       write_phases=1)
        machine2, fs2 = quiet_platform()
        run_experiment(machine2, fs2, small_workload(), DamarisStrategy(),
                       write_phases=1)
        assert fs.bytes_written < fs2.bytes_written

    def test_scheduler_variant_runs(self):
        machine, fs = quiet_platform(nodes=4)
        strategy = DamarisStrategy(
            options=DamarisOptions(use_scheduler=True))
        result = run_experiment(machine, fs, small_workload(), strategy,
                                write_phases=3)
        assert result.dedicated_write_times

    def test_throughput_uses_dedicated_view(self):
        machine, fs = quiet_platform()
        result = run_experiment(machine, fs, small_workload(),
                                DamarisStrategy(), write_phases=1)
        expected = result.bytes_per_phase / np.mean(
            result.dedicated_write_times)
        assert result.aggregate_throughput == pytest.approx(expected)


class TestJitterEmergence:
    """The paper's core qualitative claims must emerge from the models."""

    def noisy_platform(self, nodes=4, cores=4):
        machine = Machine(
            MachineSpec(nodes=nodes, cores_per_node=cores,
                        mem_bandwidth=4 * GiB, nic_bandwidth=2 * GiB),
            seed=5)
        fs = Lustre(machine, ntargets=4,
                    target_spec=TargetSpec(peak_bandwidth=200e6,
                                           stream_peak=150e6,
                                           straggler_sigma=0.4,
                                           object_half=4.0))
        return machine, fs

    def test_fpp_jitter_vastly_exceeds_damaris(self):
        machine, fs = self.noisy_platform()
        fpp = run_experiment(machine, fs, small_workload(),
                             FilePerProcessStrategy(), write_phases=4)
        machine2, fs2 = self.noisy_platform()
        damaris = run_experiment(machine2, fs2, small_workload(),
                                 DamarisStrategy(), write_phases=4)
        fpp_spread = (max(p.duration for p in fpp.phases)
                      - min(p.duration for p in fpp.phases))
        damaris_spread = (max(p.duration for p in damaris.phases)
                          - min(p.duration for p in damaris.phases))
        assert damaris_spread < 0.2 * fpp_spread
        assert damaris.avg_write_phase < 0.1 * fpp.avg_write_phase
