"""Focused tests for the MPI-IO collective modes (two-phase rounds and
direct data sieving) and offset bookkeeping."""

import pytest

from repro.cluster import Machine, MachineSpec, NoNoise
from repro.errors import MPIError
from repro.mpi import Communicator
from repro.mpi.mpiio import (
    CollectiveFile,
    collective_close,
    collective_open,
    collective_write,
    collective_write_direct,
)
from repro.storage import Lustre, MetadataSpec, PVFS, TargetSpec
from repro.units import GiB, KiB, MiB


def make_platform(fs_cls=Lustre, nodes=2, cores=4, ntargets=4):
    machine = Machine(
        MachineSpec(nodes=nodes, cores_per_node=cores,
                    mem_bandwidth=8 * GiB, nic_bandwidth=2 * GiB),
        seed=17, noise=NoNoise(), completion_slack=0.0, fairness_slack=0.0)
    fs = fs_cls(machine, ntargets=ntargets,
                target_spec=TargetSpec(straggler_sigma=0.0,
                                       request_latency=0.0,
                                       object_half=1e9, stream_half=1e9,
                                       queue_depth=0),
                metadata_spec=MetadataSpec(sigma=0.0))
    comm = Communicator(machine, machine.all_cores())
    return machine, fs, comm


def run_ranks(machine, comm, rank_fn):
    results = [None] * comm.size

    def wrap(rank):
        results[rank] = yield from rank_fn(rank)

    for rank in range(comm.size):
        machine.sim.process(wrap(rank))
    machine.sim.run()
    return results


def record_writes(fs):
    """Log every ``(handle, offset, nbytes)`` that reaches ``fs.write``."""
    log = []
    write = fs.write

    def recording_write(handle, offset, nbytes, **kwargs):
        log.append((handle, offset, nbytes))
        return (yield from write(handle, offset, nbytes, **kwargs))

    fs.write = recording_write
    return log


class TestTwoPhaseRounds:
    def test_cb_buffer_validation(self):
        machine, fs, comm = make_platform()

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "f")
            yield from collective_write(cfile, rank, 1 * MiB, cb_buffer=0)

        with pytest.raises(MPIError):
            run_ranks(machine, comm, prog)

    def test_small_cb_buffer_many_rounds_same_bytes(self):
        machine, fs, comm = make_platform()

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "f")
            yield from collective_write(cfile, rank, 2 * MiB,
                                        cb_buffer=256 * KiB)
            yield from collective_close(cfile, rank)

        run_ranks(machine, comm, prog)
        assert fs.lookup("f").size == comm.size * 2 * MiB
        # Chunked rounds issue many requests: 2 aggregators x 8 MiB
        # regions in 256 KiB rounds is 64 writes (x stripes touched).
        total_requests = sum(t.requests_served for t in fs.targets)
        assert total_requests >= 64

    def test_offsets_accumulate_across_phases(self):
        machine, fs, comm = make_platform()
        sizes = [1 * MiB, 3 * MiB, 2 * MiB]

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "f")
            for size in sizes:
                yield from collective_write(cfile, rank, size)
            yield from collective_close(cfile, rank)
            return cfile

        results = run_ranks(machine, comm, prog)
        cfile = results[0]
        assert cfile.offset_of_phase(0) == 0
        assert cfile.offset_of_phase(1) == comm.size * 1 * MiB
        assert cfile.offset_of_phase(2) == comm.size * 4 * MiB
        assert fs.lookup("f").size == comm.size * 6 * MiB

    def test_aggregator_mapping_covers_all_ranks(self):
        machine, fs, comm = make_platform(nodes=3, cores=4)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "f")
            yield from collective_close(cfile, rank)
            return cfile

        cfile = run_ranks(machine, comm, prog)[0]
        assert len(cfile.aggregators) == 3  # one per node
        for rank in range(comm.size):
            assert cfile.aggregator_of(rank) in cfile.aggregators


class TestDirectMode:
    def test_direct_needs_all_ranks_open(self):
        machine, fs, comm = make_platform(fs_cls=PVFS)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "f")
            yield from collective_write_direct(cfile, rank, 1 * MiB)

        with pytest.raises(MPIError):
            run_ranks(machine, comm, prog)

    def test_direct_every_rank_writes_its_region(self):
        machine, fs, comm = make_platform(fs_cls=PVFS)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "f",
                                               all_ranks_write=True)
            yield from collective_write_direct(cfile, rank, 1 * MiB)
            yield from collective_close(cfile, rank)

        run_ranks(machine, comm, prog)
        assert fs.lookup("f").size == comm.size * 1 * MiB
        assert fs.bytes_written == comm.size * 1 * MiB

    def test_sieve_validation(self):
        machine, fs, comm = make_platform(fs_cls=PVFS)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "f",
                                               all_ranks_write=True)
            yield from collective_write_direct(cfile, rank, 1 * MiB,
                                               sieve_buffer=0)

        with pytest.raises(MPIError):
            run_ranks(machine, comm, prog)

    def test_smaller_sieve_is_slower(self):
        """Data sieving granularity caps the per-stream rate (visible
        when the stream is not already bandwidth-share-limited)."""
        durations = {}
        for sieve in (64 * KiB, 16 * MiB):
            machine, fs, comm = make_platform(fs_cls=PVFS, nodes=1,
                                              cores=1)

            def prog(rank, sieve=sieve):
                cfile = yield from collective_open(comm, rank, fs, "f",
                                                   all_ranks_write=True)
                yield from collective_write_direct(cfile, rank, 4 * MiB,
                                                   sieve_buffer=sieve)
                yield from collective_close(cfile, rank)

            run_ranks(machine, comm, prog)
            durations[sieve] = machine.sim.now
        assert durations[64 * KiB] > durations[16 * MiB]




class TestValidation:
    @pytest.mark.parametrize(
        "aggregators", [[], [99], [4, 0], [0, 0], [-1, 4]],
        ids=["empty", "out-of-range", "unordered", "repeated", "negative"])
    def test_bad_aggregator_list_rejected(self, aggregators):
        """Empty, out-of-range, unordered or repeated aggregator lists."""
        machine, fs, comm = make_platform()

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "f",
                                               aggregators=aggregators)
            yield from collective_write(cfile, rank, 1 * MiB)

        with pytest.raises(MPIError, match="aggregators"):
            run_ranks(machine, comm, prog)

    @pytest.mark.parametrize("direct", [False, True],
                             ids=["two-phase", "direct"])
    @pytest.mark.parametrize("bad", [-1 * MiB, float("nan"), float("inf")])
    def test_bad_write_size_rejected(self, direct, bad):
        """A negative or non-finite size from one rank fails that rank
        before the allgather: nothing reaches the file system."""
        machine, fs, comm = make_platform(fs_cls=PVFS if direct else Lustre)
        write = collective_write_direct if direct else collective_write

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "f",
                                               all_ranks_write=direct)
            yield from write(cfile, rank, bad if rank == 3 else 1 * MiB)

        with pytest.raises(MPIError, match="finite"):
            run_ranks(machine, comm, prog)
        assert fs.bytes_written == 0


class TestLayout:
    """Every byte reaches the file system where the rank-order rule puts
    it: 15 ranks (3 nodes x 5 cores) writing (rank + 1) MiB each, in two
    phases."""

    SIZES = [(rank + 1) * MiB for rank in range(15)]
    TOTAL = sum(SIZES)  # bytes per phase
    PHASES = 2

    def rank_offset(self, phase, rank):
        """Rank-order rule: a rank's data follows every lower rank's."""
        return phase * self.TOTAL + sum(self.SIZES[:rank])

    def run_phases(self, fs_cls, write, **open_kwargs):
        machine, fs, comm = make_platform(fs_cls=fs_cls, nodes=3, cores=5)
        log = record_writes(fs)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "f",
                                               **open_kwargs)
            for _phase in range(self.PHASES):
                yield from write(cfile, rank, self.SIZES[rank])
            yield from collective_close(cfile, rank)
            return cfile

        cfile = run_ranks(machine, comm, prog)[0]
        owner = {id(handle): rank for rank, handle in cfile.handles.items()}
        assert fs.lookup("f").size == self.PHASES * self.TOTAL
        return sorted((owner[id(handle)], offset, nbytes)
                      for handle, offset, nbytes in log)

    def test_two_phase_regions_follow_rank_order(self):
        cb_buffer = 3 * MiB

        def write(cfile, rank, nbytes):
            return collective_write(cfile, rank, nbytes, cb_buffer=cb_buffer)

        got = self.run_phases(Lustre, write, aggregators=[0, 7])
        # Blocks r * 2 // 15: ranks 0-7 ship to rank 0 (rank 7, itself an
        # aggregator, among them), ranks 8-14 to rank 7.
        blocks = {0: range(0, 8), 7: range(8, 15)}
        expected = []
        for phase in range(self.PHASES):
            for aggregator, ranks in blocks.items():
                start = self.rank_offset(phase, ranks[0])
                region = sum(self.SIZES[r] for r in ranks)
                expected += [(aggregator, start + pos,
                              min(cb_buffer, region - pos))
                             for pos in range(0, region, cb_buffer)]
        assert got == sorted(expected)

    def test_direct_offsets_follow_rank_order(self):
        got = self.run_phases(PVFS, collective_write_direct,
                              all_ranks_write=True)
        expected = [(rank, self.rank_offset(phase, rank), self.SIZES[rank])
                    for phase in range(self.PHASES)
                    for rank in range(len(self.SIZES))]
        assert got == sorted(expected)
