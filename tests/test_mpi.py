"""Unit/integration tests for the MPI-like layer and collective I/O."""

import random

import pytest

from repro.cluster import Machine, MachineSpec, NoNoise
from repro.errors import MPIError
from repro.mpi import Communicator, collective_open, collective_write
from repro.mpi.mpiio import collective_close, default_aggregators
from repro.storage import Lustre, MetadataSpec, TargetSpec
from repro.units import GiB, MiB


def make_comm(nodes=2, cores=4, **machine_kwargs):
    machine = Machine(
        MachineSpec(nodes=nodes, cores_per_node=cores,
                    mem_bandwidth=8 * GiB, nic_bandwidth=2 * GiB,
                    **machine_kwargs),
        seed=13, noise=NoNoise(), completion_slack=0.0, fairness_slack=0.0)
    return machine, Communicator(machine, machine.all_cores())


def run_ranks(machine, comm, rank_fn):
    """Run rank_fn(rank) as one process per rank; returns list of results."""
    results = [None] * comm.size

    def wrap(rank):
        value = yield from rank_fn(rank)
        results[rank] = value

    for rank in range(comm.size):
        machine.sim.process(wrap(rank))
    machine.sim.run()
    return results


class TestCommunicator:
    def test_needs_ranks(self):
        machine, _ = make_comm()
        with pytest.raises(MPIError):
            Communicator(machine, [])

    def test_size_and_node_mapping(self):
        machine, comm = make_comm(nodes=2, cores=4)
        assert comm.size == 8
        assert comm.node_of(0) is machine.nodes[0]
        assert comm.node_of(7) is machine.nodes[1]
        assert comm.ranks_on_node(machine.nodes[0]) == [0, 1, 2, 3]

    def test_split(self):
        machine, comm = make_comm()
        sub = comm.split([0, 2, 4])
        assert sub.size == 3
        assert sub.node_of(2) is machine.nodes[1]


class TestBarrier:
    def test_all_ranks_leave_after_slowest(self):
        machine, comm = make_comm()
        leave_times = []

        def prog(rank):
            yield machine.sim.timeout(float(rank))  # staggered arrivals
            yield from comm.barrier(rank)
            leave_times.append(machine.sim.now)

        run_ranks(machine, comm, prog)
        assert len(leave_times) == comm.size
        slowest_arrival = comm.size - 1
        assert all(t >= slowest_arrival for t in leave_times)
        assert max(leave_times) - min(leave_times) < 1e-9

    def test_barriers_match_in_order(self):
        machine, comm = make_comm(nodes=1, cores=2)
        log = []

        def prog(rank):
            for phase in range(3):
                yield from comm.barrier(rank)
                log.append((phase, rank))

        run_ranks(machine, comm, prog)
        # Both ranks complete phase k before either completes phase k+1.
        phases = [phase for phase, _ in log]
        assert phases == sorted(phases)


class TestCollectives:
    def test_bcast_distributes_root_value(self):
        machine, comm = make_comm()

        def prog(rank):
            value = "payload" if rank == 2 else None
            got = yield from comm.bcast(rank, value, root=2)
            return got

        assert run_ranks(machine, comm, prog) == ["payload"] * comm.size

    def test_gather_collects_in_rank_order(self):
        machine, comm = make_comm(nodes=1, cores=4)

        def prog(rank):
            got = yield from comm.gather(rank, rank * 10, root=1)
            return got

        results = run_ranks(machine, comm, prog)
        assert results[1] == [0, 10, 20, 30]
        assert results[0] is None

    def test_allgather(self):
        machine, comm = make_comm(nodes=1, cores=4)

        def prog(rank):
            return (yield from comm.allgather(rank, rank))

        results = run_ranks(machine, comm, prog)
        assert results[0] == (0, 1, 2, 3)
        # One tuple, built once and shared by every rank.
        assert all(result is results[0] for result in results)

    def test_reduce_and_allreduce(self):
        machine, comm = make_comm(nodes=1, cores=4)

        def prog(rank):
            total = yield from comm.reduce(rank, rank + 1, root=0)
            every = yield from comm.allreduce(rank, rank + 1)
            return total, every

        results = run_ranks(machine, comm, prog)
        assert results[0] == (10, 10)
        assert results[3] == (None, 10)

    def test_alltoallv_validates_length(self):
        # A dense list is not a {dst: nbytes} mapping; rank 5 does not
        # exist on 2 ranks; volumes must be finite and non-negative.
        for sends in ([1.0], {5: 1.0}, {1: -1.0}, {1: float("nan")}):
            machine, comm = make_comm(nodes=1, cores=2)

            def prog(rank, sends=sends):
                yield from comm.alltoallv(rank, sends)

            with pytest.raises(MPIError):
                run_ranks(machine, comm, prog)

    def test_alltoallv_charges_network_time(self):
        machine, comm = make_comm(nodes=2, cores=2)

        def prog(rank):
            # Everyone sends 1 GiB to the diagonally-opposite rank.
            yield from comm.alltoallv(
                rank, {(rank + 2) % comm.size: float(1 * GiB)})
            return machine.sim.now

        results = run_ranks(machine, comm, prog)
        # 2 GiB leaves each node through a 2 GiB/s NIC: ~1 s minimum.
        assert min(results) >= 1.0

    def test_alltoallv_totals_match_dense_reference(self):
        """The one sparse pass gives every rank exactly the egress,
        ingress and message count of the per-rank dense formulas it
        replaced, summed in the same order (9 ranks on 3 nodes)."""
        machine, comm = make_comm(nodes=3, cores=3)
        size = comm.size
        rng = random.Random(7)
        # Volumes of very different magnitudes make the float sums
        # depend on their order; destinations are inserted unordered.
        sends = [{dst: rng.choice([0.0, rng.random(), rng.random() * 1e12])
                  for dst in rng.sample(range(size), rng.randrange(size))}
                 for _src in range(size)]
        egress, ingress, messages = comm._alltoallv_totals(sends)
        dense = [[row.get(dst, 0.0) for dst in range(size)] for row in sends]
        for rank in range(size):
            node = comm.node_of(rank)
            row = dense[rank]
            column = [dense[src][rank] for src in range(size)]
            assert egress.get(rank, 0) == sum(
                volume for dst, volume in enumerate(row)
                if volume > 0 and comm.node_of(dst) is not node)
            assert ingress.get(rank, 0) == sum(
                volume for src, volume in enumerate(column)
                if volume > 0 and comm.node_of(src) is not node)
            assert messages.get(rank, 0) == sum(1 for v in row if v > 0)
        assert egress and ingress

    @pytest.mark.parametrize("calls, match", [
        pytest.param((lambda comm: comm.bcast(0, "x", root=0),
                      lambda comm: comm.reduce(1, 1.0)),
                     "reduce.*bcast", id="bcast-vs-reduce"),
        pytest.param((lambda comm: comm.barrier(0),
                      lambda comm: comm.allgather(1, 1)),
                     "allgather.*barrier", id="barrier-vs-allgather"),
        pytest.param((lambda comm: comm.bcast(0, "v0", root=0),
                      lambda comm: comm.bcast(1, "v1", root=1)),
                     "root=1.*root=0", id="each-rank-its-own-root"),
        pytest.param((lambda comm: comm.gather(0, 0, root=7),
                      lambda comm: comm.gather(1, 1, root=7)),
                     "root 7", id="gather-root-out-of-range"),
        pytest.param((lambda comm: comm.bcast(0, "x", root=-1),
                      lambda comm: comm.bcast(1, root=-1)),
                     "root -1", id="bcast-negative-root"),
        pytest.param((lambda comm: comm.barrier(0),
                      lambda comm: comm.barrier(5)),
                     "rank 5", id="barrier-rank-out-of-range"),
        pytest.param((lambda comm: comm.barrier(0),
                      lambda comm: comm.barrier(-1)),
                     "rank -1", id="negative-rank"),
    ])
    def test_malformed_collective_raises(self, calls, match):
        """Ranks that disagree on a collective or its root, or name a rank
        outside the communicator, get an MPIError (2 ranks)."""
        machine, comm = make_comm(nodes=1, cores=2)
        for call in calls:
            machine.sim.process(call(comm))
        with pytest.raises(MPIError, match=match):
            machine.sim.run()


class TestP2P:
    def test_send_recv_payload(self):
        machine, comm = make_comm(nodes=2, cores=1)

        def prog(rank):
            if rank == 0:
                yield from comm.send(rank, 1, payload={"k": 1},
                                     nbytes=float(2 * GiB))
                return None
            message = yield from comm.recv(rank)
            return (machine.sim.now, message)

        results = run_ranks(machine, comm, prog)
        arrival, message = results[1]
        assert message == {"k": 1}
        assert arrival >= 1.0  # 2 GiB over a 2 GiB/s NIC

    def test_send_to_invalid_rank(self):
        machine, comm = make_comm(nodes=1, cores=2)

        def prog(rank):
            if rank == 0:
                yield from comm.send(rank, 99)
            else:
                yield machine.sim.timeout(0.0)

        with pytest.raises(MPIError):
            run_ranks(machine, comm, prog)

    def test_recv_before_send(self):
        machine, comm = make_comm(nodes=1, cores=2)

        def prog(rank):
            if rank == 1:
                return (yield from comm.recv(rank))
            yield machine.sim.timeout(2.0)
            yield from comm.send(rank, 1, payload="late")
            return None

        results = run_ranks(machine, comm, prog)
        assert results[1] == "late"


class TestCollectiveIO:
    @staticmethod
    def quiet_fs(machine, **kwargs):
        return Lustre(
            machine, ntargets=4,
            target_spec=TargetSpec(straggler_sigma=0.0, request_latency=0.0,
                                   object_half=1e9, stream_half=1e9),
            metadata_spec=MetadataSpec(sigma=0.0),
            **kwargs)

    def test_default_aggregators_one_per_node(self):
        machine, comm = make_comm(nodes=3, cores=4)
        assert default_aggregators(comm) == [0, 4, 8]

    def test_collective_write_produces_one_file_of_right_size(self):
        machine, comm = make_comm(nodes=2, cores=4)
        fs = self.quiet_fs(machine)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "out.h5")
            yield from collective_write(cfile, rank, 4 * MiB)
            yield from collective_write(cfile, rank, 4 * MiB)
            yield from collective_close(cfile, rank)
            return machine.sim.now

        run_ranks(machine, comm, prog)
        assert fs.file_count == 1
        assert fs.lookup("out.h5").size == 2 * comm.size * 4 * MiB

    def test_only_aggregators_touch_the_filesystem(self):
        machine, comm = make_comm(nodes=2, cores=4)
        fs = self.quiet_fs(machine)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "out.h5")
            yield from collective_write(cfile, rank, 1 * MiB)
            yield from collective_close(cfile, rank)
            return None

        run_ranks(machine, comm, prog)
        # 2 aggregators wrote; the file saw exactly the payload bytes.
        assert fs.bytes_written == comm.size * 1 * MiB

    def test_all_ranks_finish_simultaneously(self):
        """The write phase ends at a barrier: no rank leaves early."""
        machine, comm = make_comm(nodes=2, cores=4)
        fs = self.quiet_fs(machine)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "out.h5")
            yield from collective_write(cfile, rank, 4 * MiB)
            return machine.sim.now

        results = run_ranks(machine, comm, prog)
        assert max(results) - min(results) < 1e-6
