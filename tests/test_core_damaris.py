"""Integration tests: Damaris clients + dedicated-core server on the DES."""

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec, NoNoise
from repro.core import DamarisConfig, DamarisDeployment, VariableStore
from repro.core.metadata import StoredVariable
from repro.core.plugins import PluginRegistry
from repro.core.scheduler import TransferScheduler
from repro.core.server import DamarisOptions
from repro.core.shm import Block
from repro.errors import (
    ConfigurationError,
    PluginError,
    ReproError,
    UnknownEventError,
)
from repro.formats.compression import GZIP_MODEL
from repro.formats.layout import Layout
from repro.storage import Lustre, MetadataSpec, TargetSpec
from repro.units import GiB, KiB, MiB


def build(nodes=2, cores=4, buffer_mib=256, allocator="mutex",
          options=None, registry=None, seed=7):
    machine = Machine(
        MachineSpec(nodes=nodes, cores_per_node=cores,
                    mem_bandwidth=2 * GiB, nic_bandwidth=1 * GiB),
        seed=seed, noise=NoNoise(), completion_slack=0.0, fairness_slack=0.0)
    fs = Lustre(machine, ntargets=8,
                target_spec=TargetSpec(straggler_sigma=0.0,
                                       request_latency=0.0,
                                       object_half=1e9, stream_half=1e9),
                metadata_spec=MetadataSpec(sigma=0.0))
    config = DamarisConfig()
    config.add_layout("grid", "float", (64, 64, 16))  # 256 KiB
    config.add_variable("temperature", "grid")
    config.add_variable("wind_u", "grid")
    config.add_event("end_iteration", "persist")
    config.buffer_size = buffer_mib * MiB
    config.allocator = allocator
    deployment = DamarisDeployment(machine, fs, config, options=options,
                                   registry=registry)
    deployment.start()
    return machine, fs, deployment


def run_clients(machine, deployment, iterations=2, compute=5.0,
                variables=("temperature", "wind_u")):
    """Drive every client through the canonical CM1-style loop; returns the
    per-client list of write-phase durations."""
    phases = []

    def client_program(client):
        for iteration in range(iterations):
            yield client.core.compute(compute)
            start = machine.sim.now
            for variable in variables:
                yield machine.sim.process(
                    client.df_write(variable, iteration))
            yield machine.sim.process(
                client.df_signal("end_iteration", iteration))
            phases.append(machine.sim.now - start)
        yield machine.sim.process(client.df_finalize())

    for client in deployment.clients:
        machine.sim.process(client_program(client))
    machine.sim.run()
    return phases


class TestDeployment:
    def test_partitioning(self):
        machine, _, deployment = build(nodes=2, cores=4)
        assert len(deployment.servers) == 2
        assert deployment.nclients == 6  # 3 compute cores per node
        for node in machine.nodes:
            assert len(node.dedicated_cores()) == 1

    def test_cannot_dedicate_all_cores(self):
        machine = Machine(MachineSpec(nodes=1, cores_per_node=2), seed=0)
        from repro.storage import Lustre
        fs = Lustre(machine, ntargets=2)
        config = DamarisConfig()
        config.dedicated_cores = 2
        with pytest.raises(ConfigurationError):
            DamarisDeployment(machine, fs, config)

    def test_two_dedicated_cores_split_clients(self):
        machine = Machine(MachineSpec(nodes=1, cores_per_node=6), seed=0,
                          noise=NoNoise())
        fs = Lustre(machine, ntargets=2,
                    target_spec=TargetSpec(straggler_sigma=0.0))
        config = DamarisConfig()
        config.add_layout("l", "float", (16,))
        config.add_variable("v", "l")
        config.add_event("e", "persist")
        config.dedicated_cores = 2
        deployment = DamarisDeployment(machine, fs, config)
        assert len(deployment.servers) == 2
        assert sorted(s.nclients for s in deployment.servers) == [2, 2]

    def test_client_lookup(self):
        _, _, deployment = build(nodes=1, cores=4)
        client = deployment.client_for_core(0)
        assert client.rank == 0
        with pytest.raises(ConfigurationError):
            deployment.client_for_core(3)  # the dedicated core


class TestWritePath:
    def test_write_phase_is_memcpy_fast(self):
        machine, _, deployment = build()
        phases = run_clients(machine, deployment)
        # 2 variables x 256 KiB over a 2 GiB/s bus shared by 3 clients:
        # well under 10 ms, vastly below any real I/O time.
        assert max(phases) < 0.01

    def test_one_file_per_node_per_iteration(self):
        machine, fs, deployment = build(nodes=2)
        run_clients(machine, deployment, iterations=3)
        assert deployment.files_written() == 6
        assert fs.file_count == 6

    def test_file_contains_all_clients_data(self):
        machine, fs, deployment = build(nodes=1)
        run_clients(machine, deployment, iterations=1)
        file = fs.lookup("damaris/node0/core3/iter0.h5")
        data_bytes = 3 * 2 * 256 * KiB  # 3 clients x 2 variables
        assert file.size >= data_bytes  # plus format overhead

    def test_shared_memory_drains_after_persist(self):
        machine, _, deployment = build()
        run_clients(machine, deployment)
        for server in deployment.servers:
            assert server.segment.used_bytes == 0
            assert len(server.store) == 0

    def test_write_with_explicit_nbytes(self):
        machine, _, deployment = build(nodes=1)
        client = deployment.clients[0]

        def program():
            yield machine.sim.process(
                client.df_write("temperature", 0, nbytes=1000))
            yield machine.sim.process(client.df_signal("end_iteration", 0))
            yield machine.sim.process(client.df_finalize())

        # Other clients must finalize too so the server stops.
        def finalize_only(other):
            yield machine.sim.process(other.df_finalize())

        machine.sim.process(program())
        for other in deployment.clients[1:]:
            machine.sim.process(finalize_only(other))
        machine.sim.run()
        assert client.bytes_written == 1000

    def test_zero_copy_alloc_commit(self):
        machine, _, deployment = build(nodes=1)
        client = deployment.clients[0]
        log = {}

        def program():
            block = yield machine.sim.process(
                client.dc_alloc("temperature", 0))
            log["block"] = block
            # Simulation computes in place, then commits with no memcpy.
            start = machine.sim.now
            yield machine.sim.process(
                client.dc_commit("temperature", 0, block))
            log["commit_time"] = machine.sim.now - start
            yield machine.sim.process(client.df_signal("end_iteration", 0))
            yield machine.sim.process(client.df_finalize())

        def finalize_only(other):
            yield machine.sim.process(other.df_finalize())

        machine.sim.process(program())
        for other in deployment.clients[1:]:
            machine.sim.process(finalize_only(other))
        machine.sim.run()
        assert isinstance(log["block"], Block)
        assert log["commit_time"] < 1e-4  # notification only

    def test_full_buffer_applies_backpressure(self):
        # The buffer fits exactly one iteration's data (3 clients x 2
        # variables x 256 KiB = 1.5 MiB). With near-zero compute time,
        # iteration k+1's writes arrive before iteration k is persisted
        # and must stall until the server frees the buffer.
        machine, _, deployment = build(nodes=1, buffer_mib=2)
        run_clients(machine, deployment, iterations=3, compute=1e-4)
        assert any(client.stall_time > 0 for client in deployment.clients)
        assert deployment.files_written() == 3

    def test_partitioned_allocator_end_to_end(self):
        machine, _, deployment = build(allocator="partitioned")
        phases = run_clients(machine, deployment)
        assert deployment.files_written() == 4
        for server in deployment.servers:
            assert server.segment.used_bytes == 0

    def test_client_use_after_finalize_raises(self):
        machine, _, deployment = build(nodes=1)
        client = deployment.clients[0]

        def program():
            yield machine.sim.process(client.df_finalize())
            yield machine.sim.process(client.df_write("temperature", 0))

        machine.sim.process(program())
        with pytest.raises(ReproError):
            machine.sim.run()

    def test_unknown_event_rejected_at_client(self):
        machine, _, deployment = build(nodes=1)
        client = deployment.clients[0]

        def program():
            yield machine.sim.process(client.df_signal("no_such_event", 0))

        machine.sim.process(program())
        with pytest.raises(UnknownEventError):
            machine.sim.run()


class TestCompressionAndScheduling:
    def test_compression_shrinks_output(self):
        options = DamarisOptions(compression=GZIP_MODEL)
        config_patch = {"end_iteration": "compress"}
        machine, fs, deployment = build(options=options)
        # Rebind the event to the compress plugin.
        deployment.config.actions["end_iteration"] = \
            deployment.config.actions["end_iteration"].__class__(
                "end_iteration", "compress")
        run_clients(machine, deployment, iterations=1)
        totals = deployment.total_bytes()
        assert totals["out"] == pytest.approx(totals["raw"] / 1.87, rel=0.01)

    def test_compress_without_model_rejected_at_deployment(self):
        machine, fs, _ = build()
        config = DamarisConfig()
        config.add_layout("grid", "float", (64, 64, 16))
        config.add_variable("temperature", "grid")
        config.add_event("end_iteration", "compress")
        with pytest.raises(ConfigurationError, match="compress"):
            DamarisDeployment(machine, fs, config)

    def test_compress_rebound_without_model_raises(self):
        # Rebinding after construction gets past the deployment's check;
        # the action itself must still refuse to persist raw data.
        machine, fs, deployment = build()
        deployment.config.actions["end_iteration"] = \
            deployment.config.actions["end_iteration"].__class__(
                "end_iteration", "compress")
        with pytest.raises(ConfigurationError, match="compress"):
            run_clients(machine, deployment, iterations=1)
        assert fs.file_count == 0

    def test_compression_time_charged_to_dedicated_core(self):
        options = DamarisOptions(compression=GZIP_MODEL)
        machine, _, deployment = build(options=options)
        deployment.config.actions["end_iteration"] = \
            deployment.config.actions["end_iteration"].__class__(
                "end_iteration", "compress")
        run_clients(machine, deployment, iterations=1)
        plain_machine, _, plain_deployment = build()
        run_clients(plain_machine, plain_deployment, iterations=1)
        assert (np.mean(deployment.dedicated_write_times())
                > np.mean(plain_deployment.dedicated_write_times()))

    def test_scheduler_staggers_servers(self):
        options = DamarisOptions(use_scheduler=True)
        machine, _, deployment = build(nodes=4, options=options)
        run_clients(machine, deployment, iterations=3, compute=2.0)
        # After the first (unestimated) phase, servers write in distinct
        # slots: their persist completion times within an iteration spread.
        ends = [server.persist_end_by_iteration[2]
                for server in deployment.servers]
        assert max(ends) - min(ends) > 0.3  # ~2s period over 4 slots

    def test_scheduler_validation(self):
        with pytest.raises(ReproError):
            TransferScheduler(slot_index=3, nslots=3)
        with pytest.raises(ReproError):
            TransferScheduler(slot_index=0, nslots=0)

    def test_scheduler_learns_period(self):
        scheduler = TransferScheduler(slot_index=1, nslots=4)
        scheduler.observe_phase_start(100.0)
        assert scheduler.slot_offset() == 0.0  # no estimate yet
        scheduler.observe_phase_start(300.0)
        assert scheduler.estimated_period == 200.0
        assert scheduler.slot_offset() == 50.0
        assert scheduler.delay_until_slot(now=310.0, phase_start=300.0) == 40.0


class TestPluginsAndEPE:
    def test_custom_plugin_runs(self):
        registry = PluginRegistry()
        calls = []

        def my_plugin(context):
            calls.append(context.iteration)
            yield context.server.machine.sim.timeout(0.0)
            context.server.release_iteration(context.iteration)

        registry.register("do_something", my_plugin)
        machine, _, deployment = build(registry=registry)
        deployment.config.add_event("my_event", "do_something")

        def program(client):
            yield machine.sim.process(client.df_write("temperature", 0))
            yield machine.sim.process(client.df_signal("my_event", 0))
            yield machine.sim.process(client.df_finalize())

        for client in deployment.clients:
            machine.sim.process(program(client))
        machine.sim.run()
        # scope=local: fired once per node after all clients signalled.
        assert calls == [0, 0]

    def test_global_scope_fires_per_signal(self):
        registry = PluginRegistry()
        calls = []

        def counter_plugin(context):
            calls.append(context.event.source)
            return None

        registry.register("count", counter_plugin)
        machine, _, deployment = build(nodes=1, registry=registry)
        deployment.config.add_event("tick", "count", scope="global")

        def program(client):
            yield machine.sim.process(client.df_signal("tick", 0))
            yield machine.sim.process(client.df_finalize())

        for client in deployment.clients:
            machine.sim.process(program(client))
        machine.sim.run()
        assert len(calls) == 3  # one per client signal

    def test_registry_validation(self):
        registry = PluginRegistry()
        with pytest.raises(PluginError):
            registry.register("persist", lambda ctx: None)  # duplicate
        with pytest.raises(PluginError):
            registry.register("bad", "not-callable")
        with pytest.raises(PluginError):
            registry.get("missing")
        assert "compress" in registry

    def test_discard_plugin_frees_without_files(self):
        machine, fs, deployment = build(nodes=1)
        deployment.config.actions["end_iteration"] = \
            deployment.config.actions["end_iteration"].__class__(
                "end_iteration", "discard")
        run_clients(machine, deployment, iterations=1)
        assert fs.file_count == 0
        for server in deployment.servers:
            assert server.segment.used_bytes == 0

    def test_statistics_plugin(self):
        machine, fs, deployment = build(nodes=1)
        deployment.config.add_event("stats", "statistics")

        def program(client):
            yield machine.sim.process(client.df_write("temperature", 0))
            yield machine.sim.process(client.df_signal("stats", 0))
            yield machine.sim.process(client.df_signal("end_iteration", 0))
            yield machine.sim.process(client.df_finalize())

        for client in deployment.clients:
            machine.sim.process(program(client))
        machine.sim.run()
        assert deployment.servers[0].stats_runs == 1


class TestExternalSteering:
    def test_external_signal_persists_without_rendezvous(self):
        machine, fs, deployment = build(nodes=1)
        done = []

        def program(client, is_writer):
            if is_writer:
                yield machine.sim.process(client.df_write("temperature", 0))
            # Nobody signals end_iteration — the external tool will.
            yield client.core.compute(1.0)
            yield machine.sim.process(client.df_finalize())
            done.append(client.rank)

        for index, client in enumerate(deployment.clients):
            machine.sim.process(program(client, is_writer=(index == 0)))

        def external_tool():
            yield machine.sim.timeout(0.5)
            deployment.signal("end_iteration", 0)

        machine.sim.process(external_tool())
        machine.sim.run()
        assert len(done) == 3
        # The external signal persisted iteration 0 before finalize.
        assert deployment.files_written() >= 1

    def test_signal_validates_event(self):
        _, _, deployment = build(nodes=1)
        with pytest.raises(UnknownEventError):
            deployment.signal("ghost-event", 0)


class TestVariableStore:
    def entry(self, name="v", iteration=0, source=0):
        return StoredVariable(
            name=name, iteration=iteration, source=source,
            layout=Layout("l", "float", (4,)), block=Block(0, 16), nbytes=16)

    def test_add_get(self):
        store = VariableStore()
        entry = self.entry()
        store.add(entry)
        assert store.get("v", 0, 0) is entry
        assert len(store) == 1

    def test_duplicate_rejected(self):
        store = VariableStore()
        store.add(self.entry())
        with pytest.raises(ReproError):
            store.add(self.entry())

    def test_missing_raises(self):
        with pytest.raises(ReproError):
            VariableStore().get("v", 0, 0)

    def test_iteration_grouping(self):
        store = VariableStore()
        store.add(self.entry(source=0))
        store.add(self.entry(source=1))
        store.add(self.entry(iteration=1, source=0))
        assert len(store.iteration_entries(0)) == 2
        assert store.iterations() == [0, 1]
        popped = store.pop_iteration(0)
        assert len(popped) == 2
        assert len(store) == 1
        assert store.total_buffered_bytes() == 16

    def test_output_bytes_tracks_processing(self):
        entry = self.entry()
        assert entry.output_bytes == 16
        entry.processed_bytes = 4
        assert entry.output_bytes == 4
