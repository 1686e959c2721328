"""Deployment facade: wire Damaris onto a machine (DES back-end).

``DamarisDeployment`` dedicates the last ``config.dedicated_cores`` cores
of every SMP node, builds one server per dedicated core, partitions the
remaining cores into clients (space-partitioning, Section V-A), starts the
server processes and exposes the per-core client handles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.core.client import DamarisClient
from repro.core.config import DamarisConfig
from repro.core.plugins import PluginRegistry
from repro.core.server import DamarisOptions, DedicatedCoreServer
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.core import Core
    from repro.cluster.machine import Machine
    from repro.storage.filesystem import ParallelFileSystem

__all__ = ["DamarisDeployment"]


class DamarisDeployment:
    """Damaris instantiated across every node of a machine."""

    def __init__(self, machine: "Machine", fs: "ParallelFileSystem",
                 config: DamarisConfig,
                 options: Optional[DamarisOptions] = None,
                 registry: Optional[PluginRegistry] = None) -> None:
        config.validate()
        self.machine = machine
        self.fs = fs
        self.config = config
        self.options = options if options is not None else DamarisOptions()
        self.registry = registry if registry is not None else PluginRegistry()
        if self.options.compression is None:
            for spec in config.actions.values():
                if spec.action == "compress":
                    raise ConfigurationError(
                        f"event {spec.event!r} is bound to 'compress' but "
                        f"DamarisOptions.compression is None")

        ncores = machine.spec.cores_per_node
        ndedicated = config.dedicated_cores
        if ndedicated >= ncores:
            raise ConfigurationError(
                f"cannot dedicate {ndedicated} of {ncores} cores per node")

        self.servers: List[DedicatedCoreServer] = []
        self.clients: List[DamarisClient] = []
        self._client_by_core: Dict[int, DamarisClient] = {}

        total_dedicated = ndedicated * len(machine.nodes)
        slot = 0
        for node in machine.nodes:
            dedicated = node.cores[ncores - ndedicated:]
            compute = node.cores[:ncores - ndedicated]
            for core in dedicated:
                core.dedicated = True
            # Symmetric semantics (Section V-A): each dedicated core serves
            # a disjoint group of the node's compute cores.
            groups = np.array_split(np.arange(len(compute)), ndedicated)
            for dedicated_index, core in enumerate(dedicated):
                group = [compute[i] for i in groups[dedicated_index]]
                server = DedicatedCoreServer(
                    machine, fs, config, self.options, self.registry,
                    core=core, nclients=len(group),
                    slot_index=slot, nslots=total_dedicated)
                slot += 1
                self.servers.append(server)
                for local_id, client_core in enumerate(group):
                    client = DamarisClient(
                        server, client_core, local_id=local_id,
                        rank=client_core.global_index)
                    self.clients.append(client)
                    self._client_by_core[client_core.global_index] = client

        self._started = False

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn every server's main loop."""
        if self._started:
            raise ConfigurationError("deployment already started")
        self.server_processes = [
            self.machine.sim.process(server.run()) for server in self.servers
        ]
        self._started = True

    def signal(self, event: str, iteration: int,
               node: Optional[int] = None) -> None:
        """Send a *steering* event from outside the simulation (the
        paper's "events sent … by external tools"): fires the bound
        action immediately on the targeted node's servers (all when
        ``node`` is None), bypassing the per-client rendezvous."""
        from repro.core.equeue import UserEvent
        self.config.action_for(event)
        for server in self.servers:
            if node is not None and server.node.index != node:
                continue
            server.queue.put(UserEvent(name=event, iteration=iteration,
                                       source=-1))

    def client_for_core(self, global_core_index: int) -> DamarisClient:
        try:
            return self._client_by_core[global_core_index]
        except KeyError:
            raise ConfigurationError(
                f"core {global_core_index} has no Damaris client (is it "
                "dedicated?)") from None

    @property
    def nclients(self) -> int:
        return len(self.clients)

    # ------------------------------------------------------------------ #
    # aggregate accounting (used by the figure benches)
    # ------------------------------------------------------------------ #
    def dedicated_write_times(self) -> List[float]:
        """Per-(server, iteration) write busy times."""
        return [busy for server in self.servers
                for busy in server.busy_by_iteration.values()]

    def mean_spare_fraction(self, iteration_period: float) -> float:
        if not self.servers:
            return 1.0
        return float(np.mean([server.spare_time(iteration_period)
                              for server in self.servers]))

    def total_bytes(self) -> Dict[str, float]:
        return {
            "raw": sum(server.bytes_raw for server in self.servers),
            "out": sum(server.bytes_out for server in self.servers),
        }

    def files_written(self) -> int:
        return sum(server.files_written for server in self.servers)
