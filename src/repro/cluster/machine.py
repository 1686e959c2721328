"""Machine builder: nodes + interconnect + instrumentation in one place.

A :class:`Machine` is described by a :class:`MachineSpec` (counts and
bandwidths) and owns the simulator, the flow network and the random
streams; a tracer attaches on request (:meth:`Machine.attach_tracer`).
File systems (:mod:`repro.storage`) are attached afterwards and register
their own capacities on ``machine.flows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.des.bandwidth import Flow, FlowNetwork, LinkCapacity
from repro.des.core import Simulator
from repro.observe.tracer import Tracer
from repro.des.rng import RandomStreams
from repro.cluster.node import Core, SMPNode
from repro.cluster.noise import NoiseModel, OSNoise
from repro.errors import SimulationError
from repro.units import GiB

__all__ = ["MachineSpec", "Machine"]


@dataclass
class MachineSpec:
    """Static description of a compute platform.

    Bandwidths are bytes/s. ``fabric_bandwidth`` models the aggregate
    bisection available toward the storage network (set to ``inf`` for a
    non-blocking fabric).
    """

    name: str = "machine"
    nodes: int = 4
    cores_per_node: int = 12
    mem_bandwidth: float = 4.0 * GiB
    nic_bandwidth: float = 1.0 * GiB
    fabric_bandwidth: float = math.inf
    memory_per_node: float = 16.0 * GiB

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise SimulationError(f"need >= 1 node, got {self.nodes}")
        if self.cores_per_node < 1:
            raise SimulationError(
                f"need >= 1 core per node, got {self.cores_per_node}")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node


class Machine:
    """A built platform: simulator + flow network + nodes (+ optional fabric)."""

    def __init__(self, spec: MachineSpec, seed: int = 0,
                 noise: Optional[NoiseModel] = None,
                 completion_slack: float = 0.01,
                 fairness_slack: float = 0.08) -> None:
        self.spec = spec
        self.sim = Simulator()
        self.flows = FlowNetwork(self.sim, completion_slack=completion_slack,
                                 fairness_slack=fairness_slack)
        self.streams = RandomStreams(seed)
        self.noise = noise if noise is not None else OSNoise()
        self.noise.bind(self.streams)

        self.fabric: Optional[LinkCapacity] = None
        if math.isfinite(spec.fabric_bandwidth):
            self.fabric = self.flows.add_capacity(
                "fabric", spec.fabric_bandwidth)

        self.nodes: List[SMPNode] = [
            SMPNode(self, i, spec.cores_per_node,
                    mem_bandwidth=spec.mem_bandwidth,
                    nic_bandwidth=spec.nic_bandwidth,
                    memory_bytes=spec.memory_per_node)
            for i in range(spec.nodes)
        ]

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #
    def attach_tracer(self, tracer: Tracer) -> Tracer:
        """Route every model layer's instrumentation into ``tracer``,
        rebinding its clock to simulated time."""
        tracer.clock = lambda: self.sim.now
        tracer.clock_name = "sim"
        self.sim.tracer = tracer
        return tracer

    @property
    def tracer(self) -> Tracer:
        return self.sim.tracer

    # ------------------------------------------------------------------ #
    # lookup helpers
    # ------------------------------------------------------------------ #
    @property
    def total_cores(self) -> int:
        return self.spec.total_cores

    def core(self, global_index: int) -> Core:
        """Resolve a machine-wide core id to a Core object."""
        per_node = self.spec.cores_per_node
        node_index, local = divmod(global_index, per_node)
        if not 0 <= node_index < len(self.nodes):
            raise SimulationError(f"no core {global_index} on {self.spec.name}")
        return self.nodes[node_index].cores[local]

    def all_cores(self) -> List[Core]:
        return [core for node in self.nodes for core in node.cores]

    # ------------------------------------------------------------------ #
    # data movement
    # ------------------------------------------------------------------ #
    def send(self, src: SMPNode, dst: SMPNode, nbytes: float,
             label: str = "msg") -> Flow:
        """Inter-node message: src NIC-tx → (fabric) → dst NIC-rx."""
        if src is dst:
            return src.memcpy(nbytes, label=label)
        path = [src.nic_tx, dst.nic_rx]
        if self.fabric is not None:
            path.insert(1, self.fabric)
        return self.flows.transfer(path, nbytes, label=label)

    def path_to_storage(self, src: SMPNode,
                        target: LinkCapacity) -> List[LinkCapacity]:
        """Capacities crossed by a write from ``src`` to a storage target."""
        path = [src.nic_tx, target]
        if self.fabric is not None:
            path.insert(1, self.fabric)
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Machine {self.spec.name!r} nodes={self.spec.nodes} "
                f"cores={self.total_cores}>")
