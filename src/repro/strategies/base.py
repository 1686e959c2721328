"""Strategy interface and shared context."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.workload import CM1Workload
    from repro.cluster.machine import Machine
    from repro.mpi.comm import Communicator
    from repro.storage.filesystem import ParallelFileSystem

__all__ = ["StrategyContext", "IOStrategy"]


@dataclass
class StrategyContext:
    """Everything a strategy needs while the experiment runs."""

    machine: "Machine"
    fs: "ParallelFileSystem"
    comm: "Communicator"
    workload: "CM1Workload"
    #: Per-core subdomain dilation (1.0 without dedicated cores).
    dilation: float = 1.0
    #: Scratch space for strategy state (shared files, deployments...).
    state: Dict[str, Any] = field(default_factory=dict)

    @property
    def bytes_per_rank(self) -> int:
        return self.workload.bytes_per_core(self.dilation)

    @property
    def ndatasets(self) -> int:
        return len(self.workload.variables)


class IOStrategy:
    """One approach to performing CM1's periodic output."""

    #: Display name (used in tables and reports).
    name = "abstract"
    #: Whether the harness must dedicate cores per node to this strategy.
    uses_dedicated_cores = False
    #: How many cores per node to dedicate (when uses_dedicated_cores).
    dedicated_cores_per_node = 1

    def setup(self, ctx: StrategyContext) -> None:
        """Plain-Python preparation before any rank starts (no sim time)."""

    def rank_setup(self, ctx: StrategyContext, rank: int):
        """Process: per-rank preparation (may cost simulated time)."""
        yield ctx.machine.sim.timeout(0.0)

    def write_phase(self, ctx: StrategyContext, rank: int, phase: int):
        """Process: one rank's work during write phase ``phase``."""
        raise NotImplementedError
        yield  # pragma: no cover

    def rank_teardown(self, ctx: StrategyContext, rank: int):
        """Process: per-rank cleanup after the last phase."""
        yield ctx.machine.sim.timeout(0.0)

    def finalize(self, ctx: StrategyContext) -> None:
        """Plain-Python cleanup after the simulation finishes."""

    def drain_events(self, ctx: StrategyContext):
        """Events that must complete before the experiment is 'done'
        (e.g. Damaris servers flushing). Default: none."""
        return []

    # -- fault injection (repro.faults) -------------------------------- #
    def on_fault(self, ctx: StrategyContext, fault, node):
        """A node this strategy may hold state on just crashed.

        Called by the :class:`~repro.faults.injector.FaultInjector` at
        the crash instant, after the node's NIC has been cut. Returns
        ``(iterations lost, bytes lost)`` of buffered user data the
        crash destroyed. Synchronous strategies hold no buffered state —
        in-flight writes merely stall on the dead NIC and resume at
        recovery — so the default loses nothing.
        """
        return 0, 0.0

    def on_recover(self, ctx: StrategyContext, fault, node):
        """The crashed node just came back.

        Returns events the injector must await before the fault counts
        as recovered (e.g. failover write replay). Default: none — the
        fault recovers the moment the node's links are restored.
        """
        return []
