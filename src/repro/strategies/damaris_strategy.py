"""The Damaris strategy: dedicated-core asynchronous I/O.

Each rank's write phase is a sequence of ``df_write`` calls (one per
variable — a shared-memory copy each) plus one ``df_signal``; the node's
dedicated core persists the aggregated data asynchronously while the next
compute block runs. The harness dedicates one core per node and grows the
remaining subdomains (weak-scaling equivalence, Section IV-B).
"""

from __future__ import annotations

from typing import Optional

from repro.core.api import DamarisDeployment
from repro.core.config import DamarisConfig
from repro.core.server import DamarisOptions
from repro.strategies.base import IOStrategy, StrategyContext

__all__ = ["DamarisStrategy", "DamarisFailoverStrategy"]

#: The configured event every client signals at the end of an output step.
END_EVENT = "end_of_iteration"


class DamarisStrategy(IOStrategy):
    """Writes go to the node's dedicated core through shared memory.

    The end-of-iteration event runs the ``compress`` action (compress,
    then persist) exactly when ``options.compression`` is set, else
    ``persist``.
    """

    name = "damaris"
    uses_dedicated_cores = True

    def __init__(self, options: Optional[DamarisOptions] = None,
                 dedicated_cores_per_node: int = 1) -> None:
        self.options = options if options is not None else DamarisOptions()
        self.dedicated_cores_per_node = dedicated_cores_per_node
        self.deployment: Optional[DamarisDeployment] = None

    # ------------------------------------------------------------------ #
    def build_config(self, ctx: StrategyContext) -> DamarisConfig:
        """Derive the Damaris XML-equivalent configuration from the
        workload (one layout+variable per CM1 field)."""
        config = DamarisConfig()
        for name, nbytes in ctx.workload.variable_bytes(ctx.dilation).items():
            elements = max(1, nbytes // 4)
            config.add_layout(f"layout_{name}", "float", (elements,))
            config.add_variable(name, f"layout_{name}")
        action = ("persist" if self.options.compression is None
                  else "compress")
        config.add_event(END_EVENT, action)
        config.dedicated_cores = self.dedicated_cores_per_node
        # Room for three in-flight iterations per node.
        per_iteration = (ctx.workload.bytes_per_core(ctx.dilation)
                         * max(1, ctx.comm.size // len(ctx.machine.nodes)))
        config.buffer_size = max(3 * per_iteration, 1 << 20)
        return config

    def setup(self, ctx: StrategyContext) -> None:
        self.deployment = DamarisDeployment(
            ctx.machine, ctx.fs, self.build_config(ctx),
            options=self.options)
        self.deployment.start()
        ctx.state["deployment"] = self.deployment
        ctx.state["server_processes"] = self.deployment.server_processes

    def write_phase(self, ctx: StrategyContext, rank: int, phase: int):
        client = self.deployment.client_for_core(
            ctx.comm.cores[rank].global_index)
        for name in ctx.workload.variable_bytes(ctx.dilation):
            yield from client.df_write(name, phase)
        yield from client.df_signal(END_EVENT, phase)

    def rank_teardown(self, ctx: StrategyContext, rank: int):
        client = self.deployment.client_for_core(
            ctx.comm.cores[rank].global_index)
        yield from client.df_finalize()

    def drain_events(self, ctx: StrategyContext):
        """The experiment also waits for every server to flush and stop."""
        return list(ctx.state.get("server_processes", []))

    # -- fault injection ----------------------------------------------- #
    def _servers_on(self, node):
        if self.deployment is None:
            return []
        return [server for server in self.deployment.servers
                if server.node is node]

    def on_fault(self, ctx: StrategyContext, fault, node):
        """A crash takes the dedicated core's process image — and with
        it every buffered-but-unpersisted iteration — down with the
        node. Iterations already mid-persist survive as stalled flows."""
        iters = 0
        nbytes = 0.0
        for server in self._servers_on(node):
            dropped_iters, dropped_bytes = server.drop_buffered()
            iters += dropped_iters
            nbytes += dropped_bytes
        return iters, nbytes


class DamarisFailoverStrategy(DamarisStrategy):
    """Dedicated-core failover: the shm buffer survives a crash.

    Models a crash of the dedicated core's *process* while the node's
    shared-memory segment persists (the Damaris design keeps all client
    data in a named shm region precisely so a restarted server can
    re-attach). During the outage the server is *suspended*:
    end-of-iteration signals die with the process image, so nothing is
    persisted — but client writes keep landing in the surviving shm
    buffer. At recovery the restarted server replays every buffered
    iteration. Recovery takes longer (the replay writes happen after
    the outage), but the data-loss metric stays at zero.
    """

    name = "damaris_failover"

    def on_fault(self, ctx: StrategyContext, fault, node):
        # The shm segment outlives the process image: no loss, but the
        # server stops persisting until it is restarted.
        for server in self._servers_on(node):
            server.suspended = True
        return 0, 0.0

    def on_recover(self, ctx: StrategyContext, fault, node):
        sim = ctx.machine.sim
        replays = []
        for server in self._servers_on(node):
            server.suspended = False
            for iteration in server.replayable_iterations():
                replays.append(
                    sim.process(server.persist_iteration(iteration)))
        return replays
