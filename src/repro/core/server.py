"""The dedicated-core server (DES back-end).

One server runs on each dedicated core. It owns the node's shared-memory
segment and event queue, keeps the variable metadata store, and reacts to
user events through the EPE: compressing, scheduling and persisting the
buffered variables into **one large file per node per iteration** — the
aggregation that gives Damaris its throughput advantage (fewer metadata
operations, bigger contiguous writes, no inter-node synchronisation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import DamarisConfig
from repro.core.equeue import Shutdown, UserEvent, WriteNotification
from repro.core.metadata import StoredVariable, VariableStore
from repro.core.plugins import PluginRegistry
from repro.core.epe import EventProcessingEngine
from repro.core.scheduler import TransferScheduler
from repro.core.shm import SharedMemorySegment
from repro.des.core import Event
from repro.des.resources import Resource, Store
from repro.formats.compression import CompressionModel
from repro.formats.hdf5model import HDF5

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machine import Machine
    from repro.cluster.node import Core, SMPNode
    from repro.storage.filesystem import ParallelFileSystem

__all__ = ["DamarisOptions", "DedicatedCoreServer"]


#: Where per-node files land inside the simulated file system.
OUTPUT_DIR = "damaris"


@dataclass
class DamarisOptions:
    """Deployment-wide choices of the DES back-end (Section IV-D)."""

    #: Model the ``compress`` action runs over each iteration (None =
    #: that action persists raw data).
    compression: Optional[CompressionModel] = None
    #: Stagger dedicated-core writes into slots.
    use_scheduler: bool = False


class DedicatedCoreServer:
    """Damaris server process bound to one dedicated core."""

    def __init__(self, machine: "Machine", fs: "ParallelFileSystem",
                 config: DamarisConfig, options: DamarisOptions,
                 registry: PluginRegistry, core: "Core", nclients: int,
                 slot_index: int = 0, nslots: int = 1) -> None:
        self.machine = machine
        self.fs = fs
        self.config = config
        self.options = options
        self.core = core
        self.node: "SMPNode" = core.node
        self.nclients = nclients

        self.segment = SharedMemorySegment(
            config.buffer_size, allocator=config.allocator,
            nclients=max(nclients, 1))
        self.queue = Store(machine.sim, capacity=config.queue_size)
        self.store = VariableStore()
        self.epe = EventProcessingEngine(config, registry, self, nclients)
        #: Serialisation point of the mutex-based allocator.
        self.alloc_mutex = Resource(machine.sim, capacity=1)
        self.scheduler: Optional[TransferScheduler] = (
            TransferScheduler(slot_index, nslots)
            if options.use_scheduler else None)

        # Accounting.
        self.busy_by_iteration: Dict[int, float] = {}
        self.persist_start_by_iteration: Dict[int, float] = {}
        self.persist_end_by_iteration: Dict[int, float] = {}
        self.bytes_raw = 0.0
        self.bytes_out = 0.0
        self.files_written = 0
        self.stats_runs = 0
        self._finalized_clients = 0
        self._free_waiters: List[Event] = []
        self._busy_accumulator: Dict[int, float] = {}
        self.running = False
        #: Iterations whose persist is in flight right now. Fault
        #: injection consults this: a crash must not double-free blocks
        #: of an iteration mid-persist, and a failover replay must not
        #: re-persist one.
        self.persisting: set = set()
        #: Failover crash state: while True the server process is dead —
        #: end-of-iteration signals are consumed without persisting
        #: anything (the data stays buffered in the surviving shm
        #: segment) until the restarted server replays it.
        self.suspended = False

    @property
    def trace_actor(self) -> str:
        """Trace row identity of this server ("pid/tid" in Chrome terms)."""
        return f"node{self.node.index}/server-core{self.core.index}"

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self):
        """The server process body (spawn with ``sim.process``)."""
        self.running = True
        while True:
            message = yield self.queue.get()
            if isinstance(message, WriteNotification):
                self._on_write(message)
            elif isinstance(message, UserEvent):
                yield from self.epe.handle(message)
            elif isinstance(message, Shutdown):
                self._finalized_clients += 1
                if self._finalized_clients >= self.nclients:
                    break
        # Drain: persist anything still buffered (flush-on-finalize).
        for iteration in self.store.iterations():
            yield from self.persist_iteration(iteration)
        self.running = False

    def _on_write(self, message: WriteNotification) -> None:
        layout = self.config.layout_of(message.variable)
        self.store.add(StoredVariable(
            name=message.variable,
            iteration=message.iteration,
            source=message.source,
            layout=layout,
            block=message.block,
            nbytes=message.block.size,
            local_client=message.client,
        ))

    # ------------------------------------------------------------------ #
    # actions (invoked by plugins through the EPE)
    # ------------------------------------------------------------------ #
    def compress_iteration(self, iteration: int):
        """Process: run the compression model over the iteration's data."""
        model = self.options.compression
        entries = self.store.iteration_entries(iteration)
        if model is None or not entries:
            return
        sim = self.machine.sim
        started = sim.now
        total = sum(entry.nbytes for entry in entries)
        yield sim.timeout(model.cpu_seconds(total))
        for entry in entries:
            entry.processed_bytes = int(model.output_bytes(entry.nbytes))
        self._busy_accumulator[iteration] = (
            self._busy_accumulator.get(iteration, 0.0)
            + (sim.now - started))
        tracer = sim.tracer
        if tracer.enabled:
            tracer.record_span(
                "compress", f"iter{iteration}", self.trace_actor,
                started, sim.now, iteration=iteration, nbytes=int(total))

    def persist_iteration(self, iteration: int):
        """Process: write the iteration's variables as one per-node file."""
        if self.suspended:
            # Crashed (failover semantics): the signal is lost with the
            # process image, but the data stays buffered in shm for the
            # restarted server to replay.
            return
        entries = self.store.iteration_entries(iteration)
        if not entries or iteration in self.persisting:
            # Nothing buffered, or another persist of the same iteration
            # is already in flight (a failover replay racing the
            # client's own end-of-iteration signal) — writing the
            # per-node file twice would double-charge the storage path.
            return
        self.persisting.add(iteration)
        try:
            yield from self._persist_iteration(iteration, entries)
        finally:
            self.persisting.discard(iteration)

    def _persist_iteration(self, iteration: int, entries):
        phase_start = self.machine.sim.now
        if self.scheduler is not None:
            self.scheduler.observe_phase_start(phase_start)
            delay = self.scheduler.delay_until_slot(self.machine.sim.now,
                                                    phase_start)
            if delay > 0:
                yield self.machine.sim.timeout(delay)

        busy_start = self.machine.sim.now
        raw = sum(entry.nbytes for entry in entries)
        out = sum(entry.output_bytes for entry in entries)
        file_bytes = HDF5.file_bytes(out, len(entries))

        pack = HDF5.pack_time(out)
        if pack > 0:
            yield self.machine.sim.timeout(pack)

        path = (f"{OUTPUT_DIR}/node{self.node.index}"
                f"/core{self.core.index}/iter{iteration}.h5")
        sim = self.machine.sim
        # The file system's default striping.
        handle = yield from self.fs.create(self.node, path)
        yield from self.fs.write(handle, 0, int(file_bytes), label="damaris")
        yield from self.fs.close(handle)

        self.release_iteration(iteration)
        busy = (self.machine.sim.now - busy_start
                + self._busy_accumulator.pop(iteration, 0.0))
        self.busy_by_iteration[iteration] = busy
        self.persist_start_by_iteration[iteration] = busy_start
        self.persist_end_by_iteration[iteration] = self.machine.sim.now
        self.bytes_raw += raw
        self.bytes_out += out
        self.files_written += 1
        tracer = sim.tracer
        if tracer.enabled:
            tracer.record_span(
                "persist", f"iter{iteration}", self.trace_actor,
                busy_start, sim.now, iteration=iteration, path=path,
                nbytes=int(out), raw_bytes=int(raw),
                entries=len(entries))

    def drop_buffered(self):
        """Crash semantics: discard buffered-but-unpersisted iterations.

        Iterations whose persist is already in flight are left alone —
        their flows stall on the crashed NIC and complete after
        recovery; everything else is lost with the process image.
        Returns ``(iterations dropped, bytes dropped)`` so the injector
        can account data loss.
        """
        dropped_iters = 0
        dropped_bytes = 0.0
        for iteration in list(self.store.iterations()):
            if iteration in self.persisting:
                continue
            dropped_iters += 1
            for entry in self.store.pop_iteration(iteration):
                dropped_bytes += entry.nbytes
                self.segment.free(entry.block, client=entry.local_client)
        if dropped_iters:
            waiters, self._free_waiters = self._free_waiters, []
            for waiter in waiters:
                waiter.succeed()
        return dropped_iters, dropped_bytes

    def replayable_iterations(self):
        """Buffered iterations a failover restart must re-persist.

        The named shm segment survives a dedicated-core crash, so
        everything buffered (including writes that landed during the
        outage) is recoverable; iterations already mid-persist are
        excluded — their flows merely stalled on the dead NIC and
        finish on their own after recovery.
        """
        return sorted(iteration for iteration in self.store.iterations()
                      if iteration not in self.persisting)

    def release_iteration(self, iteration: int) -> None:
        """Free the iteration's shared-memory blocks and wake any client
        stalled on a full buffer."""
        for entry in self.store.pop_iteration(iteration):
            self.segment.free(entry.block, client=entry.local_client)
        waiters, self._free_waiters = self._free_waiters, []
        for waiter in waiters:
            waiter.succeed()

    def wait_for_free(self) -> Event:
        """Event that fires the next time buffer space is released."""
        event = Event(self.machine.sim)
        self._free_waiters.append(event)
        return event

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def spare_time(self, iteration_period: float) -> float:
        """Average fraction of each iteration the dedicated core is idle."""
        if not self.busy_by_iteration or iteration_period <= 0:
            return 1.0
        import numpy as np
        busy = float(np.mean(list(self.busy_by_iteration.values())))
        return max(0.0, 1.0 - busy / iteration_period)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DedicatedCoreServer node={self.node.index} "
                f"clients={self.nclients} files={self.files_written}>")
