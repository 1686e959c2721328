"""Client-side Damaris API (DES back-end).

The four functions of Section III-D, as generator processes:

- ``df_write(name, iteration)`` — reserve shared memory (mutex or
  lock-free), copy the variable (one bandwidth-shared ``memcpy``), notify
  the server;
- ``df_signal(name, iteration)`` — push a user event;
- ``dc_alloc(name, iteration)`` / ``dc_commit(...)`` — the zero-copy
  variant: the simulation computes directly inside the shared buffer, so
  committing costs only a notification;
- ``df_finalize()`` — tell the server this client is done.

A full buffer blocks ``df_write``/``dc_alloc`` until the server releases
space — exactly the back-pressure a too-small real buffer produces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.equeue import Shutdown, UserEvent, WriteNotification
from repro.core.shm import Block
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Core
    from repro.core.server import DedicatedCoreServer

__all__ = ["DamarisClient"]

#: Cost of one mutex-protected shm reservation (Boost allocator).
MUTEX_LATENCY = 2.0e-6
#: Cost of pushing one message onto the shared event queue.
QUEUE_LATENCY = 1.0e-6


class DamarisClient:
    """Handle used by one simulation core to talk to its node's server."""

    def __init__(self, server: "DedicatedCoreServer", core: "Core",
                 local_id: int, rank: int) -> None:
        self.server = server
        self.core = core
        self.local_id = local_id
        self.rank = rank
        self.writes = 0
        self.bytes_written = 0
        self.stall_time = 0.0
        self._finalized = False

    @property
    def trace_actor(self) -> str:
        """Trace row identity of this client ("pid/tid" in Chrome terms)."""
        return f"node{self.core.node.index}/rank{self.rank}"

    # ------------------------------------------------------------------ #
    # the API
    # ------------------------------------------------------------------ #
    def df_write(self, name: str, iteration: int,
                 nbytes: Optional[int] = None):
        """Process: copy one variable into shared memory and notify.

        ``nbytes`` overrides the layout size (for variables whose actual
        extent differs, e.g. particle arrays)."""
        self._check_live()
        sim = self.server.machine.sim
        started = sim.now
        size = nbytes if nbytes is not None \
            else self.server.config.layout_of(name).nbytes
        block = yield from self._reserve(size)
        flow = self.core.node.memcpy(size, label=f"dfwrite.{name}")
        yield flow.event
        yield from self._notify(WriteNotification(
            variable=name, iteration=iteration, source=self.rank,
            block=block, client=self.local_id))
        self.writes += 1
        self.bytes_written += size
        tracer = sim.tracer
        if tracer.enabled:
            tracer.record_span(
                "df_write", name, self.trace_actor, started, sim.now,
                variable=name, iteration=iteration, nbytes=int(size),
                rank=self.rank)
        return size

    def dc_alloc(self, name: str, iteration: int):
        """Process: reserve the variable's space for in-place computation.

        Returns the :class:`Block`; pair with :meth:`dc_commit`."""
        self._check_live()
        size = self.server.config.layout_of(name).nbytes
        block = yield from self._reserve(size)
        return block

    def dc_commit(self, name: str, iteration: int, block: Block):
        """Process: mark a ``dc_alloc``'d variable ready (zero copy)."""
        self._check_live()
        yield from self._notify(WriteNotification(
            variable=name, iteration=iteration, source=self.rank,
            block=block, client=self.local_id))
        self.writes += 1
        self.bytes_written += block.size

    def df_signal(self, name: str, iteration: int):
        """Process: send a user-defined event to the server."""
        self._check_live()
        # Validate the event exists before queueing it.
        self.server.config.action_for(name)
        yield from self._notify(UserEvent(
            name=name, iteration=iteration, source=self.rank))
        sim = self.server.machine.sim
        tracer = sim.tracer
        if tracer.enabled:
            tracer.record_event(
                "df_signal", name, self.trace_actor,
                event=name, iteration=iteration, rank=self.rank)

    def df_finalize(self):
        """Process: release this client (server stops after the last one)."""
        self._check_live()
        self._finalized = True
        yield from self._notify(Shutdown(source=self.rank))

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _reserve(self, size: int):
        """Process: allocate ``size`` bytes, blocking while the buffer is
        full; charges the allocator's serialisation cost."""
        sim = self.server.machine.sim
        mutex_based = self.server.segment.allocator.name == "mutex"
        stall_started = None
        while True:
            if mutex_based:
                request = self.server.alloc_mutex.request()
                yield request
                yield sim.timeout(MUTEX_LATENCY)
                block = self.server.segment.allocate(size,
                                                     client=self.local_id)
                self.server.alloc_mutex.release(request)
            else:
                block = self.server.segment.allocate(size,
                                                     client=self.local_id)
            if block is not None:
                if stall_started is not None:
                    self.stall_time += sim.now - stall_started
                    tracer = sim.tracer
                    if tracer.enabled:
                        tracer.record_span(
                            "shm_stall", "buffer_full", self.trace_actor,
                            stall_started, sim.now, nbytes=int(size),
                            rank=self.rank)
                return block
            if stall_started is None:
                stall_started = sim.now
            yield self.server.wait_for_free()

    def _notify(self, message):
        yield self.server.machine.sim.timeout(QUEUE_LATENCY)
        yield self.server.queue.put(message)

    def _check_live(self) -> None:
        if self._finalized:
            raise ReproError(
                f"client rank {self.rank} used after df_finalize")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DamarisClient rank={self.rank} node={self.core.node.index}>"
