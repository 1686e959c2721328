"""Generator-coroutine processes and composite wait conditions.

A :class:`Process` wraps a generator. Each ``yield`` must produce an
:class:`~repro.des.core.Event`; the process suspends until the event is
processed, then resumes with the event's value (or the event's exception is
thrown into the generator). The process itself is an event that succeeds
with the generator's return value, so processes can wait on each other.

A process costs a queue entry to start and an event to finish. A child
its parent only waits on needs neither: ``value = yield from child``
runs it inside the parent's steps, at the same simulated times. Spawn a
process for what runs concurrently with its creator (rank programs,
servers, failover replays).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.des.core import _PROCESSED, PRIORITY_NORMAL, Event, Simulator
from repro.errors import ProcessKilled, SimulationError

__all__ = ["Process", "Interrupt", "AnyOf", "AllOf"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running simulation process built from a generator.

    >>> sim = Simulator()
    >>> def child(sim):
    ...     yield sim.timeout(1.0)
    ...     return "done"
    >>> def parent(sim):
    ...     value = yield sim.process(child(sim))
    ...     assert value == "done"
    >>> _ = sim.process(parent(sim))
    >>> sim.run()
    """

    __slots__ = ("_generator", "_waiting_on", "_alive")

    def __init__(self, sim: Simulator, generator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process() requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Event | None = None
        self._alive = True
        # The first step is a bare queue entry at (now, normal priority),
        # so processes start in creation order.
        sim._push(sim._now, PRIORITY_NORMAL, self._bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if not self._alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self._waiting_on is None:
            raise SimulationError("cannot interrupt a process that is running")
        target, self._waiting_on = self._waiting_on, None
        # Stop listening to the event we were waiting on; resume immediately
        # with the interrupt.
        try:
            target.callbacks.remove(self._resume)
        except ValueError:
            pass
        wakeup = Event(self.sim)
        wakeup.callbacks.append(
            lambda _evt: self._step(None, Interrupt(cause)))
        wakeup.succeed()

    def kill(self) -> None:
        """Terminate the process without running any more of its code."""
        if not self._alive:
            return
        if self._waiting_on is not None:
            try:
                self._waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None
        self._generator.close()
        self._alive = False
        if not self.triggered:
            self.fail(ProcessKilled("process killed"))
            self.defuse()

    # -- internal ----------------------------------------------------------
    def _bootstrap(self) -> None:
        self._step(None, None)

    def _resume(self, event: Event) -> None:
        if event is not self._waiting_on:
            # An earlier callback of this same event interrupted or
            # killed the process after the event had taken its callback
            # list, so removing this one came too late: the process no
            # longer waits on the event.
            return
        self._waiting_on = None
        exc = event._exception
        if exc is None:
            self._step(event._value, None)
        else:
            event._defused = True
            self._step(None, exc)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        """Advance the generator by one ``send(value)`` (or ``throw(exc)``)
        and wait on the event it yields. A dead process stays dead: one
        killed before its first step is skipped when its bootstrap pops."""
        if not self._alive:
            return
        try:
            if exc is None:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(exc)
        except StopIteration as stop:
            self._alive = False
            self.succeed(stop.value)
            return
        except ProcessKilled as killed:
            self._alive = False
            self.fail(killed)
            self.defuse()
            return
        except BaseException as error:
            self._alive = False
            self.fail(error)
            return
        if not isinstance(target, Event):
            self._alive = False
            self.fail(SimulationError(
                f"process yielded {target!r}, expected an Event"))
            return
        if target._state == _PROCESSED:
            # Already done: resume on the next step to preserve FIFO order.
            wakeup = Event(self.sim)
            self._waiting_on = wakeup
            wakeup.callbacks.append(self._resume)
            if target._exception is not None:
                wakeup.fail(target._exception)
            else:
                wakeup.succeed(target._value)
            return
        self._waiting_on = target
        target.callbacks.append(self._resume)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("_events", "_done")

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events: List[Event] = list(events)
        self._done = 0
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if event.exception is not None:
                event.defuse()
            return
        if event.exception is not None:
            event.defuse()
            self.fail(event.exception)
            return
        self._done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            event: event._value for event in self._events if event.processed
        }


class AnyOf(_Condition):
    """Succeeds when any child event has succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= 1


class AllOf(_Condition):
    """Succeeds when all child events have succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= len(self._events)
