"""Event loop, simulated clock and primitive events.

The kernel is deliberately small: a queue of ``(time, priority, seq)``
keys mapped to :class:`Event` objects (or bare callables: the
slim-callback API, and each process's first step). Everything else
(processes, resources, flows) is built on top of events and callbacks.

Ordering contract: entries pop in ``(time, priority, seq)`` total order,
``seq`` being the push count, so same-time events run by priority and
then in submission order. The queue is two structures that keep that
order together:

- a FIFO *lane* (a :class:`~collections.deque`) for every entry pushed
  at the current instant with :data:`PRIORITY_NORMAL` — about two thirds
  of all entries on the paper's figures, which then skip the heap's
  push and pop;
- a binary heap (:mod:`heapq`) for every other entry.

Because same-instant normal entries never reach the heap, a heap entry
keyed ``(now, p)`` was pushed before the clock reached ``now``, so its
``seq`` is below that of every lane entry. With the lane non-empty,
:meth:`Simulator.step` therefore pops the heap only when its top is
keyed ``(now, p <= PRIORITY_NORMAL)``, and otherwise the lane's head;
the clock never advances while the lane holds an entry.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.observe.tracer import NULL_TRACER

__all__ = ["Event", "Simulator", "Timeout", "PRIORITY_FAULT",
           "PRIORITY_URGENT", "PRIORITY_NORMAL", "PRIORITY_LATE"]

#: Scheduling priority for fault-injection state mutations
#: (:mod:`repro.faults`): a fault that strikes at time *t* must mutate
#: capacities/slowdowns before any same-time urgent or normal event
#: observes them.
PRIORITY_FAULT = -1
#: Scheduling priority for events that must run before same-time normal events
#: (used e.g. to batch flow arrivals before the bandwidth recomputation).
PRIORITY_URGENT = 0
#: Default scheduling priority.
PRIORITY_NORMAL = 1
#: Scheduling priority for events that must run after all same-time normal
#: events (e.g. bandwidth-share recomputation after a batch of flow arrivals).
PRIORITY_LATE = 2

# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled in the heap, not yet processed
_PROCESSED = 2


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event starts *pending*; :meth:`succeed` or :meth:`fail` *triggers* it,
    scheduling it on its simulator's queue; when the simulator pops it, its
    callbacks run and it becomes *processed*.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_state", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = _PENDING
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (succeeded or failed)."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's value. Raises if the event failed."""
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator does not crash."""
        self._defused = True

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0,
                priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        sim = self.sim
        # Push first: a rejected time (NaN) leaves the event pending.
        sim._push(sim._now + delay, priority, self)
        self._value = value
        self._state = _TRIGGERED
        return self

    def fail(self, exception: BaseException, delay: float = 0.0,
             priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event as failed with ``exception`` after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        sim = self.sim
        sim._push(sim._now + delay, priority, self)
        self._exception = exception
        self._state = _TRIGGERED
        return self

    def _process(self) -> None:
        """Run callbacks; called by the simulator event loop."""
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self._defused:
            raise self._exception

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered",
                 _PROCESSED: "processed"}[self._state]
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event's slots set here rather than through super().__init__:
        # a timeout is the most common event, and it starts triggered.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay
        sim._push(sim._now + delay, PRIORITY_NORMAL, self)


class Simulator:
    """The discrete-event simulator: clock plus event queue.

    >>> sim = Simulator()
    >>> done = []
    >>> def hello(sim):
    ...     yield sim.timeout(3.0)
    ...     done.append(sim.now)
    >>> _ = sim.process(hello(sim))
    >>> sim.run()
    >>> done
    [3.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: Pending ``(time, priority, seq, entry)`` tuples, a binary heap.
        self._queue: List[Tuple[float, int, int, Any]] = []
        #: The same tuples for entries pushed at ``(now, PRIORITY_NORMAL)``,
        #: in push order (see the module docstring).
        self._lane: Deque[Tuple[float, int, int, Any]] = deque()
        self._seq = 0
        self._running = False
        #: Instrumentation sink every model layer reaches through the
        #: simulator it already holds. The shared no-op tracer keeps the
        #: disabled hot path to one attribute load + one branch; swap in
        #: a real :class:`repro.observe.Tracer` (sim-time clock) to
        #: record — see :meth:`repro.cluster.machine.Machine.attach_tracer`.
        self.tracer = NULL_TRACER

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Number of outstanding queue entries (events + slim callbacks)."""
        return len(self._queue) + len(self._lane)

    @property
    def _heap(self) -> List[Tuple[float, int, int, Any]]:
        """Pending ``(time, priority, seq, entry)`` tuples in pop order.

        A sorted snapshot of the heap and the lane, kept for tests and
        debugging; the live structures are ``self._queue`` and
        ``self._lane``.
        """
        return sorted(self._queue + list(self._lane),
                      key=lambda item: item[:3])

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Start a new process from a generator. See :class:`Process`."""
        from repro.des.process import Process  # cycle: process builds on core

        return Process(self, generator)

    # -- scheduling ---------------------------------------------------------
    def _push(self, time: float, priority: int, entry: Any) -> None:
        """The single queue-insertion point: every scheduling path —
        events and slim callbacks, relative and absolute — funnels
        through here, so the sequence counter (the FIFO tie-break) and
        the one check on the time live in exactly one place. The
        comparison is written so that it also rejects NaN, which would
        otherwise sit in the heap out of order and turn the clock into
        NaN when popped; ``inf`` is a legal time. An entry at the
        current instant with normal priority goes to the lane, every
        other one to the heap."""
        now = self._now
        if not time >= now:
            raise SimulationError(
                f"cannot schedule at time={time}: event times must be "
                f"numbers >= now={now}")
        self._seq += 1
        if time == now and priority == PRIORITY_NORMAL:
            self._lane.append((time, priority, self._seq, entry))
        else:
            heappush(self._queue, (time, priority, self._seq, entry))

    def schedule_callback(self, delay: float, callback: Callable[[], None],
                          priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule a plain callable to run after ``delay`` seconds."""
        event = Event(self)
        event.callbacks.append(lambda _evt: callback())
        return event.succeed(delay=delay, priority=priority)

    def call_later(self, delay: float, callback: Callable[[], None],
                   priority: int = PRIORITY_NORMAL) -> None:
        """Schedule a bare callable after ``delay`` — no :class:`Event`.

        The callable itself is the queue entry: nothing is allocated
        beyond the entry tuple, where :meth:`schedule_callback` pays an
        ``Event`` + wrapper lambda + callback list per call. The price
        is that nothing can wait on it — fire-and-forget only, which is
        exactly what the kernel-internal timers
        (:meth:`repro.des.bandwidth.FlowNetwork._request_recompute`,
        the completion tick) need on the hottest path. Ordering is
        bit-identical to an event scheduled with the same (time,
        priority): both consume one sequence number.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._push(self._now + delay, priority, callback)

    def call_at(self, time: float, callback: Callable[[], None],
                priority: int = PRIORITY_NORMAL) -> None:
        """:meth:`call_later` with an *absolute* timestamp heap key.

        Like :meth:`schedule_callback_at`, the key is exactly ``time``
        (no ``now + delay`` round-trip), so re-arming a timer at a
        previously computed timestamp is free of floating-point drift.
        """
        self._push(time, priority, callback)

    def schedule_callback_at(self, time: float, callback: Callable[[], None],
                             priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule a plain callable at an *absolute* simulated time.

        Unlike :meth:`schedule_callback`, the heap key is exactly ``time``
        (no ``now + delay`` round-trip), so a caller can re-arm a timer at
        a previously computed timestamp without floating-point drift.
        """
        event = Event(self)
        event.callbacks.append(lambda _evt: callback())
        self._push(time, priority, event)
        event._state = _TRIGGERED
        return event

    # -- the loop ------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._lane:
            return self._now
        queue = self._queue
        return queue[0][0] if queue else math.inf

    def step(self) -> None:
        """Process exactly one queue entry (an event or a slim callback)."""
        queue = self._queue
        lane = self._lane
        if lane:
            # A heap entry at (now, priority <= normal) precedes every
            # lane entry; anything else on the heap follows them.
            if queue and queue[0][1] <= PRIORITY_NORMAL \
                    and queue[0][0] == self._now:
                entry = heappop(queue)[3]
            else:
                entry = lane.popleft()[3]
        elif queue:
            time, _prio, _seq, entry = heappop(queue)
            self._now = time
        else:
            raise SimulationError("step() on an empty event queue")
        if isinstance(entry, Event):
            entry._process()
        else:
            entry()  # slim callback from call_later()/call_at()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue is empty or simulated time reaches ``until``."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"run(until={until}) must be a number >= now={self._now}")
        self._running = True
        queue = self._queue
        lane = self._lane
        try:
            if until is None:
                while queue or lane:
                    self.step()
            else:
                # Lane entries sit at now <= until.
                while lane or (queue and queue[0][0] <= until):
                    self.step()
                # Advance the clock to the bound, but only for a finite
                # bound: run(until=inf) drains the queue and leaves the
                # clock at the last processed event; run(until=now) is a
                # no-op on the clock.
                if math.isfinite(until) and until > self._now:
                    self._now = until
        finally:
            self._running = False

    def run_until_complete(self, process: "Event") -> Any:
        """Run until ``process`` (or any event) completes; return its value.

        An event that is already processed returns its value (or raises
        its exception) at once: its callbacks have run and never run
        again, so waiting for them would step the queue until it ran
        dry, or forever behind a perpetual process.
        """
        if process.processed:
            return process.value
        finished = []
        process.callbacks.append(finished.append)
        queue = self._queue
        lane = self._lane
        while not finished:
            if not queue and not lane:
                raise SimulationError(
                    "event queue exhausted before the awaited event completed")
            self.step()
        return process.value
