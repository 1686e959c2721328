"""Structured tracing: typed spans and instant events on one timeline.

The paper's claims are *temporal* — jitter hidden from compute cores,
persistence overlapped with the next compute block — so end-of-run
counters (``FlowNetwork.solver_stats``, the harness's per-phase
measurements) cannot validate them. A :class:`Tracer` records *when*
things happened: typed spans (an interval with a category, an actor and
attributes) and instant events, against either the simulated clock of a
DES run or the wall clock of the real threaded runtime, behind the same
interface.

Design constraints:

- **opt-out-able**: every instrumentation site guards on
  ``tracer.enabled``; the shared :data:`NULL_TRACER` keeps the disabled
  hot path to one attribute load and one branch.
- **thread-safe**: the threaded runtime records from client threads and
  server threads concurrently; appends happen under a lock.
- **typed**: categories come from :data:`SPAN_CATEGORIES` /
  :data:`EVENT_CATEGORIES` so exporters and reports can rely on them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError

__all__ = [
    "SPAN_CATEGORIES",
    "EVENT_CATEGORIES",
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]

#: Interval categories (things with a duration).
SPAN_CATEGORIES = frozenset({
    "write_phase",   # one rank's barrier-delimited output phase
    "df_write",      # client-side write call (shm copy + notification)
    "df_signal",     # client-side signal call
    "persist",       # server-side write of one iteration to storage
    "compress",      # server-side compression of one iteration
    "stripe_flush",  # serialized flush of a contested boundary stripe
    "metadata_op",   # one metadata-server operation (create/open/...)
    "net_transfer",  # one data segment moving to a storage target
    "fs_write",      # one file-system write request (all its segments)
    "shm_stall",     # client blocked on a full shared buffer
    "fault",         # one injected fault's outage window
})

#: Instant categories (things that happen at a point in time).
EVENT_CATEGORIES = frozenset({
    "df_signal",     # signal enqueue (runtime side, effectively instant)
    "lock_revoke",   # an extent lock taken from its previous holder
    "queue_depth",   # event-queue depth sample
    "solver",        # bandwidth-solver counters after one recomputation
    "error",         # a recoverable anomaly (e.g. server poll timeout)
    "fault",         # fault injection/recovery instants (repro.faults)
    "backend",       # sweep-backend dispatch counters for one run_sweep
})


@dataclass
class Span:
    """One interval on the trace timeline."""

    category: str
    name: str
    #: Who did it — ``"pid/tid"`` (e.g. ``node0/rank3``); the part before
    #: the first slash becomes the Chrome trace process row.
    actor: str
    start: float
    end: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TraceEvent:
    """One instant on the trace timeline."""

    category: str
    name: str
    actor: str
    time: float
    attrs: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Collects spans and events against one clock.

    ``clock`` is a zero-argument callable returning seconds; pass
    ``lambda: sim.now`` for simulated time (see
    :meth:`repro.cluster.machine.Machine.attach_tracer`) or leave the
    default wall clock (monotonic, zeroed at tracer creation).
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 clock_name: str = "wall") -> None:
        if clock is None:
            t0 = time.perf_counter()
            clock = lambda: time.perf_counter() - t0  # noqa: E731
        self.clock = clock
        self.clock_name = clock_name
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def now(self) -> float:
        return self.clock()

    def record_span(self, category: str, name: str, actor: str,
                    start: float, end: float, **attrs) -> Span:
        if category not in SPAN_CATEGORIES:
            raise ReproError(
                f"unknown span category {category!r}; known categories: "
                f"{sorted(SPAN_CATEGORIES)}")
        span = Span(category, name, actor, start, end, attrs)
        with self._lock:
            self.spans.append(span)
        return span

    def record_event(self, category: str, name: str, actor: str,
                     time: Optional[float] = None, **attrs) -> TraceEvent:
        if category not in EVENT_CATEGORIES:
            raise ReproError(
                f"unknown event category {category!r}; known categories: "
                f"{sorted(EVENT_CATEGORIES)}")
        event = TraceEvent(category, name, actor,
                           self.clock() if time is None else time, attrs)
        with self._lock:
            self.events.append(event)
        return event

    def span(self, category: str, name: str, actor: str, **attrs):
        """Context manager recording one span around a ``with`` block."""
        return _SpanContext(self, category, name, actor, attrs)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def spans_in(self, category: str) -> List[Span]:
        with self._lock:
            return [s for s in self.spans if s.category == category]

    def events_in(self, category: str) -> List[TraceEvent]:
        with self._lock:
            return [e for e in self.events if e.category == category]

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self.events = []

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans) + len(self.events)


class _SpanContext:
    """The ``with tracer.span(...)`` helper."""

    __slots__ = ("tracer", "category", "name", "actor", "attrs", "start")

    def __init__(self, tracer: Tracer, category: str, name: str,
                 actor: str, attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.category = category
        self.name = name
        self.actor = actor
        self.attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self.start = self.tracer.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer.record_span(self.category, self.name, self.actor,
                                self.start, self.tracer.now(), **self.attrs)


class NullTracer(Tracer):
    """The disabled tracer: every record call is a no-op.

    Instrumentation sites still guard on ``tracer.enabled`` so the
    disabled path never builds attribute dicts; the methods exist so an
    unguarded call is merely wasted, not wrong.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0, clock_name="null")

    def record_span(self, category, name, actor, start, end, **attrs):
        return None

    def record_event(self, category, name, actor, time=None, **attrs):
        return None


#: Shared singleton used as the default everywhere instrumentation hooks
#: exist; replaced by a real :class:`Tracer` when tracing is requested.
NULL_TRACER = NullTracer()
