"""The event queue's name, for tools that record the engine's modes.

:class:`repro.des.core.Simulator` keeps its pending events in one binary
heap (:mod:`heapq`) of ``(time, priority, seq, entry)`` tuples; there is
no other queue to select. :func:`resolve_scheduler` reports that queue
so provenance records that name the scheduler keep working.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["SCHED_HEAP", "resolve_scheduler"]

#: The binary-heap event queue, the simulator's only queue.
SCHED_HEAP = "heap"


def resolve_scheduler(scheduler: Optional[str] = None) -> str:
    """The simulator's event queue: always :data:`SCHED_HEAP`."""
    return SCHED_HEAP
