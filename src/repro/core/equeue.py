"""Messages travelling on the Damaris event queue.

Clients push two kinds of messages (Section III-B, "Event queue"):
*write-notifications* telling the server a variable landed in shared
memory, and *user-defined events* that trigger configured actions. The
server's event-processing engine pulls them in order.

The message classes are shared by the DES back-end (where the queue is a
:class:`repro.des.resources.Store`) and the threaded runtime (a deque +
condition variable). They are immutable named tuples
(:class:`typing.NamedTuple`): every ``df_write`` builds one, and a named
tuple costs about half what a frozen dataclass does to construct (whose
``__init__`` sets each field through ``object.__setattr__``). Like any
tuple, a message compares equal to a plain tuple of its values; the
servers dispatch on its class with ``isinstance``, never by comparing it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core.shm import Block

__all__ = ["WriteNotification", "UserEvent", "EndOfIteration", "Shutdown"]


class WriteNotification(NamedTuple):
    """`df_write` completed: ``variable`` for ``iteration`` from ``source``
    is in shared memory at ``block``. ``client`` is the node-local client
    index (the allocator's region key for the lock-free algorithm).
    ``shape`` overrides the layout's shape for dynamically-sized
    variables (particle arrays — Section III-D's "arrays that don't have
    a static shape")."""

    variable: str
    iteration: int
    source: int
    block: Block
    client: int = 0
    shape: Optional[tuple] = None


class UserEvent(NamedTuple):
    """`df_signal`: fire the action configured for ``name``."""

    name: str
    iteration: int
    source: int


class EndOfIteration(NamedTuple):
    """Internal marker the server synthesises when every client of the
    node has signalled the end of ``iteration``."""

    iteration: int


class Shutdown(NamedTuple):
    """`df_finalize` from the last client: drain and stop the server."""

    source: int = -1
