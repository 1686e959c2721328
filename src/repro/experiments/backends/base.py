"""The executor backend interface.

A *backend* answers one question for
:func:`repro.experiments.executor.run_sweep`: given the cache-missed
tasks of a sweep, produce every task's result. The executor keeps
everything else — cache admission, write-back, progress accounting,
in-order reassembly — so backends only move work:

- :class:`~repro.experiments.backends.local.SerialBackend` runs tasks
  in-process;
- :class:`~repro.experiments.backends.local.ProcessBackend` fans them
  over a ``ProcessPoolExecutor`` on this machine;
- :class:`~repro.experiments.backends.remote.RemoteBackend` dials
  TCP workers (:mod:`repro.tools.sweepworkerctl`) on other machines.

The contract of :meth:`Backend.run_tasks`:

- input is a sequence of ``(index, task)`` pairs where ``task`` is a
  :class:`~repro.experiments.executor.SweepTask` (or anything with a
  picklable ``fn``/``args``/``kwargs`` and a ``run()`` method);
- it yields one :class:`TaskOutcome` per input pair, **in completion
  order** — never two outcomes for one index, never a missing index;
- a task that raises propagates the failure to the caller (tasks are
  deterministic by the sweep contract, so retrying a task *error* is
  pointless — only losing a *worker* warrants a retry, and that is the
  remote backend's job);
- ``counters()`` afterwards reports what the dispatch did (requeues,
  speculative duplicates, rejected workers, …) for traces and metrics.

Because the executor reassembles results by index, any backend that
honours this contract is automatically bit-identical to every other:
serial ≡ process ≡ remote is a structural property, not a per-backend
proof obligation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["Backend", "BackendError", "TaskOutcome"]


class BackendError(ReproError):
    """A sweep backend could not run the tasks it was given."""


@dataclass(frozen=True)
class TaskOutcome:
    """One finished task, as reported by a backend.

    ``index`` is the task's position in the sequence passed to
    :meth:`Backend.run_tasks`; ``worker`` names the execution site
    (``serial/<pid>``, ``pool/<pid>``, a remote worker's tag) and
    ``duration`` is the task's wall time *on that worker* — the
    straggler detector and ``tracereport --by backend`` both feed on it.
    """

    index: int
    value: Any
    worker: str = ""
    duration: float = 0.0


@dataclass
class BackendCounters:
    """Dispatch accounting shared by every backend.

    ``requeued``/``speculative``/``discarded``/``rejected``/``crashed``
    stay zero for local backends; the remote coordinator fills them in.
    """

    dispatched: int = 0
    completed: int = 0
    requeued: int = 0
    speculative: int = 0
    discarded: int = 0
    rejected: int = 0
    crashed: int = 0
    workers: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        return {
            "dispatched": float(self.dispatched),
            "completed": float(self.completed),
            "requeued": float(self.requeued),
            "speculative": float(self.speculative),
            "discarded": float(self.discarded),
            "rejected": float(self.rejected),
            "crashed": float(self.crashed),
            "workers": float(len(self.workers)),
        }


class Backend:
    """Base class: the executor talks to every backend through this."""

    #: Registry name; also the ``SweepProgress.source`` tag (mapped by
    #: the executor: ``serial``/``process`` keep their historical
    #: ``"serial"``/``"pool"`` spellings).
    name = "?"

    def __init__(self) -> None:
        self.counters_ = BackendCounters()

    def run_tasks(self, tasks: Sequence[Tuple[int, Any]]
                  ) -> Iterator[TaskOutcome]:
        """Yield one :class:`TaskOutcome` per task, in completion order."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Flat dispatch counters for traces/metrics (JSON-safe)."""
        return self.counters_.as_dict()

    def close(self) -> None:
        """Release held resources (pools, sockets). Idempotent."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
