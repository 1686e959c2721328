"""The service's job model: states, progress, events, snapshots.

A *job* is one submitted sweep — an ordered list of sweep specs from one
tenant — moving through ``queued → running → done`` (or ``failed`` /
``cancelled``). Everything a client can observe lives here as plain
JSON-safe data:

- the **status snapshot** (:meth:`Job.snapshot`): state plus monotonic
  progress counters (``done``/``total``/``cache_hits``/``computed``);
- the **event log** (:meth:`Job.add_event`): an append-only sequence of
  ``{seq, time, kind, ...}`` records (``queued``, ``started``, one
  ``progress`` per finished spec, ``done``/``failed``/``cancelled``)
  that the events endpoint serves incrementally by ``seq`` — the wire
  form of the executor's single-path progress accounting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.service.errors import InvalidSpecError

__all__ = ["JOB_STATES", "TERMINAL_STATES", "Job", "validate_job_payload"]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

_PAYLOAD_KEYS = frozenset({"specs", "priority", "label", "tenant"})


def validate_job_payload(payload: Any) -> Dict[str, Any]:
    """Check a submission body; return it. Raises
    :class:`~repro.service.errors.InvalidSpecError` with the first
    offending field (spec-level validation included, so a bad spec is
    rejected at admission, not discovered mid-job in a pool worker)."""
    from repro.experiments.specs import SpecError, validate_spec

    if not isinstance(payload, dict):
        raise InvalidSpecError(
            f"a job submission is a JSON object, got "
            f"{type(payload).__name__}")
    unknown = set(payload) - _PAYLOAD_KEYS
    if unknown:
        raise InvalidSpecError(
            f"unknown job field(s): {sorted(unknown)} "
            f"(known: {sorted(_PAYLOAD_KEYS)})")
    specs = payload.get("specs")
    if not isinstance(specs, list) or not specs:
        raise InvalidSpecError("job needs a non-empty 'specs' list")
    for i, spec in enumerate(specs):
        try:
            validate_spec(spec)
        except SpecError as exc:
            raise InvalidSpecError(f"specs[{i}]: {exc}",
                                   spec_index=i) from None
        except RecursionError:  # rendering a deeply nested bad value
            raise InvalidSpecError(f"specs[{i}]: a value is nested too "
                                   f"deeply", spec_index=i) from None
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool) \
            or not 0 <= priority <= 9:
        raise InvalidSpecError(
            f"'priority' must be an integer in [0, 9], got {priority!r}")
    for key in ("label", "tenant"):
        value = payload.get(key, "")
        if not isinstance(value, str):
            raise InvalidSpecError(
                f"{key!r} must be a string, got {value!r}")
    return payload


_job_ids = itertools.count(1)


@dataclass
class Job:
    """One submitted sweep and everything observable about it."""

    tenant: str
    specs: List[Dict[str, Any]]
    priority: int = 0
    label: str = ""
    clock: Callable[[], float] = None  # type: ignore[assignment]
    job_id: str = ""
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Per-spec results in spec order (summaries; None until computed).
    results: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    #: Per-spec provenance: "cache" | "pool" | None (not finished).
    sources: List[Optional[str]] = field(default_factory=list)
    #: Merged solver/fault counter totals from computed specs.
    counters: Dict[str, float] = field(default_factory=dict)
    error: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.job_id:
            self.job_id = f"job-{next(_job_ids):06d}"
        if self.clock is None:
            import time
            self.clock = time.monotonic
        self.submitted_at = self.clock()
        self.results = [None] * len(self.specs)
        self.sources = [None] * len(self.specs)
        self.add_event("queued", tenant=self.tenant,
                       total=len(self.specs), priority=self.priority)

    # -- progress ------------------------------------------------------- #
    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def done_count(self) -> int:
        return sum(1 for source in self.sources if source is not None)

    @property
    def cache_hits(self) -> int:
        return sum(1 for source in self.sources if source == "cache")

    @property
    def computed(self) -> int:
        return sum(1 for source in self.sources if source == "pool")

    def record_result(self, index: int, summary: Dict[str, Any],
                      source: str) -> None:
        """One spec finished; emits the job's ``progress`` event (the
        single accounting path — hits and pool results both land here)."""
        self.results[index] = summary
        self.sources[index] = source
        self.add_event("progress", index=index, source=source,
                       done=self.done_count, total=self.total,
                       cache_hits=self.cache_hits, computed=self.computed)

    def merge_counters(self, counters: Dict[str, float]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0.0) \
                + float(value)

    # -- events --------------------------------------------------------- #
    def add_event(self, kind: str, **attrs: Any) -> Dict[str, Any]:
        event = {"seq": len(self.events), "time": self.clock(),
                 "kind": kind, **attrs}
        self.events.append(event)
        return event

    def events_since(self, after: int) -> List[Dict[str, Any]]:
        """Events with ``seq > after`` (the long-poll contract)."""
        if after < -1:
            after = -1
        return self.events[after + 1:]

    # -- state transitions ---------------------------------------------- #
    def mark_running(self) -> None:
        self.state = "running"
        self.started_at = self.clock()
        self.add_event("started")

    def finish(self, state: str,
               error: Optional[Dict[str, Any]] = None) -> None:
        assert state in TERMINAL_STATES, state
        self.state = state
        self.finished_at = self.clock()
        self.error = error
        self.add_event(state, **({"error": error} if error else {}))

    # -- wire format ---------------------------------------------------- #
    def snapshot(self) -> Dict[str, Any]:
        """The status document ``GET /v1/jobs/<id>`` returns."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "label": self.label,
            "state": self.state,
            "priority": self.priority,
            "progress": {
                "done": self.done_count,
                "total": self.total,
                "cache_hits": self.cache_hits,
                "computed": self.computed,
            },
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events_seq": len(self.events) - 1,
            "error": self.error,
        }
