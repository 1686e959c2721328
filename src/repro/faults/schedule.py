"""Declarative fault schedules.

A :class:`FaultSchedule` is a validated list of typed :class:`FaultSpec`
entries — *when* something breaks, *what* it hits and *how hard* — that
the :class:`~repro.faults.injector.FaultInjector` compiles into simulator
events. Schedules are plain data: they round-trip through dicts and JSON
(the ``--faults <schedule.json>`` knob of the figure drivers), embed into
sweep specs, and therefore fold into the content-addressed cache keys
automatically.

Fault classes
-------------

``node_crash``
    The listed nodes lose their I/O path at ``time`` (NIC capacities cut
    to ~0) and recover ``duration`` seconds later. A dedicated-core
    Damaris server on a crashed node loses every buffered-but-unpersisted
    iteration (data loss); the failover strategy variant instead replays
    them from the surviving shm buffer after restart. ``compute_factor``
    optionally slows the node's compute blocks during the outage
    (default: compute continues — the fault models the I/O path).
``correlated_crash``
    ``node_crash`` over several nodes with an optional ``stagger``
    between successive crashes (cascading failure).
``straggler``
    The listed nodes' cores run ``factor``× slower for the window
    (applied to compute blocks that *start* inside the window).
``nic_degrade``
    The listed nodes' NIC tx/rx capacities scale by ``factor`` ∈ (0, 1]
    for the window.
``ost_brownout``
    The listed storage targets (all when empty) serve at ``factor`` of
    their modelled bandwidth for the window.
``mds_brownout``
    The listed metadata servers (all when empty) serve every operation
    ``factor``× slower for the window.
``lock_storm``
    Every lock acquisition during the window behaves as if revoked from
    another holder: ``extra_revokes`` forced revocation round-trips per
    acquisition (models a revocation storm from a competing job).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultSchedule"]


class FaultScheduleError(ReproError):
    """An invalid fault specification."""


#: Recognised fault classes.
FAULT_KINDS = (
    "node_crash",
    "correlated_crash",
    "straggler",
    "nic_degrade",
    "ost_brownout",
    "mds_brownout",
    "lock_storm",
)

#: Kinds whose ``factor`` is a capacity fraction in (0, 1].
_FRACTION_KINDS = frozenset({"nic_degrade", "ost_brownout"})
#: Kinds whose ``factor`` is a slowdown multiplier >= 1.
_SLOWDOWN_KINDS = frozenset({"straggler", "mds_brownout"})
#: Kinds that target node indices.
_NODE_KINDS = frozenset({"node_crash", "correlated_crash", "straggler",
                         "nic_degrade"})
#: Float fields. JSON readers accept ``NaN`` and ``Infinity``, which
#: pass every range check; an infinite window would never recover.
_FLOAT_FIELDS = ("time", "duration", "factor", "stagger", "compute_factor")


def _indices(raw: Any) -> Tuple[int, ...]:
    if not isinstance(raw, (list, tuple)):
        raise TypeError(raw)
    return tuple(int(n) for n in raw)


#: ``FaultSpec.from_dict``'s conversion of each plain-data field.
_CONVERT = {"kind": str, "nodes": _indices, "targets": _indices,
            "extra_revokes": int, "label": str,
            **dict.fromkeys(_FLOAT_FIELDS, float)}


@dataclass(frozen=True)
class FaultSpec:
    """One typed fault: a window plus the entities and severity it hits."""

    kind: str
    #: Injection time (simulated seconds).
    time: float
    #: Window length; recovery fires at ``time + duration``.
    duration: float
    #: Node indices hit (node-targeted kinds). Empty = all nodes.
    nodes: Tuple[int, ...] = ()
    #: Storage-target / metadata-server indices hit. Empty = all.
    targets: Tuple[int, ...] = ()
    #: Severity: capacity fraction in (0,1] for ``nic_degrade`` /
    #: ``ost_brownout``; slowdown multiplier >= 1 for ``straggler`` /
    #: ``mds_brownout``. Unused by crashes and lock storms.
    factor: float = 1.0
    #: ``correlated_crash``: seconds between successive node crashes.
    stagger: float = 0.0
    #: Crashes: compute slowdown of the node during the outage
    #: (1.0 = compute unaffected; the fault models the I/O path).
    compute_factor: float = 1.0
    #: ``lock_storm``: forced revocation round-trips per acquisition.
    extra_revokes: int = 1
    #: Free-form label carried into trace events and fault records.
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultScheduleError(
                f"unknown fault kind {self.kind!r}; known kinds: "
                f"{sorted(FAULT_KINDS)}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise FaultScheduleError(
                    f"{self.kind}: {name} must be finite, got {value}")
        if self.time < 0:
            raise FaultScheduleError(
                f"{self.kind}: injection time must be >= 0, got {self.time}")
        if self.duration <= 0:
            raise FaultScheduleError(
                f"{self.kind}: duration must be > 0, got {self.duration}")
        if self.kind in _FRACTION_KINDS and not 0 < self.factor <= 1:
            raise FaultScheduleError(
                f"{self.kind}: factor must be a capacity fraction in "
                f"(0, 1], got {self.factor}")
        if self.kind in _SLOWDOWN_KINDS and self.factor < 1:
            raise FaultScheduleError(
                f"{self.kind}: factor must be a slowdown >= 1, "
                f"got {self.factor}")
        if self.stagger < 0:
            raise FaultScheduleError(
                f"{self.kind}: stagger must be >= 0, got {self.stagger}")
        if self.compute_factor < 1:
            raise FaultScheduleError(
                f"{self.kind}: compute_factor must be >= 1, "
                f"got {self.compute_factor}")
        if self.extra_revokes < 1:
            raise FaultScheduleError(
                f"{self.kind}: extra_revokes must be >= 1, "
                f"got {self.extra_revokes}")
        if self.kind in ("node_crash", "correlated_crash") \
                and not self.nodes:
            raise FaultScheduleError(
                f"{self.kind}: needs an explicit node list")

    @property
    def end(self) -> float:
        """Time of the last recovery this fault schedules."""
        extra = self.stagger * max(0, len(self.nodes) - 1) \
            if self.kind == "correlated_crash" else 0.0
        return self.time + self.duration + extra

    @property
    def display(self) -> str:
        return self.label or self.kind

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-ready; defaults omitted)."""
        out: Dict[str, Any] = {"kind": self.kind, "time": self.time,
                               "duration": self.duration}
        if self.nodes:
            out["nodes"] = list(self.nodes)
        if self.targets:
            out["targets"] = list(self.targets)
        if self.factor != 1.0:
            out["factor"] = self.factor
        if self.stagger:
            out["stagger"] = self.stagger
        if self.compute_factor != 1.0:
            out["compute_factor"] = self.compute_factor
        if self.extra_revokes != 1:
            out["extra_revokes"] = self.extra_revokes
        if self.label:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultSpec":
        if not isinstance(raw, dict):
            raise FaultScheduleError(
                f"a fault spec is a dict, got {type(raw).__name__}")
        unknown = set(raw) - set(_CONVERT)
        if unknown:
            raise FaultScheduleError(
                f"unknown fault spec field(s): {sorted(unknown)} "
                f"(known: {sorted(_CONVERT)})")
        if "kind" not in raw or "time" not in raw or "duration" not in raw:
            raise FaultScheduleError(
                f"a fault spec needs 'kind', 'time' and 'duration'; "
                f"got {sorted(raw)}")
        fields: Dict[str, Any] = {}
        for name, value in raw.items():
            try:
                fields[name] = _CONVERT[name](value)
            except (TypeError, ValueError, OverflowError):
                raise FaultScheduleError(
                    f"fault spec field {name!r}: cannot convert "
                    f"{value!r}") from None
        return cls(**fields)


@dataclass(frozen=True)
class FaultSchedule:
    """A named, ordered list of fault specs."""

    faults: Tuple[FaultSpec, ...] = ()
    name: str = "faults"

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Distinct fault classes present, in first-appearance order."""
        seen: List[str] = []
        for fault in self.faults:
            if fault.kind not in seen:
                seen.append(fault.kind)
        return tuple(seen)

    def of_kind(self, kind: str) -> "FaultSchedule":
        """Sub-schedule containing only one fault class."""
        if kind not in FAULT_KINDS:
            raise FaultScheduleError(f"unknown fault kind {kind!r}")
        return FaultSchedule(
            faults=tuple(f for f in self.faults if f.kind == kind),
            name=f"{self.name}/{kind}")

    @property
    def end(self) -> float:
        """Time of the last scheduled recovery (0.0 when empty)."""
        return max((fault.end for fault in self.faults), default=0.0)

    # -- plain-data round-trips ---------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultSchedule":
        if not isinstance(raw, dict) or "faults" not in raw:
            raise FaultScheduleError(
                "a fault schedule is a dict with a 'faults' list "
                "(and an optional 'name')")
        faults = raw["faults"]
        if not isinstance(faults, (list, tuple)):
            raise FaultScheduleError("'faults' must be a list of specs")
        return cls(
            faults=tuple(FaultSpec.from_dict(item) for item in faults),
            name=str(raw.get("name", "faults")))

    @classmethod
    def from_json(cls, path: str) -> "FaultSchedule":
        """Load a schedule from a JSON file (the ``--faults`` format)."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FaultScheduleError(
                    f"{path}: not valid JSON ({exc})") from None
        schedule = cls.from_dict(raw)
        if schedule.name == "faults" and "name" not in raw:
            import os
            base = os.path.splitext(os.path.basename(path))[0]
            schedule = cls(faults=schedule.faults, name=base)
        return schedule

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
