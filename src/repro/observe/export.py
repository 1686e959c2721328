"""Trace exporters: JSONL dump/load and Chrome ``trace_event`` format.

The JSONL form is the archival schema (one record per line, first line a
meta header) and round-trips back into a :class:`~repro.observe.tracer.
Tracer`; the Chrome form loads directly into ``chrome://tracing`` /
Perfetto, with the actor's ``pid/tid`` split mapped onto process and
thread rows so one node's server and clients share a group.
"""

from __future__ import annotations

import json
from typing import Dict, List, TextIO, Union

from repro.errors import ReproError
from repro.observe.tracer import Span, TraceEvent, Tracer

__all__ = [
    "SCHEMA_VERSION",
    "to_jsonl",
    "dump_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "dump_chrome_trace",
]

#: Bumped whenever a record's field set changes.
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------- #
# JSONL
# ---------------------------------------------------------------------- #
def to_jsonl(tracer: Tracer) -> str:
    """Serialise a tracer to JSON-lines text (meta line + one per record)."""
    lines = [json.dumps({"type": "meta", "version": SCHEMA_VERSION,
                         "clock": tracer.clock_name})]
    records: List[Union[Span, TraceEvent]] = list(tracer.spans)
    records += list(tracer.events)
    records.sort(key=_record_time)
    for record in records:
        if isinstance(record, Span):
            lines.append(json.dumps(
                {"type": "span", "cat": record.category,
                 "name": record.name, "actor": record.actor,
                 "start": record.start, "end": record.end,
                 "attrs": record.attrs}, sort_keys=True))
        else:
            lines.append(json.dumps(
                {"type": "event", "cat": record.category,
                 "name": record.name, "actor": record.actor,
                 "time": record.time, "attrs": record.attrs},
                sort_keys=True))
    return "\n".join(lines) + "\n"


def dump_jsonl(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_jsonl(tracer))


#: Each record type's time fields (beside its string fields ``cat``,
#: ``name`` and ``actor``).
_TIME_FIELDS = {"span": ("start", "end"), "event": ("time",)}


def _check_record(record: object, lineno: int) -> Dict[str, object]:
    """``record``'s attrs once its fields have the JSONL schema's types;
    :class:`ReproError` naming ``lineno`` otherwise."""
    def bad(why: str) -> ReproError:
        return ReproError(f"trace line {lineno}: {why}")

    if not isinstance(record, dict):
        raise bad(f"a record is a JSON object, got {type(record).__name__}")
    kind = record.get("type")
    if kind not in ("span", "event"):
        raise bad(f"unknown record type {kind!r}")
    times = _TIME_FIELDS[kind]
    for field in ("cat", "name", "actor"):
        if not isinstance(record.get(field), str):
            raise bad(f"{kind} field {field!r} must be a string, "
                      f"got {record.get(field)!r}")
    for field in times:
        value = record.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise bad(f"{kind} field {field!r} must be a number, "
                      f"got {value!r}")
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        raise bad(f"{kind} 'attrs' must be an object, got {attrs!r}")
    # Attrs travel as keywords of the recording call: none may reuse
    # one of its parameter names.
    clash = sorted({"self", "category", "name", "actor", *times}
                   .intersection(attrs))
    if clash:
        raise bad(f"{kind} attrs may not be named {clash}")
    return attrs


def load_jsonl(source: Union[str, TextIO]) -> Tracer:
    """Parse JSONL text (or a file object) back into a Tracer.

    The returned tracer's clock is frozen (it only *holds* records); its
    ``clock_name`` reflects the originating clock. A line that is not
    JSON, or not a record of the schema, raises :class:`ReproError`
    naming its line number.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    tracer = Tracer(clock=lambda: 0.0)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"trace line {lineno} is not JSON: {exc}") \
                from exc
        if isinstance(record, dict) and record.get("type") == "meta":
            version = record.get("version")
            if version != SCHEMA_VERSION:
                raise ReproError(
                    f"trace schema version {version!r} unsupported "
                    f"(expected {SCHEMA_VERSION})")
            tracer.clock_name = record.get("clock", "wall")
            continue
        attrs = _check_record(record, lineno)
        if record["type"] == "span":
            tracer.record_span(record["cat"], record["name"],
                               record["actor"], record["start"],
                               record["end"], **attrs)
        else:
            tracer.record_event(record["cat"], record["name"],
                                record["actor"], time=record["time"],
                                **attrs)
    return tracer


def _record_time(record: Union[Span, TraceEvent]) -> float:
    return record.start if isinstance(record, Span) else record.time


# ---------------------------------------------------------------------- #
# Chrome trace_event
# ---------------------------------------------------------------------- #
def _split_actor(actor: str):
    pid, _, tid = actor.partition("/")
    return pid or "trace", tid or pid or "trace"


def to_chrome_trace(tracer: Tracer) -> Dict[str, object]:
    """Build a ``chrome://tracing``-loadable object (JSON Object Format).

    Spans become complete (``"ph": "X"``) events, instants become
    thread-scoped instant (``"ph": "i"``) events and ``queue_depth``
    samples become counter (``"ph": "C"``) events. Timestamps are
    microseconds, as the format requires.
    """
    events: List[Dict[str, object]] = []
    for span in tracer.spans:
        pid, tid = _split_actor(span.actor)
        events.append({
            "ph": "X", "cat": span.category, "name": span.name,
            "pid": pid, "tid": tid,
            "ts": span.start * 1e6, "dur": span.duration * 1e6,
            "args": span.attrs,
        })
    for event in tracer.events:
        pid, tid = _split_actor(event.actor)
        if event.category == "queue_depth":
            events.append({
                "ph": "C", "cat": event.category, "name": event.name,
                "pid": pid, "tid": tid, "ts": event.time * 1e6,
                "args": {"depth": event.attrs.get("depth", 0)},
            })
        else:
            events.append({
                "ph": "i", "cat": event.category, "name": event.name,
                "pid": pid, "tid": tid, "ts": event.time * 1e6,
                "s": "t", "args": event.attrs,
            })
    events.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": tracer.clock_name,
                      "schema_version": SCHEMA_VERSION},
    }


def dump_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(tracer), fh)
