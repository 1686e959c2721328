"""repro.observe — structured tracing shared by the DES and the threaded
runtime; an opt-in path (``REPRO_TRACE`` / ``--trace``), while run
counters come from the engine itself
(:attr:`repro.des.bandwidth.FlowNetwork.solver_stats`).

- :mod:`repro.observe.tracer` — typed spans/events against a sim-time or
  wall-time clock, with a zero-overhead disabled mode;
- :mod:`repro.observe.export` — JSONL archive format (round-trips) and
  Chrome ``trace_event`` export for ``chrome://tracing``;
- :mod:`repro.observe.aggregate` — per-actor/per-target/solver/backend
  tables and the persist-vs-write_phase overlap check.
"""

from repro.observe.tracer import (
    EVENT_CATEGORIES,
    NULL_TRACER,
    NullTracer,
    SPAN_CATEGORIES,
    Span,
    TraceEvent,
    Tracer,
)
from repro.observe.export import (
    SCHEMA_VERSION,
    dump_chrome_trace,
    dump_jsonl,
    load_jsonl,
    to_chrome_trace,
    to_jsonl,
)
from repro.observe.aggregate import (
    aggregate_spans,
    merge_intervals,
    overlap_seconds,
    per_actor_table,
    per_category_table,
    per_target_table,
    render_summary,
    solver_table,
)

__all__ = [
    "SPAN_CATEGORIES",
    "EVENT_CATEGORIES",
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SCHEMA_VERSION",
    "to_jsonl",
    "dump_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "dump_chrome_trace",
    "aggregate_spans",
    "merge_intervals",
    "overlap_seconds",
    "per_actor_table",
    "per_category_table",
    "per_target_table",
    "render_summary",
    "solver_table",
]
