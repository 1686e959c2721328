"""Bridge from recorded traces to monotonic metric counters.

:mod:`repro.observe` already surfaces the solver counters of every run
as trace events (see :func:`repro.observe.aggregate.solver_table`); this
module reduces them to flat ``{name: value}`` totals that a metrics
exporter — the ``/metrics`` endpoint of :mod:`repro.service` — can add
into Prometheus counters. The event attributes are *cumulative per
actor*, so the total over a run is the sum of each actor's **last**
event, not the sum of every event.
"""

from __future__ import annotations

from typing import Dict

from repro.observe.tracer import Tracer

__all__ = ["BACKEND_COUNTERS", "SOLVER_COUNTERS", "trace_counters"]

#: Solver-event attributes exported as counters (cumulative per actor).
SOLVER_COUNTERS = ("recomputes", "full_solves", "component_solves",
                   "fast_grants", "flows_solved", "kernel_solves")

#: Sweep-backend attributes exported as counters. Backend events are
#: per-sweep totals (one event per run_sweep), so they *sum* across
#: events rather than taking the last per actor.
BACKEND_COUNTERS = ("dispatched", "completed", "requeued", "speculative",
                    "discarded", "rejected", "crashed")


def _last_per_actor(tracer: Tracer, category: str) -> Dict[str, object]:
    last: Dict[str, object] = {}
    for event in tracer.events_in(category):
        last[event.actor] = event
    return last


def trace_counters(tracer: Tracer) -> Dict[str, float]:
    """Flat counter totals for one traced run.

    Returns ``solver_*`` totals (summed over flow networks), the
    per-kernel solve split ``solver_kernel_solves{python,compiled}``
    flattened as ``solver_kernel_solves_<kernel>``, ``backend_*`` totals,
    and ``fault_injections`` / ``fault_recoveries`` counts. All values
    are plain floats, picklable and JSON-safe, so a worker process can
    compute them next to the result and ship them back to the service
    parent for export.
    """
    totals: Dict[str, float] = {}
    for name in SOLVER_COUNTERS:
        totals[f"solver_{name}"] = 0.0
    for event in _last_per_actor(tracer, "solver").values():
        attrs = event.attrs
        for name in SOLVER_COUNTERS:
            totals[f"solver_{name}"] += float(attrs.get(name, 0))
        kernel = str(attrs.get("kernel", "python"))
        key = f"solver_kernel_solves_{kernel}"
        totals[key] = totals.get(key, 0.0) \
            + float(attrs.get("kernel_solves", 0))
    for event in tracer.events_in("backend"):
        attrs = event.attrs
        for name in BACKEND_COUNTERS:
            key = f"backend_{name}"
            totals[key] = totals.get(key, 0.0) \
                + float(attrs.get(name, 0))
    injections = recoveries = 0
    for event in tracer.events_in("fault"):
        if event.name.endswith(":inject"):
            injections += 1
        elif event.name.endswith(":recover"):
            recoveries += 1
    totals["fault_injections"] = float(injections)
    totals["fault_recoveries"] = float(recoveries)
    return totals
