"""The pool-side unit of work for the sweep service.

:func:`run_service_spec` is a module-level function (picklable for the
``ProcessPoolExecutor``) that runs one validated sweep spec with a local
:class:`~repro.observe.Tracer` and returns a plain JSON-safe dict::

    {"summary": <ExperimentResult.summary()>,
     "counters": <trace_counters(tracer)>}

Returning data instead of the live :class:`ExperimentResult` keeps the
payload cheap to pickle, directly cacheable by :mod:`repro.cache`, and
serveable verbatim from the results endpoint. The counters ride along so
the server can fold solver and fault activity from pool workers into its
``/metrics`` page — cache hits replay the stored counters too, keeping
the totals consistent with what a cold run would have reported.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["run_service_spec"]


def run_service_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one sweep spec; return ``{"summary": ..., "counters": ...}``."""
    from repro.experiments.specs import run_spec
    from repro.observe import Tracer, trace_counters

    tracer = Tracer()
    result = run_spec(spec, tracer=tracer)
    return {"summary": result.summary(),
            "counters": trace_counters(tracer)}
