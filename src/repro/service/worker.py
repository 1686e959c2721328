"""The pool-side unit of work for the sweep service.

:func:`run_service_spec` is a module-level function (picklable for the
``ProcessPoolExecutor``) that runs one validated sweep spec and returns
a plain JSON-safe dict::

    {"summary": <ExperimentResult.summary()>,
     "counters": <solver and fault counters of the run>}

Returning data instead of the live :class:`ExperimentResult` keeps the
payload cheap to pickle, directly cacheable by :mod:`repro.cache`, and
serveable verbatim from the results endpoint. The counters are read from
the run's flow network (:attr:`ExperimentResult.solver_stats`) and fault
records, so the run records no trace unless ``REPRO_TRACE`` asks for
one. They ride along so the server can fold solver and fault activity
from pool workers into its ``/metrics`` page; cache hits replay the
stored counters too, keeping the totals consistent with what a cold run
would have reported.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["run_service_spec"]

#: ``solver_stats`` entries exported as ``solver_<name>`` counters.
_SOLVER_COUNTERS = ("recomputes", "full_solves", "component_solves",
                    "fast_grants", "flows_solved", "kernel_solves")


def _run_counters(result: Any) -> Dict[str, float]:
    """Flat float counters of one run, for the service's ``/metrics``.

    ``solver_<name>`` for each of :data:`_SOLVER_COUNTERS`, the solve
    count again as ``solver_kernel_solves_<kernel>`` once the network
    has recomputed at least once, and ``fault_injections`` /
    ``fault_recoveries`` counted over the run's fault records.
    """
    stats = result.solver_stats
    counters = {f"solver_{name}": float(stats[name])
                for name in _SOLVER_COUNTERS}
    if stats["recomputes"]:
        counters[f"solver_kernel_solves_{stats['kernel']}"] = \
            float(stats["kernel_solves"])
    records = result.fault_records
    counters["fault_injections"] = float(len(records))
    counters["fault_recoveries"] = float(sum(
        record["recovery_time"] is not None for record in records))
    return counters


def run_service_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one sweep spec; return ``{"summary": ..., "counters": ...}``."""
    from repro.experiments.specs import run_spec

    result = run_spec(spec)
    return {"summary": result.summary(), "counters": _run_counters(result)}
