"""Standalone sweep specs: plain-data descriptions of one experiment.

A *spec* is the picklable dict the figure drivers have always fanned out
through :func:`repro.experiments.executor.run_sweep`::

    {"preset": "kraken", "ncores": 576,
     "strategy": {"kind": "damaris"}, "seed": 42}

This module makes that shape a first-class citizen, decoupled from the
figure drivers, so a spec can be submitted standalone — from a figure
driver, from a script, or over the wire to the :mod:`repro.service` job
server — and always means the same experiment:

- :data:`PRESETS` / :data:`STRATEGY_KINDS` — the recognised platform
  presets and strategy kinds;
- :func:`validate_spec` — structural validation with precise error
  messages (the service's admission check; drivers construct specs
  programmatically and skip it);
- :func:`strategy_from_spec` — build the strategy object a spec names;
- :func:`run_spec` — execute one spec and return its
  :class:`~repro.experiments.harness.ExperimentResult`. Module-level and
  picklable, so it crosses process-pool boundaries and keys the
  content-addressed result cache.

Optional spec fields: ``seed`` (int, default 42), ``write_phases``
(int >= 1), ``nvariables`` (int, BluePrint's workload variable count;
preset ``blueprint`` only), ``faults`` (a
:meth:`repro.faults.FaultSchedule.to_dict` payload) and ``trace_label``
(non-empty string; names the trace file under ``REPRO_TRACE``).

Besides ``kind``, a strategy sub-spec takes only the fields its kind can
honour (anything else is a :class:`SpecError`, so a spec never runs a
different experiment than it asks for):

==================================  ==================================
kind                                fields
==================================  ==================================
``fpp``                             ``compression``
``collective``                      ``stripe_size`` (int >= 1)
``noio``                            —
``damaris``, ``damaris_failover``   ``compression``, ``use_scheduler``
==================================  ==================================

``compression`` names a model (``gzip`` or ``gzip16``): file-per-process
runs it on the compute cores inside the write phase, Damaris on the
dedicated core. ``collective`` takes none — pHDF5 collective writes
cannot compress (paper Section II-B). ``use_scheduler`` is a JSON
boolean.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from repro import config
from repro.apps.workload import CM1Workload
from repro.core.server import DamarisOptions
from repro.experiments.harness import ExperimentResult, run_experiment
from repro.experiments.platforms import (
    PlatformPreset,
    blueprint_preset,
    grid5000_preset,
    kraken_preset,
)
from repro.formats.compression import GZIP16_MODEL, GZIP_MODEL
from repro.observe.export import dump_jsonl
from repro.observe.tracer import Tracer
from repro.strategies import (
    CollectiveIOStrategy,
    DamarisFailoverStrategy,
    DamarisStrategy,
    FilePerProcessStrategy,
    NoIOStrategy,
)

__all__ = [
    "PRESETS",
    "STRATEGY_KINDS",
    "SpecError",
    "validate_spec",
    "strategy_from_spec",
    "run_spec",
]

PRESETS = {
    "kraken": kraken_preset,
    "grid5000": grid5000_preset,
    "blueprint": blueprint_preset,
}

_COMPRESSION = {
    "gzip": GZIP_MODEL,
    "gzip16": GZIP16_MODEL,
}

#: Fields each ``spec["strategy"]["kind"]`` takes besides ``kind``.
_STRATEGY_FIELDS = {
    "fpp": frozenset({"compression"}),
    "collective": frozenset({"stripe_size"}),
    "noio": frozenset(),
    "damaris": frozenset({"compression", "use_scheduler"}),
    "damaris_failover": frozenset({"compression", "use_scheduler"}),
}

#: Recognised ``spec["strategy"]["kind"]`` values.
STRATEGY_KINDS = tuple(_STRATEGY_FIELDS)

#: Every key a spec may carry (anything else is a validation error —
#: a typo like "ncore" must not silently describe a different run).
_SPEC_KEYS = frozenset({
    "preset", "ncores", "strategy", "seed", "write_phases", "nvariables",
    "faults", "trace_label",
})


class SpecError(ValueError):
    """A sweep spec that does not describe a runnable experiment."""


def _require_int(spec: Dict[str, Any], key: str, minimum: int) -> None:
    value = spec[key]
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise SpecError(
            f"spec[{key!r}] must be an integer >= {minimum}, "
            f"got {value!r}")


def _require_known(spec: Dict[str, Any], key: str,
                   known: Dict[str, Any]) -> None:
    value = spec[key]
    # Test the type first: a list or dict value cannot be looked up.
    if not isinstance(value, str) or value not in known:
        raise SpecError(
            f"unknown {key} {value!r}; known: {sorted(known)}")


def validate_spec(spec: Any) -> Dict[str, Any]:
    """Check that ``spec`` is a well-formed sweep spec; return it.

    Raises :class:`SpecError` naming the first offending field. The
    check is structural (types, known names, ranges, which fields apply
    to which preset and strategy kind) — it does not build a machine,
    so it is cheap enough for a service admission path.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"a sweep spec is a dict, got {type(spec).__name__}")
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise SpecError(
            f"unknown spec field(s): {sorted(unknown)} "
            f"(known: {sorted(_SPEC_KEYS)})")
    for key in ("preset", "ncores", "strategy"):
        if key not in spec:
            raise SpecError(f"a sweep spec needs {key!r}; got {sorted(spec)}")
    _require_known(spec, "preset", PRESETS)
    _require_int(spec, "ncores", 1)
    strategy = spec["strategy"]
    if not isinstance(strategy, dict) or "kind" not in strategy:
        raise SpecError("spec['strategy'] must be a dict with a 'kind'")
    _require_known(strategy, "kind", _STRATEGY_FIELDS)
    kind = strategy["kind"]
    inapplicable = set(strategy) - {"kind"} - _STRATEGY_FIELDS[kind]
    if inapplicable:
        raise SpecError(
            f"strategy kind {kind!r} does not take field(s) "
            f"{sorted(inapplicable)} (it takes: "
            f"{sorted(_STRATEGY_FIELDS[kind])})")
    if "compression" in strategy:
        _require_known(strategy, "compression", _COMPRESSION)
    if "stripe_size" in strategy:
        _require_int(strategy, "stripe_size", 1)
    if "use_scheduler" in strategy \
            and not isinstance(strategy["use_scheduler"], bool):
        raise SpecError(
            f"spec['strategy']['use_scheduler'] must be true or false, "
            f"got {strategy['use_scheduler']!r}")
    if "seed" in spec:
        _require_int(spec, "seed", 0)
    if "write_phases" in spec:
        _require_int(spec, "write_phases", 1)
    if "nvariables" in spec:
        if spec["preset"] != "blueprint":
            raise SpecError(
                f"spec['nvariables'] sets BluePrint's workload; preset "
                f"{spec['preset']!r} does not take it")
        _require_int(spec, "nvariables", 1)
    if "trace_label" in spec and (
            not isinstance(spec["trace_label"], str)
            or not spec["trace_label"]):
        raise SpecError(
            f"spec['trace_label'] must be a non-empty string, "
            f"got {spec['trace_label']!r}")
    if "faults" in spec and spec["faults"]:
        from repro.faults import FaultSchedule
        from repro.faults.schedule import FaultScheduleError
        try:
            FaultSchedule.from_dict(spec["faults"])
        except FaultScheduleError as exc:
            raise SpecError(f"spec['faults']: {exc}") from None
    return spec


def strategy_from_spec(spec: Dict[str, Any], preset: PlatformPreset):
    """Build the strategy object ``spec`` (a strategy sub-dict) names."""
    kind = spec["kind"]
    compression = (_COMPRESSION[spec["compression"]]
                   if "compression" in spec else None)
    if kind == "fpp":
        return FilePerProcessStrategy(compression=compression)
    if kind == "collective":
        return CollectiveIOStrategy(
            mode=preset.collective_mode,
            stripe_count=preset.collective_stripe_count,
            stripe_size=spec.get("stripe_size"))
    if kind == "noio":
        return NoIOStrategy()
    if kind in ("damaris", "damaris_failover"):
        cls = (DamarisFailoverStrategy if kind == "damaris_failover"
               else DamarisStrategy)
        return cls(DamarisOptions(
            compression=compression,
            use_scheduler=spec.get("use_scheduler", False)))
    raise SpecError(f"unknown strategy kind: {kind!r}")


def run_spec(spec: Dict[str, Any]) -> ExperimentResult:
    """Execute one sweep spec (module-level: picklable for worker pools).

    With ``REPRO_TRACE=<dir>`` in the environment (the ``--trace`` flag
    of the figure CLIs, or a service started with it set), the run
    records a full trace and dumps it to ``<dir>/<label>.jsonl``: one
    file per spec, worker processes included, named by the spec's
    ``trace_label``, else ``<preset>-<ncores>-<kind>``. Without it the
    run records nothing; its solver counters ride on
    :attr:`ExperimentResult.solver_stats` either way.
    """
    preset = PRESETS[spec["preset"]]()
    strategy = strategy_from_spec(spec["strategy"], preset)
    run_kwargs: Dict[str, Any] = {}
    if spec.get("faults"):
        # The schedule travels inside the spec as a plain dict, so it is
        # picklable for worker pools and folds into sweep-cache keys for
        # free (the store keys by the full spec).
        from repro.faults import FaultSchedule
        run_kwargs["faults"] = FaultSchedule.from_dict(spec["faults"])
    trace_dir = config.get("REPRO_TRACE")
    if trace_dir:
        run_kwargs["tracer"] = Tracer()

    machine, fs, workload = preset.build(
        spec["ncores"], seed=spec.get("seed", 42))
    if "nvariables" in spec:
        workload = CM1Workload.blueprint(nvariables=spec["nvariables"])
    result = run_experiment(
        machine, fs, workload, strategy,
        write_phases=spec.get("write_phases",
                              1 if config.get("REPRO_FAST") else 2),
        **run_kwargs)

    if trace_dir:
        label = spec.get(
            "trace_label",
            f"{spec['preset']}-{spec['ncores']}"
            f"-{spec['strategy']['kind']}")
        os.makedirs(trace_dir, exist_ok=True)
        dump_jsonl(run_kwargs["tracer"], os.path.join(
            trace_dir, label.replace("/", "-") + ".jsonl"))
    return result
