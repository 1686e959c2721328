"""The service worker's counters, read from the run itself.

:func:`repro.service.worker.run_service_spec` reports solver and fault
counters from the run's flow network and fault records, without
recording a trace. These tests hold them equal to what a traced run of
the same spec reports (``tracereport --by solver`` and the ``fault``
events), on a plain spec and on one with a fault schedule.
"""

from types import SimpleNamespace

import pytest

from repro.des import FlowNetwork, Simulator
from repro.experiments.specs import run_spec
from repro.observe import load_jsonl, solver_table
from repro.service import worker
from repro.service.testing import make_spec
from repro.service.worker import run_service_spec

_TWO_FAULTS = {"name": "two", "faults": [
    {"kind": "straggler", "time": 0.0, "duration": 60.0, "factor": 1.5,
     "nodes": [2]},
    {"kind": "node_crash", "time": 150.0, "duration": 20.0, "nodes": [1]},
]}

SPECS = {
    "grid5000-24-damaris": make_spec(seed=3),
    "kraken-48-faults": make_spec(seed=5, ncores=48, preset="kraken",
                                  faults=_TWO_FAULTS),
}

#: ``solver_<name>`` counter → its ``solver_table`` column.
_SOLVER_COLUMNS = {"recomputes": "recomputes", "full_solves": "full",
                   "component_solves": "component", "fast_grants": "fast",
                   "flows_solved": "flows_solved",
                   "kernel_solves": "kernel_solves"}


@pytest.fixture(scope="module", params=sorted(SPECS))
def runs(request, tmp_path_factory):
    """One spec's untraced payload, ``run_spec`` result, and the payload
    and trace files of the same spec run with ``REPRO_TRACE`` set."""
    spec = SPECS[request.param]
    trace_dir = tmp_path_factory.mktemp(request.param)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("REPRO_TRACE", raising=False)
        plain = run_service_spec(spec)
        result = run_spec(spec)
        mp.setenv("REPRO_TRACE", str(trace_dir))
        traced = run_service_spec(spec)
    return SimpleNamespace(spec=spec, plain=plain, result=result,
                           traced=traced, files=sorted(trace_dir.iterdir()))


def _trace_counters(tracer):
    """The counters a trace reports: solver rows plus fault events."""
    counters = {f"solver_{name}": 0.0 for name in _SOLVER_COLUMNS}
    for row in solver_table(tracer):
        for name, column in _SOLVER_COLUMNS.items():
            counters[f"solver_{name}"] += float(row[column])
        key = f"solver_kernel_solves_{row['kernel']}"
        counters[key] = counters.get(key, 0.0) + float(row["kernel_solves"])
    names = [event.name for event in tracer.events_in("fault")]
    counters["fault_injections"] = float(
        sum(name.endswith(":inject") for name in names))
    counters["fault_recoveries"] = float(
        sum(name.endswith(":recover") for name in names))
    return counters


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return load_jsonl(fh)


def test_counters_equal_traced_run(runs):
    (path,) = runs.files
    expected = _trace_counters(_load(path))
    assert runs.plain["counters"] == expected
    assert expected["solver_recomputes"] > 0
    assert expected["fault_injections"] \
        == len(runs.spec.get("faults", {"faults": []})["faults"])


def test_summary_equals_run_spec(runs):
    assert runs.plain["summary"] == runs.result.summary()


def test_trace_dir_writes_one_trace_same_payload(runs):
    (path,) = runs.files
    spec = runs.spec
    assert path.name == (f"{spec['preset']}-{spec['ncores']}"
                         f"-{spec['strategy']['kind']}.jsonl")
    assert _load(path).events_in("solver")
    assert runs.traced == runs.plain


def test_kernel_split_needs_a_recompute():
    # A network that never recomputed has no solver event to name its
    # kernel, so neither the trace nor the counters carry the split.
    idle = SimpleNamespace(
        solver_stats=FlowNetwork(Simulator()).solver_stats,
        fault_records=[])
    counters = worker._run_counters(idle)
    assert counters["solver_recomputes"] == 0.0
    assert not [key for key in counters
                if key.startswith("solver_kernel_solves_")]
