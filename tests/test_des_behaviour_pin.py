"""Behaviour pins for the event engine: what a run records must not move.

Each case runs one small seeded experiment under a :class:`Tracer` and
reduces every recorded span, sorted by (start, end, category, name,
actor), to a digest. The recorded digests come from the engine before
it inlined waited-on child processes and turned stripe segments into
callback chains, so an engine change that reorders, retimes or drops an
observable interval fails here with the case named.

The process counts pin the structural side of that change: a run spawns
one process per rank program, per dedicated-core server and per
failover replay, plus the platform's cross-application interference
walk — none per ``df_write``, file-system call or stripe segment.
"""

import hashlib
import json

import pytest

from repro.des import AllOf
from repro.des.process import Process
from repro.experiments.harness import run_experiment
from repro.experiments.specs import PRESETS, strategy_from_spec
from repro.faults import FaultSchedule
from repro.observe.tracer import Tracer
from repro.units import MiB

_CRASH = {"name": "crash", "faults": [
    {"kind": "node_crash", "time": 225.2, "duration": 20.0, "nodes": [1]},
]}

#: name -> (preset, ncores, strategy sub-spec, write phases, faults)
CASES = {
    "fpp-kraken": ("kraken", 48, {"kind": "fpp"}, 1, None),
    "fpp-gzip-gpfs": (
        "blueprint", 48, {"kind": "fpp", "compression": "gzip"}, 1, None),
    "collective-two-phase-lustre": (
        "kraken", 48, {"kind": "collective"}, 1, None),
    "collective-direct-pvfs": (
        "grid5000", 48, {"kind": "collective"}, 1, None),
    "damaris-plain": ("grid5000", 48, {"kind": "damaris"}, 2, None),
    "damaris-scheduler": (
        "kraken", 48, {"kind": "damaris", "use_scheduler": True}, 2, None),
    "damaris-gzip": (
        "grid5000", 48, {"kind": "damaris", "compression": "gzip"}, 2, None),
    "damaris-failover-crash": (
        "kraken", 48, {"kind": "damaris_failover"}, 2, _CRASH),
}

#: Digests recorded before the engine change (seed 7); ``fpp-gzip-gpfs``
#: was recorded later, with the options that spelled compression on the
#: compute cores before the strategy held its own model.
DIGESTS = {
    "fpp-kraken": "b51139722af55b9e",
    "fpp-gzip-gpfs": "bb61a134ff14295a",
    "collective-two-phase-lustre": "7948e75d4c6ed016",
    "collective-direct-pvfs": "54a0137825eae035",
    "damaris-plain": "48b0804b4f3e4320",
    "damaris-scheduler": "407173fed37ecf51",
    "damaris-gzip": "efd6929b55e357c0",
    "damaris-failover-crash": "323f4903440ce153",
    "fs-read": "3ab15f5f977a4653",
}

#: Processes each case spawns: 48 fpp/collective ranks, or 46 (PVFS,
#: 2 nodes) / 44 (Lustre, 4 nodes) Damaris ranks plus one server per
#: node; the crash adds one replay; each run adds the interference walk.
PROCESSES = {
    "fpp-kraken": 48 + 1,
    "fpp-gzip-gpfs": 48 + 1,
    "collective-two-phase-lustre": 48 + 1,
    "collective-direct-pvfs": 48 + 1,
    "damaris-plain": 46 + 2 + 1,
    "damaris-scheduler": 44 + 4 + 1,
    "damaris-gzip": 46 + 2 + 1,
    "damaris-failover-crash": 44 + 4 + 1 + 1,
}


@pytest.fixture
def spawned(monkeypatch):
    """Counts the processes started while the test runs."""
    count = [0]
    init = Process.__init__

    def counting_init(self, sim, generator):
        count[0] += 1
        init(self, sim, generator)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return count


def span_digest(tracer: Tracer) -> str:
    rows = sorted(
        (span.start, span.end, span.category, span.name, span.actor,
         json.dumps(span.attrs, sort_keys=True))
        for span in tracer.spans)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def run_case(name: str):
    preset_name, ncores, strategy_spec, phases, faults = CASES[name]
    preset = PRESETS[preset_name]()
    machine, fs, workload = preset.build(ncores, seed=7)
    tracer = Tracer()
    result = run_experiment(
        machine, fs, workload, strategy_from_spec(strategy_spec, preset),
        write_phases=phases, tracer=tracer,
        faults=FaultSchedule.from_dict(faults) if faults else None)
    return result, tracer


def run_read_case():
    """One node writes a two-stripe file; twenty readers on three nodes
    then read it at once from ragged offsets, so segments are partial
    stripes and more than ``queue_depth`` of them queue for each
    target's service slots."""
    preset = PRESETS["kraken"]()
    machine, fs, _ = preset.build(48, seed=7)
    tracer = machine.attach_tracer(Tracer())
    sim = machine.sim
    size = 6 * MiB + 12345

    def writer():
        handle = yield from fs.create(machine.nodes[0], "data.bin",
                                      stripe_count=2)
        yield from fs.write(handle, 0, size)
        yield from fs.close(handle)

    def reader(node, offset):
        handle = yield from fs.open(node, "data.bin")
        yield from fs.read(handle, offset, size - offset)
        yield from fs.close(handle)

    sim.run_until_complete(sim.process(writer()))
    sim.run_until_complete(AllOf(sim, [
        sim.process(reader(machine.nodes[1 + i % 3], i * 97 * 1024))
        for i in range(20)]))
    return tracer


@pytest.mark.parametrize("name", sorted(CASES))
def test_spans_match_recorded_digest(name, spawned):
    result, tracer = run_case(name)
    assert tracer.spans
    assert span_digest(tracer) == DIGESTS[name]
    assert spawned[0] == PROCESSES[name]
    if name == "damaris-failover-crash":
        assert result.fault_records[0]["iterations_replayed"] == 1


def test_parallel_file_system_read_matches_recorded_digest(spawned):
    tracer = run_read_case()
    # The writer, the twenty readers and the interference walk.
    assert spawned[0] == 1 + 20 + 1
    reads = [span for span in tracer.spans_in("net_transfer")
             if span.attrs.get("direction") == "read"]
    assert len(reads) == 40
    assert span_digest(tracer) == DIGESTS["fs-read"]
