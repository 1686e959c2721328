"""Tests for the tracing subsystem: tracer, exporters, aggregation, CLI.

Includes the paper's structural acceptance check: in a traced Damaris
run the dedicated cores' ``persist`` spans overlap the compute cores'
subsequent ``write_phase`` spans (I/O hidden behind compute), which a
synchronous strategy cannot exhibit.
"""

import io
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.experiments.harness import run_experiment
from repro.experiments.specs import run_spec
from repro.experiments.platforms import grid5000_preset
from repro.observe import (
    NULL_TRACER,
    EVENT_CATEGORIES,
    SPAN_CATEGORIES,
    Tracer,
    dump_chrome_trace,
    dump_jsonl,
    load_jsonl,
    merge_intervals,
    overlap_seconds,
    per_actor_table,
    per_category_table,
    per_target_table,
    render_summary,
    to_chrome_trace,
    to_jsonl,
)
from repro.strategies import CollectiveIOStrategy, DamarisStrategy
from repro.tools import tracereport


#: Any JSON value, and JSON objects shaped like trace records with
#: fields of any JSON type (attrs keys include the recording calls'
#: parameter names).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
_RECORD = st.fixed_dictionaries(
    {"type": st.sampled_from(["span", "event", "meta"]) | _JSON},
    optional={
        "cat": st.sampled_from(["persist", "solver", "nope"]) | _JSON,
        **{key: st.text(max_size=4) | _JSON for key in ("name", "actor")},
        **{key: st.floats() | _JSON for key in ("start", "end", "time")},
        "attrs": st.dictionaries(
            st.sampled_from(["self", "category", "name", "start", "time",
                             "nbytes"]), _JSON, max_size=3) | _JSON,
        "version": st.just(1) | _JSON,
        "clock": _JSON,
    })


def make_tracer():
    """A tracer with a deterministic hand-driven clock and a bit of
    everything on it."""
    tracer = Tracer(clock=lambda: 0.0, clock_name="test")
    tracer.record_span("write_phase", "phase0", "node0/rank0",
                       0.0, 2.0, rank=0, phase=0)
    tracer.record_span("persist", "iter0", "node0/server-core11",
                       1.0, 3.0, iteration=0, nbytes=1000)
    tracer.record_span("net_transfer", "damaris", "storage/fs.t0",
                       1.2, 2.8, target="fs.t0", nbytes=1000)
    tracer.record_event("lock_revoke", "file3", "locks/file3",
                        time=1.5, file_id=3, owner=1, revokes=2)
    tracer.record_event("queue_depth", "put", "node0/queue",
                        time=0.5, depth=4)
    return tracer


class TestTracer:
    def test_unknown_categories_rejected(self):
        tracer = Tracer()
        with pytest.raises(ReproError):
            tracer.record_span("no_such", "x", "a", 0.0, 1.0)
        with pytest.raises(ReproError):
            tracer.record_event("no_such", "x", "a")

    def test_span_context_manager(self):
        times = iter([1.0, 4.0])
        tracer = Tracer(clock=lambda: next(times))
        with tracer.span("persist", "iter0", "node0/server"):
            pass
        (span,) = tracer.spans
        assert (span.start, span.end, span.duration) == (1.0, 4.0, 3.0)

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.record_span("persist", "x", "a", 0.0, 1.0)
        NULL_TRACER.record_event("error", "x", "a")
        assert len(NULL_TRACER) == 0

    def test_category_sets_disjoint_from_typos(self):
        assert "write_phase" in SPAN_CATEGORIES
        assert "lock_revoke" in EVENT_CATEGORIES


class TestJsonlExport:
    def test_roundtrip_preserves_everything(self):
        tracer = make_tracer()
        loaded = load_jsonl(to_jsonl(tracer))
        assert loaded.clock_name == "test"
        assert len(loaded.spans) == len(tracer.spans)
        assert len(loaded.events) == len(tracer.events)
        by_name = {s.name: s for s in loaded.spans}
        persist = by_name["iter0"]
        assert (persist.category, persist.actor) == \
            ("persist", "node0/server-core11")
        assert (persist.start, persist.end) == (1.0, 3.0)
        assert persist.attrs == {"iteration": 0, "nbytes": 1000}
        revoke = loaded.events_in("lock_revoke")[0]
        assert revoke.time == 1.5
        assert revoke.attrs["revokes"] == 2

    def test_meta_line_first_and_versioned(self):
        lines = to_jsonl(make_tracer()).splitlines()
        meta = json.loads(lines[0])
        assert meta == {"type": "meta", "version": 1, "clock": "test"}
        # Records are sorted by time.
        times = [json.loads(line).get("start", json.loads(line).get("time"))
                 for line in lines[1:]]
        assert times == sorted(times)

    def test_load_rejects_unknown_version(self):
        bad = json.dumps({"type": "meta", "version": 999, "clock": "wall"})
        with pytest.raises(ReproError):
            load_jsonl(bad)

    def test_load_rejects_garbage(self):
        with pytest.raises(ReproError):
            load_jsonl("not json at all\n")

    def test_load_accepts_file_objects(self):
        tracer = make_tracer()
        loaded = load_jsonl(io.StringIO(to_jsonl(tracer)))
        assert len(loaded) == len(tracer)

    def test_dump_to_disk(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_jsonl(make_tracer(), str(path))
        with open(path) as fh:
            assert len(load_jsonl(fh)) == len(make_tracer())

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_JSON, _RECORD))
    def test_any_json_line_loads_or_raises_repro_error(self, value):
        text = to_jsonl(Tracer()) + json.dumps(value) + "\n"
        try:
            load_jsonl(text)
        except ReproError:
            pass


class TestChromeExport:
    def test_shape_and_timestamps(self):
        trace = to_chrome_trace(make_tracer())
        events = trace["traceEvents"]
        assert trace["otherData"]["clock"] == "test"
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        phase = next(e for e in complete if e["name"] == "phase0")
        # Chrome timestamps are microseconds; actor splits into pid/tid.
        assert (phase["ts"], phase["dur"]) == (0.0, 2_000_000.0)
        assert (phase["pid"], phase["tid"]) == ("node0", "rank0")
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and counters[0]["args"] == {"depth": 4}
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and instants[0]["name"] == "file3"
        # The whole object must be JSON-serialisable for the browser.
        json.dumps(trace)

    def test_dump_is_json_loadable(self, tmp_path):
        path = tmp_path / "trace.json"
        dump_chrome_trace(make_tracer(), str(path))
        with open(path) as fh:
            assert json.load(fh)["traceEvents"]


class TestAggregation:
    def test_per_category_table(self):
        rows = per_category_table(make_tracer())
        by_cat = {row["category"]: row for row in rows}
        assert by_cat["persist"]["count"] == 1
        assert by_cat["persist"]["total_s"] == pytest.approx(2.0)
        assert by_cat["persist"]["bytes"] == 1000

    def test_per_actor_and_target_tables(self):
        actors = {row["actor"] for row in per_actor_table(make_tracer())}
        assert {"node0/rank0", "node0/server-core11",
                "storage/fs.t0"} <= actors
        (target_row,) = per_target_table(make_tracer())
        assert target_row["target"] == "fs.t0"
        assert target_row["bytes"] == 1000

    def test_merge_intervals(self):
        assert merge_intervals([(0, 1), (0.5, 2), (3, 4), (4, 4)]) == \
            [(0, 2), (3, 4)]

    def test_overlap_seconds(self):
        tracer = make_tracer()
        overlap = overlap_seconds(tracer.spans_in("persist"),
                                  tracer.spans_in("write_phase"))
        assert overlap == pytest.approx(1.0)

    def test_render_summary_mentions_overlap(self):
        text = render_summary(make_tracer())
        assert "persist/write_phase overlap" in text
        assert "by storage target" in text


def short_compute_run(strategy, tracer, write_phases=3):
    """A small Grid'5000 run whose compute blocks are short enough for
    asynchronous persists to spill into the next write phase."""
    preset = grid5000_preset()
    machine, fs, workload = preset.build(48, seed=1)
    workload = replace(workload, seconds_per_iteration=0.02,
                       iterations_per_output=1)
    return run_experiment(machine, fs, workload, strategy,
                          write_phases=write_phases, tracer=tracer)


class TestOverlapAcceptance:
    def test_damaris_persists_overlap_next_write_phases(self, tmp_path):
        """The paper's jitter-hiding claim, structurally: dedicated-core
        persist intervals intersect later write phases; the same run's
        trace loads in Chrome trace_event form."""
        tracer = Tracer()
        short_compute_run(DamarisStrategy(), tracer)
        assert tracer.clock_name == "sim"
        persists = tracer.spans_in("persist")
        phases = tracer.spans_in("write_phase")
        assert persists and phases
        assert overlap_seconds(persists, phases) > 0
        # Every persist starts at/after the phase that produced its data.
        first_phase_end = min(s.end for s in phases)
        assert all(p.end > first_phase_end for p in persists)
        path = tmp_path / "damaris.json"
        dump_chrome_trace(tracer, str(path))
        with open(path) as fh:
            trace = json.load(fh)
        assert any(e["cat"] == "persist" for e in trace["traceEvents"])

    def test_collective_has_no_asynchronous_persist(self):
        """The synchronous baseline records the same write phases but no
        persist spans at all — nothing is hidden behind compute."""
        tracer = Tracer()
        short_compute_run(CollectiveIOStrategy(mode="two-phase"), tracer)
        assert tracer.spans_in("write_phase")
        assert tracer.spans_in("fs_write")
        assert not tracer.spans_in("persist")


class TestFigureTraceFlag:
    def test_run_spec_dumps_trace_when_env_set(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
        run_spec({
            "preset": "grid5000", "ncores": 48,
            "strategy": {"kind": "damaris"}, "seed": 1,
            "write_phases": 1, "trace_label": "test/grid5000/48/damaris",
        })
        (trace_file,) = tmp_path.glob("*.jsonl")
        assert trace_file.name == "test-grid5000-48-damaris.jsonl"
        with open(trace_file) as fh:
            tracer = load_jsonl(fh)
        assert tracer.clock_name == "sim"
        assert tracer.spans_in("write_phase")

    def test_run_spec_untraced_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        run_spec({
            "preset": "grid5000", "ncores": 48,
            "strategy": {"kind": "noio"}, "seed": 1, "write_phases": 1,
        })
        assert not list(tmp_path.glob("*.jsonl"))


class TestTracereportCli:
    def test_summary_and_chrome_conversion(self, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        dump_jsonl(make_tracer(), str(jsonl))
        chrome = tmp_path / "trace.json"
        assert tracereport.main([str(jsonl), "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "persist/write_phase overlap" in out
        with open(chrome) as fh:
            assert json.load(fh)["traceEvents"]

    def test_groupings(self, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        dump_jsonl(make_tracer(), str(jsonl))
        for grouping, expect in (("actor", "node0/rank0"),
                                 ("category", "persist"),
                                 ("target", "fs.t0")):
            assert tracereport.main([str(jsonl), "--by", grouping]) == 0
            assert expect in capsys.readouterr().out

    def test_bad_inputs(self, tmp_path, capsys):
        assert tracereport.main([]) == 0          # help text
        assert tracereport.main(["a", "b"]) == 2  # too many files
        assert tracereport.main([str(tmp_path / "missing.jsonl")]) == 1
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n")
        assert tracereport.main([str(bad)]) == 1
        capsys.readouterr()
        # Valid JSON that is not a record of the schema.
        span = {"type": "span", "cat": "persist", "name": "iter0",
                "actor": "node0/server", "start": 0.0, "end": 1.0}
        no_cat = {key: value for key, value in span.items() if key != "cat"}
        for i, record in enumerate((5, no_cat, {**span, "attrs": [1]},
                                    {**span, "attrs": {"start": 3}})):
            bad = tmp_path / f"malformed{i}.jsonl"
            bad.write_text(json.dumps(record) + "\n")
            assert tracereport.main([str(bad)]) == 1
            assert "trace line 1" in capsys.readouterr().err

    @staticmethod
    def _report_error(path, grouping, capsys):
        """Exit status and stderr of one ``--by`` report of ``path``,
        with the summary view required to fail the same way."""
        assert tracereport.main([str(path)]) == 1
        capsys.readouterr()
        status = tracereport.main([str(path), "--by", grouping])
        err = capsys.readouterr().err
        return status, err

    def test_solver_counter_that_is_not_a_number(self, tmp_path, capsys):
        path = tmp_path / "solver.jsonl"
        path.write_text(json.dumps(
            {"type": "event", "cat": "solver", "name": "recompute",
             "actor": "flows", "time": 1.0,
             "attrs": {"recomputes": "x"}}) + "\n")
        status, err = self._report_error(path, "solver", capsys)
        assert status == 1
        assert err.count("\n") == 1
        assert str(path) in err and "'recomputes'" in err

    def test_target_that_is_not_a_string(self, tmp_path, capsys):
        path = tmp_path / "target.jsonl"
        path.write_text(json.dumps(
            {"type": "span", "cat": "net_transfer", "name": "write",
             "actor": "storage/fs.t0", "start": 0.0, "end": 1.0,
             "attrs": {"target": [1], "nbytes": 4}}) + "\n")
        status, err = self._report_error(path, "target", capsys)
        assert status == 1
        assert err.count("\n") == 1
        assert str(path) in err and "'target'" in err
