"""Tests for the experiments layer: reports, presets, figure plumbing,
sweep-spec validation."""

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.experiments.figures import fast_mode, kraken_scales, model_breakeven
from repro.experiments.platforms import (
    blueprint_preset,
    grid5000_preset,
    kraken_preset,
)
from repro.experiments.report import FigureReport, render_table
from repro.experiments.specs import (
    PRESETS,
    STRATEGY_KINDS,
    SpecError,
    strategy_from_spec,
    validate_spec,
)
from repro.formats.compression import GZIP16_MODEL, GZIP_MODEL


class TestRenderTable:
    def test_empty(self):
        assert render_table([]) == "(no rows)"

    def test_alignment_and_order(self):
        rows = [{"name": "a", "value": 1.5}, {"name": "bb", "value": 20.0}]
        text = render_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "value" in lines[0]
        assert len(lines) == 4  # header, rule, 2 rows

    def test_explicit_columns_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = render_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_float_formatting(self):
        rows = [{"x": 0.000123, "y": 123456.0, "z": 1.25}]
        text = render_table(rows)
        assert "0.000123" in text
        assert "1.23e+05" in text or "123456" in text
        assert "1.25" in text

    def test_missing_cell_is_blank(self):
        rows = [{"a": 1, "b": 2}, {"a": 3}]
        assert render_table(rows)  # must not raise


class TestFigureReport:
    def test_render_contains_everything(self):
        report = FigureReport(figure="Figure X", title="A title",
                              rows=[{"k": 1}],
                              paper_claims=["claim one"])
        report.add_note("a note")
        text = report.render()
        assert "Figure X" in text
        assert "A title" in text
        assert "claim one" in text
        assert "a note" in text
        assert "k" in text


class TestPresets:
    @pytest.mark.parametrize("factory,cores_per_node", [
        (kraken_preset, 12),
        (grid5000_preset, 24),
        (blueprint_preset, 16),
    ])
    def test_build_shapes(self, factory, cores_per_node):
        preset = factory()
        assert preset.cores_per_node == cores_per_node
        machine, fs, workload = preset.build(2 * cores_per_node, seed=0)
        assert machine.total_cores == 2 * cores_per_node
        assert len(fs.targets) >= 1
        assert workload.bytes_per_core() > 0

    def test_core_count_must_be_multiple(self):
        with pytest.raises(ReproError):
            kraken_preset().build(100)

    def test_same_seed_same_machine_randomness(self):
        preset = kraken_preset()
        m1, _, _ = preset.build(24, seed=5)
        m2, _, _ = preset.build(24, seed=5)
        a = m1.streams.stream("x").random(4)
        b = m2.streams.stream("x").random(4)
        assert (a == b).all()

    def test_collective_modes(self):
        assert kraken_preset().collective_mode == "two-phase"
        assert grid5000_preset().collective_mode == "direct"

    def test_interference_attached(self):
        preset = kraken_preset()
        machine, fs, _ = preset.build(24, seed=0)
        # Interference modulates target capacity over time.
        machine.sim.run(until=200.0)
        factors = [t.interference_factor for t in fs.targets]
        assert any(f < 1.0 for f in factors)


class TestFastMode:
    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST", raising=False)
        assert not fast_mode()
        assert kraken_scales()[-1] == 9216
        monkeypatch.setenv("REPRO_FAST", "1")
        assert fast_mode()
        assert kraken_scales()[-1] < 9216
        monkeypatch.setenv("REPRO_FAST", "0")
        assert not fast_mode()
        for raw in ("False", "no", "off"):
            monkeypatch.setenv("REPRO_FAST", raw)
            assert not fast_mode()
        monkeypatch.setenv("REPRO_FAST", "maybe")
        with pytest.raises(ConfigurationError, match="REPRO_FAST"):
            fast_mode()


class TestModelBreakevenDriver:
    def test_rows_and_paper_anchor(self):
        report = model_breakeven()
        by_cores = {row["cores_per_node"]: row for row in report.rows}
        assert by_cores[24]["breakeven_percent"] == pytest.approx(4.35,
                                                                  abs=0.01)
        assert by_cores[24]["pays_off_at_5pct"]
        assert not by_cores[8]["pays_off_at_5pct"]
        assert report.render()


#: The fields each strategy kind takes besides ``kind``. Collective
#: takes no compression: pHDF5 collective writes cannot compress
#: (paper Section II-B).
KIND_FIELDS = {
    "fpp": {"compression"},
    "collective": {"stripe_size"},
    "noio": set(),
    "damaris": {"compression", "use_scheduler"},
    "damaris_failover": {"compression", "use_scheduler"},
}

#: A valid value for each strategy field.
FIELD_VALUES = {"compression": "gzip", "stripe_size": 1 << 20,
                "use_scheduler": True}


def spec_for(strategy, preset="grid5000", **top):
    # 48 cores: whole nodes on every preset (12, 24 and 16 per node).
    return {"preset": preset, "ncores": 48, "strategy": strategy, **top}


class TestSpecValidation:
    def test_kinds_are_the_table(self):
        assert set(STRATEGY_KINDS) == set(KIND_FIELDS)

    @pytest.mark.parametrize("kind,field", [
        (kind, field) for kind in sorted(KIND_FIELDS)
        for field in sorted(FIELD_VALUES) if field not in KIND_FIELDS[kind]])
    def test_field_outside_its_kind_is_rejected(self, kind, field):
        strategy = {"kind": kind, field: FIELD_VALUES[field]}
        with pytest.raises(SpecError) as info:
            validate_spec(spec_for(strategy))
        assert repr(kind) in str(info.value)
        assert repr(field) in str(info.value)

    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_every_field_of_its_kind_is_accepted(self, kind):
        strategy = {"kind": kind,
                    **{field: FIELD_VALUES[field]
                       for field in KIND_FIELDS[kind]}}
        assert validate_spec(spec_for(strategy))["strategy"] == strategy

    @pytest.mark.parametrize("strategy,top", [
        ({"kind": "fpp", "compress": True}, {}),
        ({"kind": "damaris", "compression": "gzip",
          "compress_on_server": True}, {}),
        ({"kind": "fpp"}, {"run_compression": "gzip"}),
    ], ids=["compress", "compress_on_server", "run_compression"])
    def test_removed_spellings_are_rejected(self, strategy, top):
        with pytest.raises(SpecError):
            validate_spec(spec_for(strategy, **top))

    @pytest.mark.parametrize("kind,model_of", [
        ("fpp", lambda strategy: strategy.compression),
        ("damaris", lambda strategy: strategy.options.compression),
        ("damaris_failover", lambda strategy: strategy.options.compression),
    ], ids=["fpp", "damaris", "damaris_failover"])
    def test_compression_names_the_strategy_model(self, kind, model_of):
        preset = grid5000_preset()
        assert model_of(strategy_from_spec({"kind": kind}, preset)) is None
        for name, model in (("gzip", GZIP_MODEL), ("gzip16", GZIP16_MODEL)):
            strategy = strategy_from_spec(
                {"kind": kind, "compression": name}, preset)
            assert model_of(strategy) is model

    def test_use_scheduler_is_a_json_boolean(self):
        for value in ("false", 0, 1, None):
            with pytest.raises(SpecError, match="use_scheduler"):
                validate_spec(spec_for({"kind": "damaris",
                                        "use_scheduler": value}))
        strategy = strategy_from_spec(
            {"kind": "damaris", "use_scheduler": False}, grid5000_preset())
        assert not strategy.options.use_scheduler

    def test_nvariables_only_with_blueprint(self):
        validate_spec(spec_for({"kind": "fpp"}, preset="blueprint",
                               nvariables=3))
        for preset in sorted(set(PRESETS) - {"blueprint"}):
            with pytest.raises(SpecError, match="nvariables"):
                validate_spec(spec_for({"kind": "fpp"}, preset=preset,
                                       nvariables=3))

    @pytest.mark.parametrize("preset,per_node", [
        ("kraken", 12), ("grid5000", 24), ("blueprint", 16)])
    def test_ncores_is_whole_nodes_of_the_preset(self, preset, per_node):
        validate_spec(spec_for({"kind": "noio"}, preset=preset,
                               ncores=4 * per_node))
        for ncores in (per_node // 2, 4 * per_node + 1, 100):
            if ncores % per_node:
                with pytest.raises(SpecError, match="ncores"):
                    validate_spec(spec_for({"kind": "noio"}, preset=preset,
                                           ncores=ncores))

    @pytest.mark.parametrize("faults", [0, "", False, [], {}], ids=[
        "zero", "empty-string", "false", "empty-list", "empty-dict"])
    def test_falsy_faults_are_rejected(self, faults):
        with pytest.raises(SpecError, match="faults"):
            validate_spec(spec_for({"kind": "noio"}, faults=faults))

    @pytest.mark.parametrize("label", [5, "", None, ["a"]])
    def test_trace_label_is_a_non_empty_string(self, label):
        with pytest.raises(SpecError, match="trace_label"):
            validate_spec(spec_for({"kind": "noio"}, trace_label=label))
