"""Tests for the experiments layer: reports, presets, figure plumbing."""

import os

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.experiments.figures import fast_mode, kraken_scales, model_breakeven
from repro.experiments.platforms import (
    blueprint_preset,
    grid5000_preset,
    kraken_preset,
)
from repro.experiments.report import FigureReport, render_table


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
