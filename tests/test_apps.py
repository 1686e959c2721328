"""Tests for the mini-CM1 kernel and the workload models."""

import numpy as np
import pytest

from repro.apps import CM1Workload, MiniCM1
from repro.errors import ReproError


class TestMiniCM1:
    def test_grid_validation(self):
        with pytest.raises(ReproError):
            MiniCM1(2, 8, 8)

    def test_fields_have_declared_shapes(self):
        model = MiniCM1(16, 12, 8)
        for name, field in model.variables().items():
            assert field.shape == (16, 12, 8), name
            assert field.dtype == np.float32, name

    def test_step_advances_and_stays_finite(self):
        model = MiniCM1(16, 16, 12, seed=3)
        model.step(5)
        assert model.iteration == 5
        for name, field in model.variables().items():
            assert np.all(np.isfinite(field)), name

    def test_warm_bubble_rises(self):
        """Buoyancy must generate an updraft from the warm bubble."""
        model = MiniCM1(24, 24, 16, seed=0)
        assert model.max_w() == 0.0
        model.step(10)
        assert model.max_w() > 0.0

    def test_deterministic_given_seed(self):
        a = MiniCM1(12, 12, 8, seed=9)
        b = MiniCM1(12, 12, 8, seed=9)
        a.step(3)
        b.step(3)
        assert np.array_equal(a.theta, b.theta)

    def test_bytes_per_output(self):
        model = MiniCM1(16, 16, 8)
        assert model.bytes_per_output == 6 * 16 * 16 * 8 * 4

    def test_subdomain_decomposition(self):
        model = MiniCM1(16, 16, 8)
        pieces = [model.subdomain(rank, 2, 2) for rank in range(4)]
        # Reassemble theta from the four subdomains.
        top = np.concatenate([pieces[0]["theta"], pieces[1]["theta"]], axis=0)
        bottom = np.concatenate([pieces[2]["theta"], pieces[3]["theta"]],
                                axis=0)
        whole = np.concatenate([top, bottom], axis=1)
        assert np.array_equal(whole, model.theta)

    def test_subdomain_validation(self):
        model = MiniCM1(16, 16, 8)
        with pytest.raises(ReproError):
            model.subdomain(4, 2, 2)
        with pytest.raises(ReproError):
            model.subdomain(0, 3, 2)  # 16 not divisible by 3

    def test_fields_compress_realistically(self):
        """CM1-like fields must be smooth enough for gzip to bite —
        the premise of the paper's 187 % ratio."""
        import zlib
        model = MiniCM1(32, 32, 24, seed=1)
        model.step(10)
        raw = b"".join(f.tobytes() for f in model.variables().values())
        compressed = zlib.compress(raw, 4)
        # Aggregate ratio (paper convention) comfortably above 150 %.
        assert len(raw) / len(compressed) > 1.5


class TestCM1Workload:
    def test_validation(self):
        with pytest.raises(ReproError):
            CM1Workload(subdomain=(0, 4, 4))
        with pytest.raises(ReproError):
            CM1Workload(seconds_per_iteration=0)
        with pytest.raises(ReproError):
            CM1Workload(iterations_per_output=0)
        with pytest.raises(ReproError):
            CM1Workload(variables=())

    def test_kraken_preset_volume(self):
        workload = CM1Workload.kraken()
        assert workload.points_per_core == 44 * 44 * 200
        # 6 float32 variables -> 24 B per point.
        assert workload.bytes_per_core() == 44 * 44 * 200 * 24

    def test_grid5000_is_24mb_per_process(self):
        workload = CM1Workload.grid5000()
        assert workload.bytes_per_core() == pytest.approx(24e6, rel=0.05)
        # 672 cores -> the paper's 15.8 GB per write phase.
        assert workload.total_bytes(672) == pytest.approx(15.8e9, rel=0.05)

    def test_dilation(self):
        workload = CM1Workload.kraken()
        assert workload.dilation(12, 1) == pytest.approx(12 / 11)
        assert workload.dilation(12, 0) == 1.0
        with pytest.raises(ReproError):
            workload.dilation(2, 2)

    def test_dilation_scales_volume_and_time(self):
        workload = CM1Workload.kraken()
        d = workload.dilation(12, 1)
        assert workload.bytes_per_core(d) == pytest.approx(
            workload.bytes_per_core() * d, rel=1e-6)
        assert workload.compute_block_seconds(d) == pytest.approx(
            workload.compute_block_seconds() * d)

    def test_variable_bytes_sum_to_total(self):
        workload = CM1Workload.grid5000()
        assert sum(workload.variable_bytes().values()) == \
            workload.bytes_per_core()

    def test_blueprint_variable_scaling(self):
        small = CM1Workload.blueprint(nvariables=2)
        large = CM1Workload.blueprint(nvariables=6)
        assert large.bytes_per_core() == 3 * small.bytes_per_core()
        with pytest.raises(ReproError):
            CM1Workload.blueprint(nvariables=0)
