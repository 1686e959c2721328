"""Tests for runtime extras: dynamic-shape variables, external steering
events, and the inspection tools."""

import os

import numpy as np
import pytest

from repro.config import KNOBS
from repro.core import DamarisConfig
from repro.errors import ReproError, UnknownEventError
from repro.formats import SHDFReader
from repro.runtime import DamarisRuntime
from repro.tools.shdfls import describe_dataset, describe_file
from repro.tools.figures import DRIVERS, main as figures_main
from repro.units import MiB


def particle_config(action="persist"):
    config = DamarisConfig()
    config.add_layout("particles", "float", (1000, 3))
    config.add_variable("tracers", "particles")
    config.add_event("end_iteration", action)
    config.add_event("snapshot", action)
    config.buffer_size = 16 * MiB
    return config


class TestDynamicVariables:
    def test_roundtrip_with_actual_shape(self, tmp_path):
        config = particle_config()
        data = np.arange(30, dtype=np.float32).reshape(10, 3)
        with DamarisRuntime(config, output_dir=str(tmp_path)) as runtime:
            runtime.clients[0].df_write_dynamic("tracers", 0, data)
            runtime.clients[0].df_signal("end_iteration", 0)
        with SHDFReader(runtime.output_files()[0]) as reader:
            back = reader.read_dataset(reader.datasets[0])
            assert back.shape == (10, 3)
            assert np.array_equal(back, data)

    def test_only_actual_bytes_reserved(self, tmp_path):
        config = particle_config(action="discard")
        data = np.zeros((10, 3), dtype=np.float32)
        with DamarisRuntime(config, output_dir=str(tmp_path)) as runtime:
            runtime.clients[0].df_write_dynamic("tracers", 0, data)
            assert runtime.clients[0].bytes_written == data.nbytes
            runtime.clients[0].df_signal("end_iteration", 0)

    def test_oversized_rejected(self, tmp_path):
        config = particle_config()
        too_big = np.zeros((2000, 3), dtype=np.float32)
        with DamarisRuntime(config, output_dir=str(tmp_path)) as runtime:
            with pytest.raises(ReproError):
                runtime.clients[0].df_write_dynamic("tracers", 0, too_big)

    def test_wrong_dtype_rejected(self, tmp_path):
        config = particle_config()
        wrong = np.zeros((10, 3), dtype=np.float64)
        with DamarisRuntime(config, output_dir=str(tmp_path)) as runtime:
            with pytest.raises(ReproError):
                runtime.clients[0].df_write_dynamic("tracers", 0, wrong)


class TestSteeringEvents:
    def test_external_signal_fires_without_client_rendezvous(self,
                                                             tmp_path):
        config = particle_config()
        data = np.ones((5, 3), dtype=np.float32)
        runtime = DamarisRuntime(config, output_dir=str(tmp_path),
                                 nodes=1, clients_per_node=3)
        # Only ONE of three clients wrote; a local-scope client signal
        # would wait for all three — the external signal must not.
        runtime.clients[0].df_write_dynamic("tracers", 0, data)
        runtime.signal("snapshot", 0)
        runtime.shutdown()
        assert len(runtime.output_files()) == 1

    def test_signal_targets_one_node(self, tmp_path):
        config = particle_config()
        data = np.ones((5, 3), dtype=np.float32)
        runtime = DamarisRuntime(config, output_dir=str(tmp_path),
                                 nodes=2, clients_per_node=1)
        for client in runtime.clients:
            client.df_write_dynamic("tracers", 0, data)
        runtime.signal("snapshot", 0, node=1)
        runtime.shutdown()  # node 0 flushes at finalize
        files = runtime.output_files()
        assert len(files) == 2
        assert any("node1" in path for path in files)

    def test_unknown_event_rejected(self, tmp_path):
        config = particle_config()
        with DamarisRuntime(config, output_dir=str(tmp_path)) as runtime:
            with pytest.raises(UnknownEventError):
                runtime.signal("nope", 0)


class TestShdflsTool:
    def make_file(self, tmp_path):
        config = particle_config()
        data = np.linspace(0, 1, 60, dtype=np.float32).reshape(20, 3)
        with DamarisRuntime(config, output_dir=str(tmp_path)) as runtime:
            runtime.clients[0].df_write_dynamic("tracers", 0, data)
            runtime.clients[0].df_signal("end_iteration", 0)
        return runtime.output_files()[0]

    def test_describe_file(self, tmp_path):
        path = self.make_file(tmp_path)
        with SHDFReader(path) as reader:
            text = describe_file(reader)
        assert "tracers/src0" in text
        assert "(20, 3)" in text
        assert "float32" in text

    def test_describe_dataset(self, tmp_path):
        path = self.make_file(tmp_path)
        with SHDFReader(path) as reader:
            text = describe_dataset(reader, "tracers/src0")
        assert "min 0" in text
        assert "max 1" in text

    def test_cli_main(self, tmp_path, capsys):
        path = self.make_file(tmp_path)
        from repro.tools.shdfls import main
        assert main([str(path)]) == 0
        assert "tracers/src0" in capsys.readouterr().out
        assert main([str(path), "tracers/src0"]) == 0
        assert main(["--help"]) == 0


class TestFiguresCLI:
    def test_lists_figures(self, capsys):
        assert figures_main([]) == 0
        out = capsys.readouterr().out
        for name in DRIVERS:
            assert name in out

    def test_unknown_figure(self, capsys):
        assert figures_main(["figx"]) == 2

    def test_runs_cheap_driver(self, capsys):
        assert figures_main(["model"]) == 0
        assert "breakeven" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, env, code, exported", [
        (["--parallel", "1", "--parallel", "2", "model"], {}, 0,
         {"REPRO_PARALLEL": "2"}),
        (["--kernel=python", "model"], {}, 0, {"REPRO_KERNEL": "python"}),
        (["model", "-h"], {}, 0, {}),
        (["--parallel", "0", "table1"], {}, 2, {}),
        (["model"], {"REPRO_KERNEL": "rust"}, 2, {}),
    ], ids=["last-flag-wins", "equals-form", "help-after-figure",
            "zero-workers", "bad-env-kernel"])
    def test_flags_from_the_knob_table(self, monkeypatch, capsys, argv,
                                       env, code, exported):
        # Every knob empty (= unset) through monkeypatch, so whatever the
        # CLI exports is undone after the test.
        for name in KNOBS:
            monkeypatch.setenv(name, env.get(name, ""))
        if code == 2:
            # A rejected command line must not reach a driver.
            monkeypatch.setattr("repro.tools.figures.DRIVERS", {})
        before = dict(os.environ)
        assert figures_main(argv) == code
        err = capsys.readouterr().err
        if code == 2:
            assert dict(os.environ) == before
            assert len(err.strip().splitlines()) == 1
            assert "REPRO_" in err
        for name, value in exported.items():
            assert os.environ[name] == value
