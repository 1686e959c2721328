"""Smoke tests: the runnable examples must actually run.

Only the fast examples run here (the DES sweep in jitter_analysis takes
minutes and is exercised by the benches; cluster_simulation and
spare_time_scheduling run at a reduced core count); each is executed as
a real subprocess, exactly as a user would.
"""

import os
import re
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True, text=True, timeout=timeout, check=False)


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "client-visible I/O time" in result.stdout
        assert "read back" in result.stdout

    @pytest.mark.slow
    def test_tornado_simulation(self):
        result = run_example("tornado_simulation.py")
        assert result.returncode == 0, result.stderr
        assert "peak updraft" in result.stdout
        assert "zero-copy" in result.stdout

    def test_steering(self):
        result = run_example("steering.py")
        assert result.returncode == 0, result.stderr
        assert "external steering" in result.stdout
        assert "particles" in result.stdout

    def test_cluster_simulation_tiny(self):
        result = run_example("cluster_simulation.py", "24")
        assert result.returncode == 0, result.stderr
        assert "damaris" in result.stdout
        assert "file-per-process" in result.stdout

    def test_spare_time_scheduling_small(self):
        result = run_example("spare_time_scheduling.py", "48")
        assert result.returncode == 0, result.stderr
        for label in ("plain", "+ scheduling", "+ gzip",
                      "+ gzip + scheduling"):
            assert f"  {label}: done" in result.stdout
        # Stored volume per variant, in row order: gzip shrinks it.
        plain, scheduled, gzip, gzip_scheduled = (
            float(gb) for gb in re.findall(r"([\d.]+) GB", result.stdout))
        assert gzip < plain and gzip_scheduled < scheduled
