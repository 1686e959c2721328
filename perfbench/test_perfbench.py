"""The benchmark's own test: ``python -m pytest perfbench``.

Runs every workload smoke-sized (tiny sweeps, a few seconds of service
load), traced and untraced, and checks that every metric prints by name
with its unit; checks that a corrupted reference row or a broken paper
direction fails the output check; and checks that a directory holding
only the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import checks, run

ROOT = run.ROOT


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "3",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = dict(run.PER_LAYER if trace == "1" else run.END_TO_END)
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                   for line in lines[:-1]), f"{name} [{unit}] not printed"
    assert any("failed_ratio=" in line for line in lines)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_reference_rows_pass_unchanged():
    for workload in ("fig2_kraken", "fig7_dedicated"):
        rows = checks.load_reference(workload)["rows"]
        assert checks.check_figure(workload, checks.REFERENCE_SEED,
                                   rows) == (0, [])


def test_corrupted_reference_row_trips_the_check():
    rows = checks.load_reference("fig2_kraken")["rows"]
    corrupted = copy.deepcopy(rows)
    corrupted[3]["avg_s"] *= 1.001
    failed, problems = checks.check_figure(
        "fig2_kraken", checks.REFERENCE_SEED, rows, reference=corrupted)
    assert failed == 1 and "row 3 avg_s" in problems[0]


def test_broken_paper_direction_fails_every_point():
    rows = copy.deepcopy(checks.load_reference("fig7_dedicated")["rows"])
    for row in rows:
        if row["variant"] == "scheduler":
            row["write_s"] *= 2
    failed, problems = checks.check_figure("fig7_dedicated", 5, rows)
    assert failed == len(rows)
    assert any("scheduling lowers" in p for p in problems)


def test_service_check_flags_changed_repeat():
    spec = {"preset": "grid5000", "ncores": 48,
            "strategy": {"kind": "fpp"}, "seed": 1}
    done = {"state": "done", "results": [{"run_time": 1.0}]}
    changed = {"state": "done", "results": [{"run_time": 2.0}]}
    records = [{"job_id": "a", "specs": [spec], "result": done},
               {"job_id": "b", "specs": [spec], "result": changed},
               {"job_id": "c", "specs": [spec], "error": "rejected"}]
    failed, problems = checks.check_service(records)
    assert failed == 2 and problems[0].startswith("b:")


def test_probe_scales_a_time_by_the_speed_sampled_over_it():
    probe = run.SpeedProbe()
    probe.samples[run.WORK_CPU][:] = [(1.0, 0.5), (2.0, 1.0), (3.0, 1.5),
                                      (9.0, 2.0)]
    # The samples inside the window: speed 1.0, then a mean of 1.25.
    assert probe.scaled(1.5, 2.5) == pytest.approx(1.0)
    assert probe.scaled(1.5, 3.5) == pytest.approx(2.0 * 1.25)
    # No sample inside: the one nearest to the window's end.
    assert probe.scaled(7.0, 7.5) == pytest.approx(0.5 * 2.0)


def test_bare_benchmark_directory_exits_without_result():
    bare = os.path.join(ROOT, ".perfbench", "test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _bench("--workload", "fig2_kraken", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
