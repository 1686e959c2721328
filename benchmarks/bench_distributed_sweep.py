"""Distributed-sweep benchmark: RemoteBackend vs serial, plus crash leg.

Launches two local ``sweepworkerctl serve`` workers (ephemeral ports via
``--port-file``), then runs a **cold** multi-figure sweep (Fig. 2 +
Fig. 6, caching off so every point ships to a worker) twice:

- **serial** — in-process reference run;
- **remote** — the same drivers with ``REPRO_BACKEND=remote`` pointing
  at the two workers.

The two report sets must be bit-identical. On machines with enough
cores to host the coordinator plus two busy workers
(``os.cpu_count() >= 3``) the remote run must be at least
``MIN_SPEEDUP`` (2×) faster than serial; on smaller boxes the ratio is
recorded but the floor is skipped with a warning (two workers
time-slicing one core cannot beat a serial run). A third **crash** leg
SIGKILLs one worker mid-sweep and asserts zero lost and zero
duplicated tasks, with values bit-identical to a serial recompute.
A full run writes ``benchmarks/BENCH_distributed_sweep.json``::

    PYTHONPATH=src python benchmarks/bench_distributed_sweep.py          # full
    PYTHONPATH=src python benchmarks/bench_distributed_sweep.py --smoke  # CI
    PYTHONPATH=src python benchmarks/bench_distributed_sweep.py --check  # CI

``--smoke`` trims the sweeps to seconds and checks the invariants only
(bit-identity, crash recovery); ``--check`` runs the full scenario and
compares shape/ratio keys against the committed baseline (wall times
are machine-dependent and not enforced).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import TASK_ENV  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_distributed_sweep.json")

#: Acceptance floor: two local workers must halve the cold sweep —
#: enforced only when the machine can actually run coordinator + two
#: workers concurrently (see ``floor_enforced``).
MIN_SPEEDUP = 2.0

#: Modes the bench controls itself; anything inherited would leak into
#: the workers through their environment instead of the welcome frame.
_MODE_KEYS = TASK_ENV + ("REPRO_CACHE", "REPRO_PARALLEL", "REPRO_BACKEND",
                         "REPRO_WORKERS")


def floor_enforced() -> bool:
    return (os.cpu_count() or 1) >= 3


def _worker_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in _MODE_KEYS}
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (f"{src}{os.pathsep}{existing}"
                         if existing else src)
    return env


def start_worker(run_dir: str, name: str):
    """Launch one worker subprocess; returns ``(proc, "host:port")``."""
    port_file = os.path.join(run_dir, f"{name}.port")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.sweepworkerctl", "serve",
         "--port", "0", "--port-file", port_file,
         "--tag", name, "--max-idle", "600"],
        cwd=REPO_ROOT, env=_worker_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if os.path.exists(port_file):
            with open(port_file, encoding="utf-8") as fh:
                text = fh.read().strip()
            if text:
                return proc, text
        if proc.poll() is not None:
            raise SystemExit(
                f"worker {name} died on startup:\n"
                f"{proc.stdout.read().decode(errors='replace')}")
        time.sleep(0.02)
    proc.kill()
    raise SystemExit(f"worker {name} never published its port")


def _report_bits(report) -> str:
    return repr(report.rows) + "|" + repr(report.notes)


def _result_bits(result):
    """Bit-exact fingerprint of an ExperimentResult (no rounding)."""
    return (
        result.strategy, result.ncores, result.run_time,
        result.drain_time,
        tuple(p.duration for p in result.phases),
        tuple(p.rank_times.tobytes() for p in result.phases),
    )


def run_figures(addrs, smoke: bool) -> dict:
    """The cold multi-figure sweep, serial then remote, bit-compared."""
    from repro.experiments import figures

    kwargs = {"scales": (48, 96)} if smoke else {}
    drivers = (("fig2", figures.fig2_write_phase_kraken),
               ("fig6", figures.fig6_throughput_kraken))

    os.environ["REPRO_BACKEND"] = "serial"
    os.environ.pop("REPRO_WORKERS", None)
    t0 = time.perf_counter()
    serial = [(name, fn(**kwargs)) for name, fn in drivers]
    serial_s = time.perf_counter() - t0

    os.environ["REPRO_BACKEND"] = "remote"
    os.environ["REPRO_WORKERS"] = ",".join(addrs)
    t0 = time.perf_counter()
    remote = [(name, fn(**kwargs)) for name, fn in drivers]
    remote_s = time.perf_counter() - t0
    os.environ.pop("REPRO_BACKEND", None)
    os.environ.pop("REPRO_WORKERS", None)

    for (name, cold), (_, dist) in zip(serial, remote):
        if _report_bits(cold) != _report_bits(dist):
            raise SystemExit(
                f"{name}: remote report is not bit-identical to serial")

    speedup = serial_s / remote_s if remote_s > 0 else float("inf")
    return {
        "figures": [name for name, _ in drivers],
        "rows": sum(len(report.rows) for _, report in serial),
        "serial_s": round(serial_s, 3),
        "remote_s": round(remote_s, 3),
        "speedup": round(speedup, 2),
    }


def run_crash_leg(run_dir: str, smoke: bool) -> dict:
    """SIGKILL one worker mid-sweep; every task must come back exactly
    once, bit-identical to a serial recompute."""
    from repro.experiments.backends import RemoteBackend
    from repro.experiments.executor import SweepTask
    from repro.experiments.specs import run_spec

    ntasks = 6 if smoke else 12
    specs = [
        {"preset": "grid5000", "ncores": 24 if i % 2 else 48,
         "strategy": {"kind": "damaris" if i % 3 else "fpp"},
         "seed": 100 + i, "write_phases": 1}
        for i in range(ntasks)
    ]
    tasks = [(i, SweepTask(run_spec, (spec,)))
             for i, spec in enumerate(specs)]
    reference = [_result_bits(run_spec(spec)) for spec in specs]

    procs, addrs = [], []
    for i in range(2):
        proc, addr = start_worker(run_dir, f"crash{i}")
        procs.append(proc)
        addrs.append(addr)
    try:
        backend = RemoteBackend(addrs, chunk_cap=2)
        outcomes = []
        for outcome in backend.run_tasks(tasks):
            outcomes.append(outcome)
            if len(outcomes) == 1:
                # First completion: a worker certainly holds in-flight
                # tasks — SIGKILL it mid-batch.
                procs[0].send_signal(signal.SIGKILL)
        counters = backend.counters()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
        for proc in procs:
            proc.wait(timeout=10)

    indices = [outcome.index for outcome in outcomes]
    if sorted(indices) != list(range(ntasks)):
        raise SystemExit(
            f"crash leg lost or duplicated tasks: got indices "
            f"{sorted(indices)}, wanted 0..{ntasks - 1}")
    by_index = {outcome.index: outcome.value for outcome in outcomes}
    survived = [_result_bits(by_index[i]) for i in range(ntasks)]
    if survived != reference:
        raise SystemExit(
            "crash leg results are not bit-identical to serial recompute")
    if counters["crashed"] < 1:
        raise SystemExit(
            f"crash leg never observed the worker loss: {counters}")
    return {
        "crash_tasks": ntasks,
        "crash_requeued": int(counters["requeued"]),
        "crash_crashed": int(counters["crashed"]),
    }


def run_bench(smoke: bool) -> dict:
    for key in _MODE_KEYS:
        os.environ.pop(key, None)
    os.environ["REPRO_FAST"] = "1"
    os.environ["REPRO_CACHE"] = "0"  # cold: every point ships out

    with tempfile.TemporaryDirectory(prefix="repro-distbench-") as run_dir:
        procs, addrs = [], []
        for i in range(2):
            proc, addr = start_worker(run_dir, f"w{i}")
            procs.append(proc)
            addrs.append(addr)
        try:
            result = run_figures(addrs, smoke=smoke)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        result.update(run_crash_leg(run_dir, smoke=smoke))

    result["cpus"] = os.cpu_count() or 1
    result["workers"] = 2
    result["floor_enforced"] = floor_enforced()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="trimmed sweep; check invariants only, do "
                             "not rewrite the baseline")
    parser.add_argument("--check", action="store_true",
                        help="full scenario; compare against the "
                             "committed baseline instead of rewriting it")
    args = parser.parse_args(argv)

    result = run_bench(smoke=args.smoke)

    print(f"distributed_sweep: {json.dumps(result)}")
    if result["floor_enforced"]:
        if result["speedup"] < MIN_SPEEDUP:
            print(f"FAIL: remote speedup {result['speedup']:.2f}x < "
                  f"{MIN_SPEEDUP:.0f}x floor with {result['workers']} "
                  f"workers on {result['cpus']} cpus")
            return 1
    else:
        print(f"WARN: only {result['cpus']} cpu(s) — coordinator and "
              f"workers time-slice one core, so the {MIN_SPEEDUP:.0f}x "
              f"floor is recorded but not enforced "
              f"(measured {result['speedup']:.2f}x)")

    if args.check:
        with open(BASELINE_PATH, encoding="utf-8") as fh:
            baseline = json.load(fh)["results"]["distributed_sweep"]
        failures = 0
        for key in ("figures", "rows", "crash_tasks", "workers"):
            if result[key] != baseline[key]:
                print(f"CHECK FAIL distributed_sweep.{key}: "
                      f"{result[key]!r} != {baseline[key]!r}")
                failures += 1
        floor = baseline.get("min_speedup", MIN_SPEEDUP)
        if result["floor_enforced"] and result["speedup"] < floor:
            print(f"CHECK FAIL distributed_sweep.speedup: "
                  f"{result['speedup']}x < {floor}x")
            failures += 1
        else:
            print(f"check ok   distributed_sweep.speedup: "
                  f"{result['speedup']}x (floor {floor}x, "
                  f"enforced={result['floor_enforced']}, "
                  f"baseline {baseline['speedup']}x)")
        if failures:
            print(f"check FAILED ({failures} deviation(s) from "
                  f"{BASELINE_PATH})")
            return 1
        print("check ok")
    elif not args.smoke:
        payload = {
            "bench": "distributed_sweep",
            "command": "PYTHONPATH=src python "
                       "benchmarks/bench_distributed_sweep.py",
            "results": {"distributed_sweep":
                        dict(result, min_speedup=MIN_SPEEDUP)},
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {BASELINE_PATH}")
    else:
        print("smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
