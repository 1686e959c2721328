"""The repo's benchmark: a paper figure regenerated cold, and a service job.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig2_kraken --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it once untraced and twice with every layer's
entry points wrapped from outside (:mod:`perfbench.layers`), self-checks
the traced runs against the untraced one, and prints the per-layer
metrics. Either way every output is checked (:mod:`perfbench.checks`),
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is 0
only when every check passed. Workloads are described in
:mod:`perfbench.workloads`.

Each workload run is a fresh interpreter started by this script, which
itself never imports ``repro``. The children see no inherited
``REPRO_*`` variable except ``REPRO_FAST=1`` (so the defaults are
measured) and a kernel build cache inside the checkout, warmed once
before anything is timed. The figure drivers are called directly with
the sweep cache off; the service gets an empty cache directory per run.
Everything the benchmark writes stays under ``.perfbench/``; the timed
run leaves its raw times and speed samples in
``.perfbench/last-<workload>.json``, the traced run its per-job
aggregates and spans in ``.perfbench/traces/<workload>.json``.

End-to-end metrics (``--trace 0``), lower is better for all. Every time
is in seconds *on the nominal host*: each timed interval is scaled by
the speed of the CPU it ran on, sampled while it ran (see
:class:`SpeedProbe`), and the unscaled values are printed on a line of
their own.

``wall_s``
    Figures: one regeneration, from the first sweep point's start to the
    last row, averaged over the regenerations that fit in ``--seconds``
    (at least two). Service: from the first job's due time to the last
    job's result; it is set by the send schedule, so it is not scaled.
``setup_s``
    Median of five cold starts from a fresh interpreter to ready:
    imports, preset build and kernel load, plus, for the service, server
    start and a warmed pool.
``job_p50_s``, ``job_p90_s``
    Latency of a job from when it was due to its result; for figures a
    job is a sweep point (see :mod:`perfbench.workloads`).
``peak_rss_mb``
    The largest resident set of any process of the workload.

The failed share of jobs is printed beside them as ``failed_ratio`` and
is carried by ``attempted`` and ``failed`` in the result line.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import checks  # noqa: E402
from perfbench.workloads import ROUND_S, SERVICE, WORKLOADS  # noqa: E402

#: Extra set-up-only cold starts per timed run; with the measured run's
#: own start, ``setup_s`` is the median of five. Single cold starts of a
#: figure workload spanned 0.17-0.37 s over ten runs on a 2-CPU host.
COLD_STARTS = 4
#: Seconds between two samples of the host's speed, and what one sample
#: of the probe's work takes on the nominal host.
PROBE_EVERY = 0.05
PROBE_NOMINAL_S = 0.0015
#: The CPU the workload's engine runs on, and the one the service's HTTP
#: side runs on (the same when there is one CPU only). The speed probe
#: samples both.
WORK_CPU = max(os.sched_getaffinity(0))
SERVER_CPU = min(os.sched_getaffinity(0))
CPUS = sorted({WORK_CPU, SERVER_CPU})
#: Wall-clock limit for a whole run: a child still running then is
#: killed and the run fails, rather than overrun its caller's limit.
RUN_TIMEOUT = 175.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("job_p50_s", "s"),
              ("job_p90_s", "s"), ("peak_rss_mb", "MB"))
# Per-layer metrics, by the layer's main module, and what they should
# move (counts and ratios are dimensionless):
#   des.core (core, sched, process, resources) -> wall_s, mostly fig7;
#   des.bandwidth (bandwidth, kernels) -> wall_s, mostly fig2, not fig7;
#   mpi (comm, mpiio) -> wall_s on fig2; storage -> wall_s a little on
#   fig2, and its counts flag model changes; core (the Damaris model) ->
#   wall_s, mostly fig7; harness (harness, specs, platforms, strategies,
#   cluster) -> wall_s and setup_s, a little everywhere; cache and
#   service -> job_p50_s / job_p90_s on service_tenants only; loadgen
#   and trace are the measurement's own health and should move nothing.
PER_LAYER = (
    ("des.core.events", "count"), ("des.core.processes", "count"),
    ("des.core.self_s", "s"),
    ("des.bandwidth.flows", "count"), ("des.bandwidth.recomputes", "count"),
    ("des.bandwidth.flows_solved", "count"),
    ("des.bandwidth.fast_grant_ratio", "ratio"),
    ("des.bandwidth.tick_useful_ratio", "ratio"),
    ("des.bandwidth.self_s", "s"),
    ("mpi.collectives", "count"), ("mpi.p2p", "count"), ("mpi.self_s", "s"),
    ("storage.files_created", "count"), ("storage.metadata_ops", "count"),
    ("storage.lock_acquires", "count"), ("storage.self_s", "s"),
    ("core.writes", "count"), ("core.persists", "count"),
    ("core.self_s", "s"),
    ("harness.build_s", "s"), ("harness.self_s", "s"),
    ("cache.hit_ratio", "ratio"), ("cache.get_s", "s"), ("cache.put_s", "s"),
    ("service.queue_wait_p50_s", "s"), ("service.run_p50_s", "s"),
    ("service.http_p50_s", "s"), ("service.dedup_joins", "count"),
    ("service.rejections", "count"),
    ("loadgen.late_p90_s", "s"), ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
)
#: Engine layers whose counts must repeat exactly between traced runs.
#: Cache hit/miss splits and service counters depend on timing (a repeat
#: that arrives while its original is in flight joins it instead of
#: hitting the store), so they are not compared.
_ENGINE_LAYERS = ("des.", "mpi.", "storage.", "core.", "solver.")


#: ``(metrics, attempted jobs, failed jobs, problems, unscaled times)``.
Measured = Tuple[Dict[str, float], int, int, List[str], Dict[str, float]]


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------- #
# child interpreters
# ---------------------------------------------------------------------- #
def child_env(smoke: bool) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    if not smoke:
        env["REPRO_FAST"] = "1"
    env["REPRO_KERNEL_CACHE"] = os.path.join(ROOT, ".perfbench", "kernels")
    # The compiler and tempfile write their scratch files here too.
    env["TMPDIR"] = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(ROOT, "src"), ROOT))
    # Imports read cached bytecode, as they do for a user after the
    # first run; a fixed hash seed keeps set and dict orders, and so the
    # work done, the same from run to run.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class SpeedProbe:
    """Samples how fast each CPU of the workload runs plain Python.

    One thread of this process (which is idle while it waits for a
    child) per CPU in :data:`CPUS`, pinned to that CPU, times
    :func:`_probe_work` every :data:`PROBE_EVERY` seconds by its own CPU
    time, so that the time the workload holds the CPU is not counted. A
    sample's *speed* is :data:`PROBE_NOMINAL_S` over that time: 1.0 is
    the nominal host. See :meth:`scaled`.
    """

    def __init__(self) -> None:
        self.samples: Dict[int, List[Tuple[float, float]]] = {
            cpu: [] for cpu in CPUS}  # cpu -> [(end, speed)]
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,),
                                          name=f"probe-{cpu}", daemon=True)
                         for cpu in CPUS]

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        samples = self.samples[cpu]
        while not self._stop.wait(PROBE_EVERY):
            start = time.thread_time()
            _probe_work()
            took = time.thread_time() - start
            samples.append((time.perf_counter(), PROBE_NOMINAL_S / took))

    def speed(self, start: float, end: float, cpus: Sequence[int]) -> float:
        """Mean speed of ``cpus`` from ``start`` to ``end``: over their
        samples in that window, or their samples nearest to it."""
        speeds = []
        for cpu in cpus:
            samples = self.samples[cpu]
            inside = [v for t, v in samples if start <= t <= end]
            if inside:
                speeds.append(statistics.fmean(inside))
            elif samples:
                speeds.append(min(samples,
                                  key=lambda s: abs(s[0] - end))[1])
        if not speeds:
            raise BenchError("the speed probe took no sample")
        return statistics.fmean(speeds)

    def scaled(self, start: float, end: float,
               cpus: Sequence[int] = ()) -> float:
        """Seconds from ``start`` to ``end`` on the nominal host: the
        time scaled by the mean speed of ``cpus`` (the workload's CPU by
        default) over it. Host speed swings that last seconds, and drift
        over minutes, leave such a time unchanged; a change to how much
        work the program does changes it in full."""
        return (end - start) * self.speed(start, end, cpus or (WORK_CPU,))


def _probe_work(n: int = 1500) -> float:
    """The probe's fixed work: heap, dict and float operations, the mix
    of the engine's event loop, in pure Python and independent of the
    engine, so that no change to the engine changes the probe."""
    heap: List[Tuple[float, int]] = []
    sums: Dict[int, float] = {}
    acc = 0.0
    for i in range(n):
        heapq.heappush(heap, (((i * 7919) % 1009) * 0.001, i))
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            sums[j & 127] = sums.get(j & 127, 0.0) + t
            acc += t * 1.0001 - acc * 1e-4
    return acc


class Child:
    """One finished child interpreter: its times on this process's
    clock and its final JSON document."""

    def __init__(self, start: float, ready: float, end: float,
                 doc: Dict[str, Any]) -> None:
        self.start, self.ready, self.end, self.doc = start, ready, end, doc

    @property
    def setup_s(self) -> float:
        return self.ready - self.start


def run_child(opts: Dict[str, Any], env: Dict[str, str]) -> Child:
    """Run one workload child to its end."""
    cmd = [sys.executable, "-m", "perfbench.workloads", json.dumps(opts)]
    start = time.perf_counter()
    # Its own process group, so that a failed or overdue child is killed
    # together with any pool worker it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(
        max(1.0, opts["deadline"] - time.monotonic()), kill_group)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
        end = time.perf_counter()
    finally:
        watchdog.cancel()
        kill_group()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "READY":
        raise BenchError(f"{opts['workload']} ({opts['mode']}) exited "
                         f"with code {code}")
    if opts["mode"] == "ready":
        return Child(start, ready, end, {})
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{opts['workload']} printed no result")
    return Child(start, ready, end, json.loads(lines[-1]))


def provenance(env: Dict[str, str]) -> Dict[str, Any]:
    """Versions and resolved engine modes; builds the compiled kernel
    into the checkout's cache once, so no timed run pays for it."""
    code = (
        "import json, os, platform, numpy\n"
        "from repro.cache.keys import model_fingerprint\n"
        "from repro.des.bandwidth import _resolve_solver\n"
        "from repro.des.kernels import kernel_status, resolve_kernel\n"
        "from repro.des.sched import resolve_scheduler\n"
        "print(json.dumps({'python': platform.python_version(),\n"
        "  'numpy': numpy.__version__,\n"
        "  'nproc': len(os.sched_getaffinity(0)),\n"
        "  'model_fingerprint': model_fingerprint(),\n"
        "  'kernel': resolve_kernel(None), 'kernel_build': kernel_status(),\n"
        "  'solver': _resolve_solver(None),\n"
        "  'scheduler': resolve_scheduler(None)}))\n")
    try:
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True,
                             timeout=RUN_TIMEOUT, check=True)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        raise BenchError(f"cannot import the engine: {exc}") from None
    info = json.loads(out.stdout.strip().splitlines()[-1])
    info["commit"] = _commit()
    return info


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return float(values[0])
    # Inclusive: with a dozen values or fewer, the default (exclusive)
    # method extrapolates past the largest one.
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _figure_jobs(workload: str, seed: int, smoke: bool,
                 regens: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    attempted = failed = 0
    problems: List[str] = []
    for regen in regens:
        bad, why = checks.check_figure(workload, seed, regen["rows"], smoke)
        attempted += len(regen["points"])
        failed += bad
        problems.extend(why)
    return attempted, failed, problems


def _service_latencies(out: Dict[str, Any]) -> Dict[str, List[float]]:
    lat, wait, run, late = [], [], [], []
    finish = []
    for record in out["records"]:
        late.append(record["sent"] - record["due"])
        snap = record.get("snapshot")
        if not snap or snap["state"] != "done":
            continue
        lat.append(snap["finished_at"] - record["due"])
        wait.append(snap["started_at"] - snap["submitted_at"])
        run.append(snap["finished_at"] - snap["started_at"])
        finish.append(snap["finished_at"])
    return {"latency": lat, "queue_wait": wait, "run": run, "late": late,
            "finish": finish}


def timed(args: argparse.Namespace, env: Dict[str, str],
          opts: Dict[str, Any], probe: SpeedProbe) -> Measured:
    colds = [run_child(dict(opts, mode="ready"), env)
             for _ in range(COLD_STARTS)]
    child = run_child(dict(opts, mode="timed"), env)
    colds.append(child)
    out = child.doc
    # Every time below is scaled by the host speed sampled over it
    # (SpeedProbe.scaled); the raw times are kept beside the metrics.
    setup_cpus = CPUS if args.workload == SERVICE else (WORK_CPU,)
    setup = [probe.scaled(c.start, c.ready, setup_cpus) for c in colds]
    metrics = {"setup_s": statistics.median(setup)}
    raw = {"setup_s": statistics.median(c.setup_s for c in colds)}
    if args.workload == SERVICE:
        attempted = len(out["records"])
        failed, problems = checks.check_service(out["records"])
        done = [(r["due"], r["snapshot"]["finished_at"])
                for r in out["records"]
                if (r.get("snapshot") or {}).get("state") == "done"]
        if not done:
            raise BenchError("no service job finished")
        latency = [probe.scaled(due, end) for due, end in done]
        raw_latency = [end - due for due, end in done]
        # Set by the send schedule rather than by the host's speed, so
        # it is not scaled.
        metrics["wall_s"] = raw["wall_s"] = \
            max(end for _due, end in done) - out["t0"]
    else:
        regens = out["regens"]
        attempted, failed, problems = _figure_jobs(
            args.workload, args.seed, args.smoke, regens)
        if any(r["rows"] != regens[0]["rows"] for r in regens):
            failed += 1
            problems.append("rows differ between regenerations")
        walls, latency, raw_latency = [], [], []
        for regen in regens:
            # A point's latency runs from the sweep's start to its row:
            # the scaled points before it and itself.
            points = [probe.scaled(a, b) for a, b in regen["points"]]
            latency.extend(itertools.accumulate(points))
            raw_latency.extend(b - regen["start"]
                               for _a, b in regen["points"])
            between = regen["wall_s"] - sum(b - a
                                            for a, b in regen["points"])
            walls.append(sum(points) + between
                         * probe.speed(regen["start"], regen["end"],
                                       (WORK_CPU,)))
        metrics["wall_s"] = statistics.fmean(walls)
        raw["wall_s"] = statistics.fmean(r["wall_s"] for r in regens)
    metrics["job_p50_s"] = statistics.median(latency)
    metrics["job_p90_s"] = p90(latency)
    raw["job_p50_s"] = statistics.median(raw_latency)
    raw["job_p90_s"] = p90(raw_latency)
    metrics["peak_rss_mb"] = out["peak_rss_mb"]
    _keep(opts, {"metrics": metrics, "raw": raw, "probe": probe.samples,
                 "colds": [(c.start, c.ready) for c in colds],
                 "run": (child.ready, child.end), "out": out})
    return metrics, attempted, failed, problems, raw


def _keep(opts: Dict[str, Any], data: Dict[str, Any]) -> None:
    """The last timed run's raw times, for a look behind its metrics."""
    path = os.path.join(ROOT, ".perfbench", f"last-{opts['workload']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _engine_counts(counts: Dict[str, int]) -> Dict[str, int]:
    return {key: value for key, value in counts.items()
            if key.startswith(_ENGINE_LAYERS)}


def _sum_jobs(jobs: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    total: Dict[str, Any] = {"counts": {}, "self_s": {}, "incl": {},
                             "wall_s": 0.0}
    for job in jobs.values():
        total["wall_s"] += job["wall_s"]
        for part in ("counts", "self_s", "incl"):
            for key, value in job[part].items():
                total[part][key] = total[part].get(key, 0) + value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(args: argparse.Namespace, env: Dict[str, str],
           opts: Dict[str, Any], probe: SpeedProbe) -> Measured:
    # Figures: one regeneration each; the service: one round each, so
    # the traced and untraced runs send the same jobs.
    seconds = min(args.seconds, ROUND_S) if args.workload == SERVICE else 0
    base = run_child(dict(opts, mode="timed", seconds=seconds, least=1),
                     env).doc
    runs = [run_child(dict(opts, mode="traced", seconds=seconds), env).doc
            for _ in range(2)]
    checked = [base] + runs
    selfcheck: List[str] = []
    if args.workload == SERVICE:
        attempted = failed = 0
        problems: List[str] = []
        for out in checked:
            attempted += len(out["records"])
            bad, why = checks.check_service(out["records"])
            failed += bad
            problems.extend(why)
        want = checks.service_summaries(base["records"])
        for out in runs:
            if checks.service_summaries(out["records"]) != want:
                selfcheck.append("traced service summaries differ from "
                                 "the untraced run")
        engine = [_sum_jobs(out["worker_jobs"]) for out in runs]
        for out in runs:
            for digest, job in out["worker_jobs"].items():
                gap = abs(sum(job["self_s"].values()) - job["wall_s"])
                if gap > 2e-3:
                    selfcheck.append(f"spec {digest}: self times miss its "
                                     f"wall by {gap:.4f} s")
    else:
        attempted, failed, problems = _figure_jobs(
            args.workload, args.seed, args.smoke,
            [out["regens"][0] for out in checked])
        for out in runs:
            if out["regens"][0]["rows"] != base["regens"][0]["rows"]:
                selfcheck.append("traced rows differ from untraced rows")
        engine = [out["trace"] for out in runs]
        for out in runs:
            window = out["regens"][0]["window_s"]
            gap = abs(sum(out["trace"]["self_s"].values()) - window)
            if gap > 2e-3 + 1e-3 * window:
                selfcheck.append(f"self times miss the traced wall by "
                                 f"{gap:.4f} s")
    first, second = (_engine_counts(e["counts"]) for e in engine)
    for key in sorted(set(first) | set(second)):
        if first.get(key) != second.get(key):
            selfcheck.append(f"count {key} differs between two traced "
                             f"runs: {first.get(key)} != {second.get(key)}")
    metrics = layer_metrics(args.workload, base, runs[0], engine[0])
    # A failed self-check makes the run's per-layer figures untrustworthy:
    # each one counts as a failure beside the jobs' own.
    return (metrics, attempted, failed + len(selfcheck),
            problems + selfcheck, {})


def layer_metrics(workload: str, base: Dict[str, Any], run: Dict[str, Any],
                  engine: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of the first traced run ``run``.

    ``engine`` holds the engine layers' counts and times: the traced
    process's totals for a figure, the sum over the specs the pool
    worker computed for the service. Metrics of layers a workload never
    enters are 0. ``trace.overhead_ratio`` compares with the untraced
    ``base`` run: the regeneration wall for a figure, and for the
    service, whose wall is fixed by its send schedule, the summed time
    jobs spent running.
    """
    counts = engine["counts"]
    self_s = engine["self_s"]
    incl = engine["incl"]
    m: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    m["des.core.events"] = counts.get("des.core.events", 0)
    m["des.core.processes"] = counts.get("des.core.processes", 0)
    m["des.bandwidth.flows"] = counts.get("des.bandwidth.flows", 0)
    m["des.bandwidth.recomputes"] = counts.get("solver.recomputes", 0)
    m["des.bandwidth.flows_solved"] = counts.get("solver.flows_solved", 0)
    m["des.bandwidth.fast_grant_ratio"] = _ratio(
        counts.get("solver.fast_grants", 0),
        counts.get("solver.recomputes", 0))
    m["des.bandwidth.tick_useful_ratio"] = _ratio(
        counts.get("des.bandwidth.ticks_useful", 0),
        counts.get("des.bandwidth.ticks", 0))
    for name in ("mpi.collectives", "mpi.p2p", "storage.files_created",
                 "storage.metadata_ops", "storage.lock_acquires",
                 "core.writes", "core.persists"):
        m[name] = counts.get(name, 0)
    for layer in ("des.core", "des.bandwidth", "mpi", "storage", "core",
                  "harness"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["harness.build_s"] = incl.get("harness.build_s", 0.0)
    m["trace.unattributed_s"] = self_s.get("unattributed", 0.0)
    if workload == SERVICE:
        parent = run["trace"]
        m["cache.hit_ratio"] = _ratio(
            parent["counts"].get("cache.hits", 0),
            parent["counts"].get("cache.hits", 0)
            + parent["counts"].get("cache.misses", 0))
        m["cache.get_s"] = parent["incl"].get("cache.get_s", 0.0)
        m["cache.put_s"] = parent["incl"].get("cache.put_s", 0.0)
        series = _service_latencies(run)
        m["service.queue_wait_p50_s"] = statistics.median(
            series["queue_wait"])
        m["service.run_p50_s"] = statistics.median(series["run"])
        m["service.http_p50_s"] = statistics.median(run["http_s"])
        m["service.dedup_joins"] = run["dedup_joins"]
        m["service.rejections"] = run["rejections"]
        m["loadgen.late_p90_s"] = p90(series["late"])
        m["trace.overhead_ratio"] = _ratio(
            sum(series["run"]), sum(_service_latencies(base)["run"]))
    else:
        m["trace.overhead_ratio"] = _ratio(run["regens"][0]["wall_s"],
                                           base["regens"][0]["wall_s"])
    return m


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweeps without REPRO_FAST, for the "
                             "benchmark's own test; not a measurement")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no engine sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    state = os.path.join(ROOT, ".perfbench")
    scratch = os.path.join(state, f"run-{os.getpid()}")
    os.makedirs(scratch)
    opts = {"workload": args.workload, "seed": args.seed, "cpu": WORK_CPU,
            "server_cpu": SERVER_CPU,
            "seconds": args.seconds, "smoke": args.smoke,
            "deadline": time.monotonic() + RUN_TIMEOUT,
            "scratch": scratch, "trace_dir": os.path.join(state, "traces")}
    try:
        env = child_env(args.smoke)
        info = provenance(env)
        measure = traced if args.trace else timed
        with SpeedProbe() as probe:
            metrics, attempted, failed, problems, raw = measure(
                args, env, opts, probe)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"provenance: {json.dumps(info, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted={attempted} failed={failed} "
          f"failed_ratio={_ratio(failed, attempted):.4f} ratio")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    if raw:
        print("unscaled: " + " ".join(f"{name}={value:.6g}"
                                      for name, value in raw.items()))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
