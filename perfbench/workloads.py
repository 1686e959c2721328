"""The benchmark's workloads, run inside one fresh interpreter each.

``python -m perfbench.workloads '<json options>'`` starts the workload,
prints ``READY`` once it is set up (the parent times interpreter start to
that line as one ``setup_s`` sample), measures, and prints one JSON
document as its last line. With ``"mode": "ready"`` it stops after
``READY``. :mod:`perfbench.run` drives it and never imports ``repro``.

Workloads and why each exists:

``fig2_kraken``
    Fig. 2 regenerated cold in ``REPRO_FAST`` mode, serially, sweep cache
    off: Kraken 576 and 1152 cores x file-per-process / collective /
    Damaris plus the 32 MB-stripe collective point. The per-flow max-min
    solve in ``des.bandwidth`` and the MPI-IO model dominate it, so
    solver, kernel and MPI changes show here.
``fig7_dedicated``
    Fig. 7 regenerated cold the same way: Kraken 576 and Grid'5000 240
    cores x Damaris plain / scheduler / gzip / gzip+scheduler, two write
    phases. Event dispatch (``des.core``) and the Damaris model dominate
    and the solve is small, so it is the control on which a solver-only
    change must not move, and where scheduler changes show.
``service_tenants``
    An in-process ``SweepService`` over real HTTP with one pool worker, a
    fresh on-disk ``ResultCache`` per run and the stock ``TenantPolicy``.
    Three tenants send jobs of 1-2 real specs in a single-process open
    loop. It is the only workload through ``service``, ``cache`` and
    ``experiments.backends``, and it uses the cache both ways: reads on
    hits and in-flight joins, writes on misses.

A *job* is a service submission, or one sweep point of a figure. A
job's latency runs from when it was due to be sent to its result; a
figure driver hands its whole sweep over at once, so a point's latency
runs from the sweep's start to that point's row.

Steadiness choices, measured on a 2-CPU host:

* Times are scaled by the speed of the CPU they ran on
  (:class:`perfbench.run.SpeedProbe`). This host's speed swings by the
  second and per CPU: an identical pure-Python loop takes 0.16-0.27 s,
  and the two CPUs' speeds, averaged per second, correlate by 0.12. Over
  minutes the whole host drifts too: five Fig. 2 runs in a row took
  17.9, 19.7, 21.4, 21.8 and 23.8 s. No median within a run removes
  that; scaling does (five runs each, interquartile range over median,
  unscaled then scaled: Fig. 2 wall 0.16 then 0.05, Fig. 7 wall 0.21
  then 0.05). A probe on the *other* CPU did not track the work (Fig. 2
  wall 0.105 unscaled, 0.108 scaled), so the work is pinned to one CPU
  and the probe samples that CPU, by its own CPU time.
* Figures regenerate at least twice per run and report the mean, so
  every point is timed more than once.
* Fixed gaps between sends, not Poisson arrivals. At 1.0 jobs/s Poisson,
  three runs gave p50 0.32-0.41 s and p90 0.67-0.94 s; at 1.5 jobs/s with
  fixed gaps, p50 0.30-0.33 s and p90 0.60-0.65 s.
* A fixed shape of load, repeated in rounds; the seed only sets the
  specs' own seeds. Jobs drawn at random per seed (sizes, kinds and
  repeats) gave p50 0.78-0.91 s over three seeds, a shuffled fixed mix
  0.50-0.74 s, the fixed pattern 0.41-0.45 s (p90 0.79-0.92 s).
* Job sizes cycle 1, 1, 2. With one- and two-spec jobs alternating, the
  median job sits on the boundary between the two groups and jumps
  between them from run to run; with two thirds single-spec jobs it lies
  inside that group, and p90 inside the two-spec group.
* Every spec is 0.25-0.6 s of engine work; 0.1 s jobs drifted 12 %.
  Specs whose cost swings with their own seed (Grid'5000 96-core
  collective: 0.18-0.39 s) are left out of the menu.
* 1.25 jobs/s keeps the one pool worker about half busy: jobs waited at
  most 4 ms in the queue, so a job's latency is its own compute and
  scales with the host's speed as the probe does.
* The generator uses two threads and at most two connections in one
  process, pinned with the server to the other CPU; the pool has one
  worker, so the benchmark never asks for more CPUs than the host has.
* 1.25 jobs/s over three tenants stays far inside the stock
  ``TenantPolicy`` (4 open jobs, 50 specs/s per tenant), so nothing is
  rejected: the run measures service, not admission control.
* Completion is read from each job's ``finished_at``. The server runs in
  this process on the same monotonic clock, so no polling delay of a
  two-connection client is added to the latency.
* Figure point latencies count from the sweep's start: the median single
  point (about 1.6 s on Fig. 2) varied by +-20 % between runs, the time
  to the median point's row by about as much as the whole figure.
"""

from __future__ import annotations

import json
import os
import queue
import resource
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

# Figure workload → (driver name in repro.experiments.figures, smoke
# keyword arguments). The smoke sizes run without REPRO_FAST.
FIGURES = {
    "fig2_kraken": ("fig2_write_phase_kraken", {"scales": (48,)}),
    "fig7_dedicated": ("fig7_spare_strategies",
                       {"kraken_cores": 48, "grid5000_cores": 24}),
}
SERVICE = "service_tenants"
WORKLOADS = tuple(FIGURES) + (SERVICE,)

#: (preset, cores, strategy kind, write phases): each 0.25-0.6 s of
#: engine work, with the write phases picked per platform to get there
#: and specs whose cost swings widely with their own seed left out.
_SPEC_MENU = (
    ("grid5000", 48, "fpp", 2),
    ("kraken", 144, "collective", 2),
    ("grid5000", 96, "damaris", 1),
    ("kraken", 144, "fpp", 1),
    ("grid5000", 48, "collective", 3),
    ("kraken", 144, "damaris", 3),
    ("grid5000", 96, "fpp", 1),
    ("grid5000", 48, "damaris", 2),
)
_TENANTS = ("alice", "bob", "carol")
_RATE = 1.25           # jobs per second, all tenants together
_SIZES = (1, 1, 2)     # specs per job, cycled
_REPEAT_EVERY = 4      # every 4th spec repeats one of another tenant
#: Jobs per round: the load shape repeats every round, so that a run of
#: any number of rounds offers the same mix, and a traced run sends one.
#: A multiple of the tenant and size cycles.
ROUND_JOBS = 12
ROUND_S = ROUND_JOBS / _RATE
#: Least figure regenerations per timed run, so every point repeats.
MIN_REGENS = 2
#: Warms the pool before timing; its size is outside the menu, so it is
#: never a cache hit for a measured job.
_WARM_SPEC = {"preset": "grid5000", "ncores": 24,
              "strategy": {"kind": "damaris"}, "seed": 0, "write_phases": 1}


def service_schedule(seed: int, seconds: float
                     ) -> List[Tuple[str, List[Dict[str, Any]]]]:
    """The ``(tenant, specs)`` jobs sent in ``seconds`` at the fixed rate.

    The load comes in rounds of :data:`ROUND_JOBS` jobs that all have
    the same shape: tenants take turns, job sizes cycle through
    ``_SIZES``, fresh specs cycle through ``_SPEC_MENU`` from its start,
    and every ``_REPEAT_EVERY``-th spec of a round repeats the latest
    spec of another tenant in that round. A run holds whole rounds, or
    one short round when ``seconds`` is too short for a whole one. The
    seed sets the specs' own seeds, and no spec seed repeats across
    rounds, so every round computes fresh cache keys and different
    simulated noise while offering the same work in the same order.
    """
    count = max(1, int(seconds * _RATE))
    if count >= ROUND_JOBS:
        count -= count % ROUND_JOBS
    jobs = []
    fresh = 0
    for i in range(count):
        slot = i % ROUND_JOBS
        if slot == 0:
            last: Dict[str, Dict[str, Any]] = {}
            spec_slot = menu = 0
        tenant = _TENANTS[slot % len(_TENANTS)]
        specs: List[Dict[str, Any]] = []
        for _ in range(_SIZES[slot % len(_SIZES)]):
            spec_slot += 1
            other = [last[t] for t in _TENANTS if t != tenant and t in last]
            if spec_slot % _REPEAT_EVERY == 0 and other:
                spec = other[-1]
            else:
                preset, ncores, kind, phases = \
                    _SPEC_MENU[menu % len(_SPEC_MENU)]
                spec = {"preset": preset, "ncores": ncores,
                        "strategy": {"kind": kind},
                        "seed": seed * 1000 + fresh, "write_phases": phases}
                fresh += 1
                menu += 1
                last[tenant] = spec
            specs.append(spec)
        jobs.append((tenant, specs))
    return jobs


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _ready() -> None:
    print("READY", flush=True)


def _setup_engine() -> None:
    """Imports, preset build and kernel load: what every workload needs
    before its first point."""
    from repro.des.kernels import KERNEL_COMPILED, compiled_kernel, \
        resolve_kernel
    from repro.experiments import figures  # noqa: F401
    from repro.experiments.specs import PRESETS

    for factory in PRESETS.values():
        factory()
    if resolve_kernel(None) == KERNEL_COMPILED:
        compiled_kernel()


# ---------------------------------------------------------------------- #
# figure workloads
# ---------------------------------------------------------------------- #
def run_figure(opts: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments import figures

    from perfbench import layers

    _setup_engine()
    _ready()
    if opts["mode"] == "ready":
        return {}
    driver_name, smoke_kwargs = FIGURES[opts["workload"]]
    driver = getattr(figures, driver_name)
    kwargs = dict(smoke_kwargs) if opts.get("smoke") else {}
    traced = opts["mode"] == "traced"
    original = figures.run_spec
    starts: List[float] = []
    ends: List[float] = []

    def run_point(spec: Dict[str, Any]) -> Any:
        starts.append(time.perf_counter())
        try:
            if traced:
                return layers.TRACER.run_job(spec["trace_label"], original,
                                             spec)
            return original(spec)
        finally:
            ends.append(time.perf_counter())

    # The figure driver looks run_spec up when it builds its sweep tasks,
    # so the per-point timer goes in that module's namespace.
    run_point.__qualname__ = original.__qualname__
    run_point.__module__ = original.__module__
    figures.run_spec = run_point
    if traced:
        layers.install()
    regens = []
    began = time.perf_counter()
    try:
        while True:
            del starts[:], ends[:]
            if traced:
                layers.TRACER.state()  # the traced window opens here
            window = time.perf_counter()
            report = driver(seed=opts["seed"], **kwargs)
            end = time.perf_counter()
            # A point's latency runs from the sweep's start, when the
            # driver hands every point over at once, to its result.
            # Times on the monotonic clock every process shares, so that
            # the parent can match them with its samples of host speed.
            regens.append({"start": starts[0], "end": end,
                           "wall_s": end - starts[0],
                           "window_s": end - window,
                           "points": list(zip(starts, ends)),
                           "rows": report.rows})
            # Stop when one more regeneration would end more than half
            # of one past the run's seconds.
            elapsed = end - began
            if traced or (len(regens) >= opts.get("least", MIN_REGENS)
                          and elapsed + 0.5 * elapsed / len(regens)
                          > opts["seconds"]):
                break
        out: Dict[str, Any] = {"regens": regens}
        if traced:
            out["trace"] = layers.TRACER.totals()
            _write_trace(opts, layers.TRACER.jobs, layers.TRACER.spans())
    finally:
        figures.run_spec = original
        if traced:
            layers.uninstall()
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def _write_trace(opts: Dict[str, Any], jobs: Dict[str, Any],
                 spans: List[Dict[str, Any]]) -> None:
    """Per-job aggregates and spans of the traced run, written at its end."""
    os.makedirs(opts["trace_dir"], exist_ok=True)
    path = os.path.join(opts["trace_dir"], f"{opts['workload']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs, "spans": spans}, fh)


# ---------------------------------------------------------------------- #
# service workload
# ---------------------------------------------------------------------- #
def _parse_metrics(text: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


def _metric_sum(metrics: Dict[str, float], name: str) -> float:
    """A sample, or a family summed over its labels."""
    return sum(value for key, value in metrics.items()
               if key == name or key.startswith(name + "{"))


def run_service(opts: Dict[str, Any]) -> Dict[str, Any]:
    from repro.cache import ResultCache
    from repro.service.errors import ServiceError
    from repro.service.testing import ServiceFixture

    from perfbench import layers

    _setup_engine()
    traced = opts["mode"] == "traced"
    # Every service process gets its own empty cache (and trace) dir.
    scratch = tempfile.mkdtemp(dir=opts["scratch"])
    trace_dir = os.path.join(scratch, "worker-traces")
    if traced:
        os.makedirs(trace_dir, exist_ok=True)
        os.environ["PERFBENCH_TRACE_DIR"] = trace_dir
        layers.install()
    cache = ResultCache(os.path.join(scratch, "cache"))
    fixture = ServiceFixture(workers=1, cache=cache,
                             runner=pinned_service_spec)
    fixture.start()
    try:
        warm = fixture.client(tenant="warmup")
        warm.wait(warm.submit([_WARM_SPEC])["job_id"], timeout=60)
        _ready()
        if opts["mode"] == "ready":
            return {}
        if traced:
            for name in os.listdir(trace_dir):
                os.remove(os.path.join(trace_dir, name))
            layers.TRACER.reset()
        before = _parse_metrics(fixture.client().metrics())
        out = _open_loop(fixture, service_schedule(opts["seed"],
                                                   opts["seconds"]),
                         ServiceError)
        after = _parse_metrics(fixture.client().metrics())
    finally:
        fixture.stop()
    def delta(name: str) -> float:
        return _metric_sum(after, name) - _metric_sum(before, name)

    out["rejections"] = delta("repro_rejections_total")
    # Specs served without compute are store hits or in-flight joins.
    out["dedup_joins"] = (delta('repro_specs_total{source="cache"}')
                          - delta('repro_cache_events_total{event="hits"}'))
    if traced:
        out["trace"] = layers.TRACER.totals()
        out["worker_jobs"] = _load_worker_jobs(trace_dir)
        spans = layers.TRACER.spans()
        spans.extend(_job_spans(out["records"], out["worker_jobs"]))
        for digest, job in out["worker_jobs"].items():
            for span in job.pop("spans"):
                span["job"] = job.get("service_job", digest)
                spans.append(span)
        _write_trace(opts, out["worker_jobs"], spans)
        layers.uninstall()
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def _job_spans(records: List[Dict[str, Any]],
               worker_jobs: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One span per service job, from its due time to its result, and
    the job each computed spec ran for (the first to send it)."""
    from perfbench import layers

    offset = time.perf_counter() - time.monotonic()
    spans = []
    for record in records:
        snap = record.get("snapshot")
        if not snap:
            continue
        spans.append({"job": snap["job_id"], "span": 0, "parent": 0,
                      "name": f"service job ({record['tenant']})",
                      "layer": "service", "start": record["due"] + offset,
                      "end": snap["finished_at"] + offset})
        for spec in record["specs"]:
            job = worker_jobs.get(layers.spec_digest(spec))
            if job is not None:
                job.setdefault("service_job", snap["job_id"])
    return spans


def _load_worker_jobs(trace_dir: str) -> Dict[str, Any]:
    jobs = {}
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            jobs[name.split("-")[0]] = json.load(fh)
    return jobs


def _open_loop(fixture: Any, schedule: List[Tuple[str, List[Dict]]],
               service_error: type) -> Dict[str, Any]:
    """Send every job at its fixed due time; collect every result.

    One thread sends on schedule while a second fetches results in send
    order, so at most two connections are open at once.
    """
    gap = 1.0 / _RATE
    records: List[Dict[str, Any]] = []
    http_s: List[float] = []
    pending: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()
    errors: List[BaseException] = []

    def collect() -> None:
        client = fixture.client()
        try:
            while True:
                record = pending.get()
                if record is None:
                    return
                if "job_id" not in record:
                    continue
                client.wait(record["job_id"], timeout=120.0, poll=5.0)
                start = time.perf_counter()
                try:
                    record["result"] = client.result(record["job_id"])
                except service_error as exc:
                    record["error"] = f"{type(exc).__name__}: {exc}"
                http_s.append(time.perf_counter() - start)
                record["snapshot"] = client.status(record["job_id"])
        except Exception as exc:  # re-raised by the sending thread
            errors.append(exc)

    collector = threading.Thread(target=collect, name="collector",
                                 daemon=True)
    collector.start()
    sender = fixture.client()
    t0 = time.monotonic() + 0.05
    try:
        for i, (tenant, specs) in enumerate(schedule):
            due = t0 + i * gap
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            record: Dict[str, Any] = {"tenant": tenant, "specs": specs,
                                      "due": due, "sent": time.monotonic()}
            start = time.perf_counter()
            try:
                record["job_id"] = sender.submit(specs,
                                                 tenant=tenant)["job_id"]
            except service_error as exc:
                record["error"] = f"rejected: {type(exc).__name__}: {exc}"
            http_s.append(time.perf_counter() - start)
            records.append(record)
            pending.put(record)
    finally:
        pending.put(None)
        collector.join(timeout=150.0)
    if errors:
        raise errors[0]
    if collector.is_alive():
        raise RuntimeError("result collector did not finish in time")
    return {"t0": t0, "records": records, "http_s": http_s}


def pinned_service_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The service's pool runner, on the workload's CPU: the stock
    :func:`repro.service.worker.run_service_spec`, or its traced form in
    a traced run."""
    cpu = int(os.environ["PERFBENCH_WORK_CPU"])
    if os.sched_getaffinity(0) != {cpu}:
        os.sched_setaffinity(0, {cpu})
    if os.environ.get("PERFBENCH_TRACE_DIR"):
        from perfbench import layers
        return layers.traced_service_spec(spec)
    from repro.service.worker import run_service_spec
    return run_service_spec(spec)


def _pin(opts: Dict[str, Any]) -> None:
    """Figures run on the workload's CPU. The service computes there (in
    its pool worker, see :func:`pinned_service_spec`) and serves HTTP on
    the server's CPU. The parent samples the speed of both."""
    if opts["workload"] == SERVICE:
        os.environ["PERFBENCH_WORK_CPU"] = str(opts["cpu"])
        os.sched_setaffinity(0, {opts["server_cpu"]})
    else:
        os.sched_setaffinity(0, {opts["cpu"]})


def main(argv: List[str]) -> int:
    opts = json.loads(argv[1])
    _pin(opts)
    if opts["workload"] == SERVICE:
        out = run_service(opts)
    else:
        out = run_figure(opts)
    if opts["mode"] != "ready":
        print(json.dumps(out))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
