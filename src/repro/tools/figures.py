"""Regenerate the paper's tables and figures from the command line.

Usage::

    python -m repro.tools.figures            # list available figures
    python -m repro.tools.figures fig2       # regenerate one
    python -m repro.tools.figures all        # regenerate everything
    REPRO_FAST=1 python -m repro.tools.figures fig4   # trimmed sweep
    python -m repro.tools.figures --parallel 4 all    # 4 worker processes
    python -m repro.tools.figures --trace traces/ fig2   # record traces
    python -m repro.tools.figures --cache all         # reuse cached points
    python -m repro.tools.figures --cache --cache-dir /tmp/c fig4
    python -m repro.tools.figures --solver global fig2   # debug escape hatch
    python -m repro.tools.figures --solver sharded --shards 8 fig4
    python -m repro.tools.figures --kernel python fig4    # numpy solve
    python -m repro.tools.figures faults                  # fault degradation
    python -m repro.tools.figures --faults my_schedule.json faults
    python -m repro.tools.figures --backend remote \\
        --workers nodeA:7401,nodeA:7402 all      # distributed sweep

``--parallel N`` (or ``REPRO_PARALLEL=N`` in the environment) fans the
independent sweep configurations of each driver out over ``N`` worker
processes; results are bit-identical to a serial run.

``--backend serial|process|remote`` (or ``REPRO_BACKEND``) picks the
sweep-execution backend: ``process`` (the default) is the local pool
sized by ``--parallel``; ``remote`` ships cache misses to TCP workers
launched with ``python -m repro.tools.sweepworkerctl serve`` on this or
other machines — ``--workers host:port,host:port`` (or
``REPRO_WORKERS``) says where. Every backend returns bit-identical
results; see the README's "Distributed sweeps" section.

``--trace DIR`` (or ``REPRO_TRACE=DIR``) records a structured trace of
every sweep configuration into ``DIR/<label>.jsonl``; inspect them with
``python -m repro.tools.tracereport``.

``--cache`` (or ``REPRO_CACHE=1``) serves sweep points from the
content-addressed result store in ``--cache-dir`` (``REPRO_CACHE_DIR``,
default ``~/.cache/repro/sweeps``) and writes back the rest; warm
results are bit-identical to cold ones and are invalidated
automatically whenever the ``repro`` source tree changes. ``--no-cache``
forces caching off regardless of the environment. Inspect and maintain
the store with ``python -m repro.tools.cachectl``. A ``--trace`` run
bypasses the cache (trace files are a side effect a hit would skip).

``--solver component|global|sharded`` (or ``REPRO_SOLVER``) picks the
bandwidth-share recomputation strategy: ``component`` (the default)
re-solves only the connected components of the resource-contention
graph touched since the last solve; ``global`` re-solves the whole
network every time — slower, but the reference behaviour to diff
against when debugging (bit-identical at ``fairness_slack=0``);
``sharded`` additionally min-cut-partitions oversized weakly coupled
components into ``--shards N`` sub-networks (``REPRO_SHARDS``, default
4) solved independently, with the cut reconciled to within
``fairness_slack``. The mode and the shard count are folded into cache
keys, so cached points never leak across solvers.

``--kernel compiled|python`` (or ``REPRO_KERNEL``) picks the
water-filling implementation: ``compiled`` runs the C kernel from
:mod:`repro.des.kernels` and is the default when a C compiler is found
(or the kernel is already cached); ``python`` is the numpy solve and the
default otherwise — bit-identical either way, the C kernel several
times faster. The kernel is folded into cache keys alongside the
solver.

``--faults PATH`` (or ``REPRO_FAULTS=PATH``) points the ``faults``
driver at a fault-schedule JSON (see ``examples/fault_schedule.json``
and :mod:`repro.faults`); without it the driver runs the committed
example schedule. The schedule's contents are embedded in every sweep
spec, so cached points are keyed by the exact schedule — changing the
JSON re-runs only the affected points.

Each driver prints the same rows the corresponding bench asserts on and
that EXPERIMENTS.md documents.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict

from repro.experiments import figures

DRIVERS: Dict[str, Callable] = {
    "fig2": figures.fig2_write_phase_kraken,
    "fig3": figures.fig3_blueprint_volume,
    "fig4": figures.fig4_scalability_kraken,
    "fig5": figures.fig5_spare_time,
    "fig6": figures.fig6_throughput_kraken,
    "fig7": figures.fig7_spare_strategies,
    "table1": figures.table1_grid5000,
    "faults": figures.fig_fault_degradation,
    "model": figures.model_breakeven,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--parallel" in argv:
        at = argv.index("--parallel")
        try:
            workers = int(argv[at + 1])
        except (IndexError, ValueError):
            print("--parallel requires an integer worker count",
                  file=sys.stderr)
            return 2
        del argv[at:at + 2]
        # The figure drivers pick this up through executor.run_sweep.
        os.environ["REPRO_PARALLEL"] = str(workers)
    if "--backend" in argv:
        at = argv.index("--backend")
        try:
            backend = argv[at + 1]
        except IndexError:
            print("--backend requires a mode "
                  "(serial|process|remote)", file=sys.stderr)
            return 2
        from repro.experiments.backends import BACKENDS
        if backend not in BACKENDS:
            print(f"--backend must be one of {', '.join(BACKENDS)}, "
                  f"got {backend!r}", file=sys.stderr)
            return 2
        del argv[at:at + 2]
        # executor.run_sweep resolves this via default_backend_name().
        os.environ["REPRO_BACKEND"] = backend
    if "--workers" in argv:
        at = argv.index("--workers")
        try:
            worker_addrs = argv[at + 1]
        except IndexError:
            print("--workers requires host:port[,host:port...] addresses",
                  file=sys.stderr)
            return 2
        if worker_addrs.startswith("-"):
            print("--workers requires host:port[,host:port...] addresses",
                  file=sys.stderr)
            return 2
        del argv[at:at + 2]
        # The remote backend dials these (RemoteBackend falls back to
        # REPRO_WORKERS when constructed without addresses).
        os.environ["REPRO_WORKERS"] = worker_addrs
    if "--trace" in argv:
        at = argv.index("--trace")
        try:
            trace_dir = argv[at + 1]
        except IndexError:
            print("--trace requires an output directory", file=sys.stderr)
            return 2
        if trace_dir.startswith("-"):
            print("--trace requires an output directory", file=sys.stderr)
            return 2
        del argv[at:at + 2]
        # The sweep workers pick this up in specs.run_spec.
        os.environ["REPRO_TRACE"] = trace_dir
    if "--solver" in argv:
        at = argv.index("--solver")
        try:
            solver = argv[at + 1]
        except IndexError:
            print("--solver requires a mode (component|global|sharded)",
                  file=sys.stderr)
            return 2
        if solver not in ("component", "global", "sharded"):
            print(f"--solver must be 'component', 'global' or 'sharded', "
                  f"got {solver!r}", file=sys.stderr)
            return 2
        del argv[at:at + 2]
        # FlowNetwork reads this when each sweep worker builds its machine.
        os.environ["REPRO_SOLVER"] = solver
    if "--shards" in argv:
        at = argv.index("--shards")
        try:
            shards = int(argv[at + 1])
        except (IndexError, ValueError):
            print("--shards requires an integer shard count",
                  file=sys.stderr)
            return 2
        if shards < 1:
            print(f"--shards must be >= 1, got {shards}", file=sys.stderr)
            return 2
        del argv[at:at + 2]
        # FlowNetwork reads this when each sweep worker builds its
        # machine; only the sharded solver acts on it, but it is always
        # folded into cache keys (it changes sharded results).
        os.environ["REPRO_SHARDS"] = str(shards)
    if "--kernel" in argv:
        at = argv.index("--kernel")
        try:
            kernel = argv[at + 1]
        except IndexError:
            print("--kernel requires a mode (compiled|python)",
                  file=sys.stderr)
            return 2
        if kernel not in ("compiled", "python"):
            print(f"--kernel must be 'compiled' or 'python', got {kernel!r}",
                  file=sys.stderr)
            return 2
        del argv[at:at + 2]
        # FlowNetwork reads this when each sweep worker builds its machine.
        os.environ["REPRO_KERNEL"] = kernel
    if "--faults" in argv:
        at = argv.index("--faults")
        try:
            faults_path = argv[at + 1]
        except IndexError:
            print("--faults requires a schedule JSON path", file=sys.stderr)
            return 2
        if faults_path.startswith("-"):
            print("--faults requires a schedule JSON path", file=sys.stderr)
            return 2
        if not os.path.exists(faults_path):
            print(f"--faults: no such file: {faults_path}", file=sys.stderr)
            return 2
        del argv[at:at + 2]
        # figures.fig_fault_degradation loads the schedule from here;
        # the parsed faults land inside each sweep spec, so cache keys
        # fold the schedule contents automatically.
        os.environ["REPRO_FAULTS"] = faults_path
    if "--cache-dir" in argv:
        at = argv.index("--cache-dir")
        try:
            cache_dir = argv[at + 1]
        except IndexError:
            print("--cache-dir requires a directory", file=sys.stderr)
            return 2
        if cache_dir.startswith("-"):
            print("--cache-dir requires a directory", file=sys.stderr)
            return 2
        del argv[at:at + 2]
        os.environ["REPRO_CACHE_DIR"] = cache_dir
    if "--cache" in argv:
        argv.remove("--cache")
        # executor.run_sweep resolves this through cache_from_env().
        os.environ["REPRO_CACHE"] = "1"
    if "--no-cache" in argv:
        argv.remove("--no-cache")
        os.environ["REPRO_CACHE"] = "0"
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("available figures:", ", ".join(sorted(DRIVERS)), "| all")
        return 0
    names = sorted(DRIVERS) if argv[0] == "all" else argv
    unknown = [name for name in names if name not in DRIVERS]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"available: {', '.join(sorted(DRIVERS))}", file=sys.stderr)
        return 2
    for name in names:
        report = DRIVERS[name]()
        print(report.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
