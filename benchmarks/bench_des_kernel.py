"""DES kernel microbenchmarks with a machine-readable baseline.

Seven scenarios exercise the simulator's hot paths:

- ``flow_storm``: a 4096-flow barrier-synchronised write storm (12
  writers per NIC, 336 storage targets with slightly staggered
  capacities) — dominated by ``FlowNetwork._maxmin_rates``;
- ``component_storm``: a weak-scaling storm of 256 *resource-disjoint*
  nodes (private NIC + private staggered target, several sequential
  write rounds per writer) run under both ``FlowNetwork(solver=...)``
  modes, ``component`` and the ``global`` reference — the
  scenario the component-partitioned solver exists for: one node's
  completion must re-solve one node, not 256. The bench asserts the two
  solvers produce bit-identical invariants and that the component
  solver is at least 2x faster;
- ``mega_storm``: a 100k-flow barrier storm whose contention graph is
  *fused into one component* by a shared (non-binding) fabric link, so
  each of the 192 staggered completion batches re-solves every
  remaining flow — the water-filling solve itself dominates. Runs the
  pure-python kernel and the compiled kernel, each timed as the median
  of ``MEGA_STORM_RUNS`` runs; asserts both produce bit-identical
  results and that the compiled kernel is at least 5x faster
  end-to-end;
- ``heap_churn``: 2000 staggered short flows through one shared link —
  dominated by event-queue traffic and completion-tick scheduling;
- ``collective_phase``: one 1-phase Kraken collective-I/O spec at 4608
  ranks (576 under ``--smoke``) — the two-phase MPI-IO model at paper
  scale, where per-rank passes over all ranks would cost O(P²);
- ``fig2_sweep``: the full Fig. 2 driver in ``REPRO_FAST`` mode —
  the end-to-end pipeline a paper figure actually pays for; its
  ``rows_digest`` pins every figure row;
- ``fig7_sweep``: the same for Fig. 7, whose cost is event
  dispatch on the Damaris path (per-variable client writes,
  dedicated-core persists, stripe-segment chains) rather than the
  bandwidth solve.

Run directly (not via pytest) to (re)produce the JSON baseline::

    PYTHONPATH=src python benchmarks/bench_des_kernel.py            # full
    PYTHONPATH=src python benchmarks/bench_des_kernel.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_des_kernel.py --check    # CI

The full run writes ``benchmarks/BENCH_des_kernel.json`` with wall
times and scenario invariants (completed flows, bytes moved, final
simulated clock) so later PRs can regress against both speed and
results. ``--smoke`` shrinks every scenario and does **not** overwrite
the committed baseline; it only checks the invariants still hold.
``--check`` runs the full scenarios and *compares* against the
committed baseline instead of rewriting it: scenario invariants must
match and wall times must stay within ``--tolerance`` (default 0.10,
or ``REPRO_BENCH_TOLERANCE``) of the recorded values — this is the
guard that tracing hooks stay free when tracing is disabled. The
baseline records the kernel it was taken with (``kernel``). Most
scenarios time the default kernel, so their wall keys are compared only
when the kernel resolves to that one; ``mega_storm`` times each kernel
explicitly, so its two walls are compared on any leg, and so is every
invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_des_kernel.json")

#: Wall keys timed with an explicitly chosen kernel; every other wall
#: key times the default kernel.
EXPLICIT_KERNEL_WALLS = {("mega_storm", "wall_s"),
                         ("mega_storm", "wall_python_s")}

#: ``mega_storm`` times each kernel as the median of this many runs, when
#: recording and when checking: its two walls are the only ones every
#: ``--check`` leg gates, and one run swings by 15 % on a shared host.
MEGA_STORM_RUNS = 3


def bench_flow_storm(nflows: int = 4096):
    """Barrier storm: every writer starts at t=0, 12 per NIC, striped
    over 336 staggered-capacity targets."""
    from repro.des import Simulator
    from repro.des.bandwidth import FlowNetwork

    sim = Simulator()
    net = FlowNetwork(sim)
    nnodes = (nflows + 11) // 12
    nics = [net.add_capacity(f"nic{i}", 1.6e9) for i in range(nnodes)]
    tgts = [net.add_capacity(f"ost{j}", 45e6 * (1 + 1e-3 * j))
            for j in range(336)]
    t0 = time.perf_counter()
    for i in range(nflows):
        net.transfer([nics[i // 12], tgts[(i // 12) % 336]], 9e6)
    sim.run()
    elapsed = time.perf_counter() - t0
    return {
        "wall_s": round(elapsed, 3),
        "flows": nflows,
        "completed": net.completed_flows,
        "bytes_moved": net.total_bytes_moved,
        "sim_time": sim.now,
    }


def _run_component_storm(solver: str, nodes: int, writers: int,
                         rounds: int):
    """One component-storm run: every node owns a private NIC and a
    private (staggered-capacity) target, each writer issues ``rounds``
    sequential transfers, so the contention graph is ``nodes`` disjoint
    components with per-node phase changes at distinct times."""
    from repro.des import Simulator
    from repro.des.bandwidth import FlowNetwork

    sim = Simulator()
    net = FlowNetwork(sim, solver=solver)
    t0 = time.perf_counter()
    for i in range(nodes):
        nic = net.add_capacity(f"nic{i}", 1.6e9)
        tgt = net.add_capacity(f"ost{i}", 45e6 * (1 + 1e-3 * i))

        def writer(nic=nic, tgt=tgt, left=rounds):
            flow = net.transfer([nic, tgt], 9e6)

            def next_round(_evt, nic=nic, tgt=tgt, left=left - 1):
                if left > 0:
                    writer(nic, tgt, left)
            flow.event.callbacks.append(next_round)

        for _w in range(writers):
            writer()
    sim.run()
    elapsed = time.perf_counter() - t0
    invariants = {
        "flows": nodes * writers * rounds,
        "completed": net.completed_flows,
        "bytes_moved": net.total_bytes_moved,
        "sim_time": sim.now,
    }
    return invariants, elapsed, net.solver_stats


def bench_component_storm(nodes: int = 256, writers: int = 12,
                          rounds: int = 4, require_speedup: bool = True):
    """Weak-scaling storm over resource-disjoint nodes, both solvers.

    The component solver must reproduce the forced-global results
    bit-identically (``fairness_slack`` is 0 here) while re-solving only
    the one node a completion touched; the asserted speedup is the
    tentpole claim of the incremental solver."""
    comp, wall_comp, stats = _run_component_storm(
        "component", nodes, writers, rounds)
    glob, wall_glob, _ = _run_component_storm(
        "global", nodes, writers, rounds)
    assert comp == glob, (
        f"solver divergence: component {comp} != global {glob}")
    assert comp["completed"] == comp["flows"], "component storm flows lost"
    speedup = wall_glob / wall_comp
    print(f"component_storm: component {wall_comp:.3f} s vs global "
          f"{wall_glob:.3f} s ({speedup:.1f}x)")
    if require_speedup:
        assert speedup >= 2.0, (
            f"component solver only {speedup:.2f}x faster than global "
            f"(expected >= 2x on {nodes} disjoint components)")
    result = dict(comp)
    result["wall_s"] = round(wall_comp, 3)
    result["wall_global_s"] = round(wall_glob, 3)
    # Deterministic solver counters: any change in how recomputations
    # are served (full vs component vs fast path) fails --check loudly.
    result["component_solves"] = stats["component_solves"]
    result["full_solves"] = stats["full_solves"]
    result["fast_grants"] = stats["fast_grants"]
    result["flows_solved"] = stats["flows_solved"]
    return result


def _run_mega_storm(kernel: str, nnodes: int, ntargets: int,
                    writers: int):
    """One mega-storm run: per-node NICs, staggered shared targets, and
    a huge shared fabric link that never binds but fuses the whole
    network into one contention component — so every completion batch
    dirties (and re-solves) all remaining flows. 192 distinct target
    capacities give 192 freeze rounds per solve and 192 completion
    batches: O(rounds x flows) python work per solve, which is exactly
    the regime the compiled kernel exists for."""
    import hashlib

    import numpy as np

    from repro.des import Simulator
    from repro.des.bandwidth import FlowNetwork

    sim = Simulator()
    net = FlowNetwork(sim, kernel=kernel)
    nics = [net.add_capacity(f"nic{i}", 1.6e9) for i in range(nnodes)]
    tgts = [net.add_capacity(f"ost{j}", 45e6 * (1 + 1e-3 * j))
            for j in range(ntargets)]
    fabric = net.add_capacity("fabric", 1e18)
    flows = []
    for i in range(nnodes):
        res = (nics[i], tgts[i % ntargets], fabric)
        for _w in range(writers):
            flows.append(net.transfer(res, 9e6))
    # Time the simulation run only: flow submission is identical python
    # bookkeeping in every mode and would just dilute the comparison.
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    ends = np.array([flow.end_time for flow in flows])
    invariants = {
        "flows": len(flows),
        "completed": net.completed_flows,
        "bytes_moved": net.total_bytes_moved,
        "sim_time": sim.now,
        "ends_digest": hashlib.blake2b(ends.tobytes(),
                                       digest_size=8).hexdigest(),
    }
    return invariants, elapsed, net.solver_stats


def _median_mega_storm(kernel: str, nnodes: int, ntargets: int,
                       writers: int):
    """:func:`_run_mega_storm` ``MEGA_STORM_RUNS`` times: the invariants
    (equal in every run), the median wall and the solver counters."""
    invariants, wall, stats = _run_mega_storm(kernel, nnodes, ntargets,
                                              writers)
    walls = [wall]
    for _ in range(MEGA_STORM_RUNS - 1):
        again, wall, _stats = _run_mega_storm(kernel, nnodes, ntargets,
                                              writers)
        assert again == invariants, (
            f"mega_storm not deterministic: {again} != {invariants}")
        walls.append(wall)
    return invariants, statistics.median(walls), stats


def bench_mega_storm(nnodes: int = 8334, ntargets: int = 192,
                     writers: int = 12, require_speedup: bool = True):
    """100k-flow fused storm: compiled kernel vs python.

    The compiled run must reproduce the python results bit-identically
    (``fairness_slack`` is 0 here); the asserted >= 5x is the tentpole
    claim of the compiled water-filling kernel."""
    from repro.des.kernels import kernel_status

    py, wall_py, _ = _median_mega_storm("python", nnodes, ntargets,
                                        writers)
    if kernel_status() == "unavailable":
        # No C compiler: run the python kernel and skip the comparison
        # rather than failing environments the fallback path exists for.
        assert not require_speedup, (
            "mega_storm needs the compiled kernel (a C compiler) "
            "for the full/--check run")
        print(f"mega_storm: python {wall_py:.3f} s "
              f"(compiled kernel unavailable, comparison skipped)")
        result = dict(py)
        result["wall_python_s"] = round(wall_py, 3)
        return result

    comp, wall_comp, stats = _median_mega_storm(
        "compiled", nnodes, ntargets, writers)
    assert comp == py, (
        f"kernel divergence: compiled {comp} != python {py}")
    assert py["completed"] == py["flows"], "mega storm flows lost"
    speedup = wall_py / wall_comp
    print(f"mega_storm: compiled {wall_comp:.3f} s vs python "
          f"{wall_py:.3f} s ({speedup:.1f}x)")
    if require_speedup:
        assert speedup >= 5.0, (
            f"compiled kernel only {speedup:.2f}x faster than python "
            f"(expected >= 5x on the fused {py['flows']}-flow storm)")
    result = dict(py)
    result["wall_s"] = round(wall_comp, 3)
    result["wall_python_s"] = round(wall_py, 3)
    # Deterministic counters: solves must all hit the compiled kernel.
    result["full_solves"] = stats["full_solves"]
    result["kernel_solves"] = stats["kernel_solves"]
    return result


def bench_heap_churn(nflows: int = 2000):
    """Staggered arrivals through one shared link: stresses the event
    heap and the reschedulable completion tick (each arrival used to
    leak one stale tick event into the heap)."""
    from repro.des import Simulator
    from repro.des.bandwidth import FlowNetwork

    sim = Simulator()
    net = FlowNetwork(sim)
    link = net.add_capacity("link", 1e9)
    peak = [0]
    started = [0]

    def arrive():
        started[0] += 1
        net.transfer([link], 5e5)
        if started[0] < nflows:
            # Chain the next arrival so the heap holds only live events:
            # any growth beyond a handful is completion-tick leakage.
            sim.schedule_callback(1e-4, arrive)
        peak[0] = max(peak[0], sim.queue_depth)

    t0 = time.perf_counter()
    sim.schedule_callback(0.0, arrive)
    sim.run()
    elapsed = time.perf_counter() - t0
    return {
        "wall_s": round(elapsed, 3),
        "flows": nflows,
        "completed": net.completed_flows,
        "bytes_moved": net.total_bytes_moved,
        "sim_time": sim.now,
        "peak_heap": peak[0],
    }


def bench_collective_phase(ncores: int = 4608):
    """One write phase of the collective-I/O baseline on Kraken (seed
    42): allgather, alltoallv exchange and aggregator writes of
    ``ncores`` ranks, run through the spec entry point."""
    from repro.experiments.specs import run_spec

    spec = {"preset": "kraken", "ncores": ncores,
            "strategy": {"kind": "collective"}, "seed": 42,
            "write_phases": 1}
    t0 = time.perf_counter()
    result = run_spec(spec)
    elapsed = time.perf_counter() - t0
    return {
        "wall_s": round(elapsed, 3),
        "ncores": ncores,
        "phase_s": result.phases[0].duration,
        "run_time": result.run_time,
    }


def _bench_figure(function_name: str):
    """One figure regenerated in fast mode: wall time, and a digest
    that pins every row it returns."""
    import hashlib

    os.environ["REPRO_FAST"] = "1"
    from repro.experiments import figures

    t0 = time.perf_counter()
    report = getattr(figures, function_name)()
    elapsed = time.perf_counter() - t0
    rows = json.dumps(report.rows, sort_keys=True).encode()
    return {
        "wall_s": round(elapsed, 3),
        "rows": len(report.rows),
        "rows_digest": hashlib.sha256(rows).hexdigest()[:16],
    }


def bench_fig2_sweep():
    """Fig. 2 regenerated end-to-end in fast mode (trimmed scales)."""
    from repro.experiments import figures

    result = _bench_figure("fig2_write_phase_kraken")
    result["scales"] = list(figures.kraken_scales())
    return result


def bench_fig7_sweep():
    """Fig. 7 regenerated end-to-end in fast mode: the Damaris path
    (client writes, dedicated-core persists, stripe segments)."""
    return _bench_figure("fig7_spare_strategies")


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return repr(value)


def check_against_baseline(results: dict, tolerance: float,
                           kernel: str) -> int:
    """Compare a full run, made with ``kernel`` as the default, against
    the committed baseline.

    Invariant fields must match exactly (or near-exactly for float
    accumulators); wall times (any key starting with ``wall``) may
    regress at most ``tolerance`` (relative). A wall of the default
    kernel is skipped when ``kernel`` is not the one the baseline was
    recorded with: the python kernel is several times slower by design.
    On any failure the whole per-key comparison is printed as an
    old/new/delta table — a CI regression must be diagnosable from the
    log alone, not just from its first offending key. Returns the
    number of failures."""
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        recorded_run = json.load(fh)
    baseline = recorded_run["results"]
    baseline_kernel = recorded_run["kernel"]
    rows = []  # (scenario.key, old, new, delta, status)
    failures = 0
    for name, recorded in baseline.items():
        current = results.get(name)
        if current is None:
            rows.append((name, "<recorded>", "<missing>", "", "FAIL"))
            failures += 1
            continue
        for key, expected in recorded.items():
            got = current.get(key)
            label = f"{name}.{key}"
            if got is None:
                rows.append((label, _fmt_value(expected), "<missing>",
                             "", "FAIL"))
                failures += 1
                continue
            if isinstance(expected, (int, float)) \
                    and isinstance(got, (int, float)) and expected != 0:
                delta = f"{100.0 * (got - expected) / expected:+.1f} %"
            elif got == expected:
                delta = "="
            else:
                delta = "!="
            if key.startswith("wall") and kernel != baseline_kernel \
                    and (name, key) not in EXPLICIT_KERNEL_WALLS:
                ok = True
                status = (f"skipped (kernel {kernel}, baseline "
                          f"{baseline_kernel})")
            elif key.startswith("wall"):
                ok = got <= expected * (1.0 + tolerance)
                status = "ok" if ok else f"FAIL (>+{100 * tolerance:.0f} %)"
            elif isinstance(expected, float):
                ok = abs(got - expected) <= 1e-6 * max(1.0, abs(expected))
                status = "ok" if ok else "FAIL"
            else:
                ok = got == expected
                status = "ok" if ok else "FAIL"
            if not ok:
                failures += 1
            rows.append((label, _fmt_value(expected), _fmt_value(got),
                         delta, status))
    if failures:
        widths = [max(len(str(row[col])) for row in rows
                      + [("key", "baseline", "current", "delta", "status")])
                  for col in range(5)]
        header = ("key", "baseline", "current", "delta", "status")
        print(f"check: {failures} deviation(s); full comparison:")
        for row in (header,) + tuple(rows):
            print("  " + "  ".join(str(cell).ljust(width)
                                   for cell, width in zip(row, widths)))
    else:
        for label, old, new, delta, status in rows:
            print(f"check {status:<4} {label}: {new} (baseline {old}, "
                  f"{delta})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken scenarios; check invariants only, "
                             "do not rewrite the baseline")
    parser.add_argument("--check", action="store_true",
                        help="full scenarios; compare wall times and "
                             "invariants against the committed baseline "
                             "instead of rewriting it")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "REPRO_BENCH_TOLERANCE") or "0.10"),
                        help="relative wall-time regression allowed by "
                             "--check (default 0.10)")
    args = parser.parse_args(argv)

    from repro.des.kernels import resolve_kernel
    kernel = resolve_kernel(None)
    if args.smoke:
        results = {
            "flow_storm": bench_flow_storm(nflows=512),
            "component_storm": bench_component_storm(
                nodes=32, writers=4, rounds=2, require_speedup=False),
            "mega_storm": bench_mega_storm(
                nnodes=128, ntargets=16, writers=4, require_speedup=False),
            "heap_churn": bench_heap_churn(nflows=200),
            "collective_phase": bench_collective_phase(ncores=576),
        }
    else:
        results = {
            "flow_storm": bench_flow_storm(),
            "component_storm": bench_component_storm(),
            "mega_storm": bench_mega_storm(),
            "heap_churn": bench_heap_churn(),
            "collective_phase": bench_collective_phase(),
            "fig2_sweep": bench_fig2_sweep(),
            "fig7_sweep": bench_fig7_sweep(),
        }

    for name, result in results.items():
        print(f"{name}: {json.dumps(result)}")

    # Invariants: every flow completes, the residual heap is tiny (the
    # reschedulable tick must not leak one event per recompute).
    storm = results["flow_storm"]
    assert storm["completed"] == storm["flows"], "storm flows lost"
    churn = results["heap_churn"]
    assert churn["completed"] == churn["flows"], "churn flows lost"
    assert churn["peak_heap"] <= 32, (
        f"completion-tick leak: peak heap size {churn['peak_heap']} "
        f"during chained arrivals (expected a handful of live events)")

    if args.check:
        failures = check_against_baseline(results, args.tolerance, kernel)
        if failures:
            print(f"check FAILED ({failures} deviation(s) from "
                  f"{BASELINE_PATH})")
            return 1
        print("check ok")
    elif not args.smoke:
        payload = {
            "bench": "des_kernel",
            "command": "PYTHONPATH=src python benchmarks/bench_des_kernel.py",
            "kernel": kernel,
            "results": results,
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
