"""Sharded-solver storm benchmark with a machine-readable baseline.

One scenario, ``sharded_storm``: a 100k-flow *weakly coupled* mega
component. Ten groups of forty staggered resources each carry 125
rate-cap ladder levels (adjacent caps 1 % apart — wider than the 0.5 %
``fairness_slack``, so every level is its own freeze round), and thin
chained bridge flows fuse all 400 resources into a single contention
component. The component-partitioned solver must therefore re-solve
the *whole* ladder — every remaining level times every remaining class
— on each of the ~1000 completion batches. ``REPRO_SOLVER=sharded``
min-cut partitions the component into 10 shards along the thin
bridges; each batch then re-solves only the disturbed shard's own
ladder chunk while the untouched shards are served from the per-shard
result cache.

The bench runs the storm under ``solver="sharded"`` and under the best
single-shard configuration (``solver="component"``, compiled kernel)
and asserts:

- per-flow end-time deviation between the two runs is within
  ``fairness_slack`` (the sharded solver's bounded-approximation
  contract);
- total bytes moved match exactly and every flow completes;
- the sharded run is at least 2x faster (full/--check runs only).

Run directly (not via pytest) to (re)produce the JSON baseline::

    PYTHONPATH=src python benchmarks/bench_sharded_storm.py          # full
    PYTHONPATH=src python benchmarks/bench_sharded_storm.py --smoke  # CI
    PYTHONPATH=src python benchmarks/bench_sharded_storm.py --check  # CI

The full run writes ``benchmarks/BENCH_sharded_storm.json`` with wall
times, scenario invariants and the deterministic shard counters
(sharded ticks, shard solves, cache hits, rejects, fallbacks) so later
PRs regress against both speed and partition behaviour. ``--smoke``
shrinks the storm, skips the speedup floor and does **not** touch the
baseline. ``--check`` runs the full storm and compares against the
committed baseline: counters and invariants must match exactly, wall
times may regress at most ``--tolerance`` (default 0.10, or
``REPRO_BENCH_TOLERANCE``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_sharded_storm.json")

#: Geometric rate-cap ladder: adjacent levels 1 % apart, deliberately
#: wider than the 0.5 % fairness slack so freeze rounds cannot batch
#: across levels — the global solve pays one round per remaining level.
_LADDER = 1.01
_BASE_CAP = 1e5
_SLACK = 0.005


def _run_sharded_storm(solver: str, groups: int, res_per_group: int,
                       classes_per_res: int, mult: int, kernel: str,
                       shards: int):
    """One storm run. Every resource in group ``g`` carries
    ``classes_per_res`` ladder levels (``mult`` identical writers per
    level) from the group's own contiguous ladder chunk; chained bridge
    flows (tiny rate cap) fuse consecutive resources — and hence all
    groups — into one component. The link capacity leaves 20 % headroom
    over the heaviest group, so rates are ladder-determined and the
    partition's bounded approximation is exact here."""
    import hashlib

    import numpy as np

    from repro.des import Simulator
    from repro.des.bandwidth import FlowNetwork

    ncls = classes_per_res
    loads = [mult * _BASE_CAP * _LADDER ** (g * ncls)
             * sum(_LADDER ** w for w in range(ncls))
             for g in range(groups)]
    cap = 1.2 * max(loads)
    sim = Simulator()
    net = FlowNetwork(sim, solver=solver, fairness_slack=_SLACK,
                      kernel=kernel, shards=shards)
    links = [net.add_capacity(f"r{g}.{r}", cap)
             for g in range(groups) for r in range(res_per_group)]
    flows = []
    for g in range(groups):
        for r in range(res_per_group):
            link = links[g * res_per_group + r]
            for w in range(ncls):
                rate_cap = _BASE_CAP * _LADDER ** (g * ncls + w)
                for _m in range(mult):
                    flows.append(net.transfer([link], 9e6,
                                              rate_cap=rate_cap))
    for i in range(len(links) - 1):
        flows.append(net.transfer([links[i], links[i + 1]], 2e6,
                                  rate_cap=2e4))
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
    return invariants, ends, elapsed, net.solver_stats


def bench_sharded_storm(groups: int = 10, res_per_group: int = 40,
                        classes_per_res: int = 125, mult: int = 2,
                        shards: int = 10,
                        require_speedup: bool = True):
    """Weakly coupled mega component: sharded vs best single-shard.

    The single-shard reference is the component solver on the compiled
    kernel — the fastest configuration that existed before sharding.
    The asserted >= 2x is the tentpole claim of the sharded solver;
    the per-flow deviation bound is its correctness contract."""
    from repro.des.kernels import kernel_status

    kernel = "compiled"
    if kernel_status() == "unavailable":
        # No C compiler: the deviation contract and the shard counters
        # are still checkable on the python kernel, the speedup floor
        # is not (both sides would just be python-bound).
        assert not require_speedup, (
            "sharded_storm needs the compiled kernel (a C compiler) "
            "for the full/--check run")
        kernel = "python"

    import numpy as np

    shr, ends_shr, wall_shr, stats = _run_sharded_storm(
        "sharded", groups, res_per_group, classes_per_res, mult,
        kernel, shards)
    single, ends_single, wall_single, _ = _run_sharded_storm(
        "component", groups, res_per_group, classes_per_res, mult,
        kernel, shards)

    assert shr["completed"] == shr["flows"], "sharded storm flows lost"
    assert single["completed"] == single["flows"], "reference flows lost"
    assert shr["bytes_moved"] == single["bytes_moved"], (
        f"bytes diverged: sharded {shr['bytes_moved']} != "
        f"single-shard {single['bytes_moved']}")
    # Bounded-approximation contract: every flow's completion time under
    # the sharded solver stays within fairness_slack of the exact run.
    deviation = float(np.max(np.abs(ends_shr - ends_single)
                             / np.maximum(ends_single, 1e-12)))
    assert deviation <= _SLACK, (
        f"per-flow end-time deviation {deviation:.3g} exceeds "
        f"fairness_slack {_SLACK}")
    assert stats["sharded_ticks"] > 0, (
        "sharded solver never engaged — the storm no longer exercises "
        "the partitioned path")

    speedup = wall_single / wall_shr
    print(f"sharded_storm: sharded {wall_shr:.3f} s vs single-shard "
          f"{wall_single:.3f} s ({speedup:.1f}x), max end-time "
          f"deviation {deviation:.3g}")
    if require_speedup:
        assert speedup >= 2.0, (
            f"sharded solver only {speedup:.2f}x faster than the "
            f"single-shard compiled reference (expected >= 2x on the "
            f"{shr['flows']}-flow weakly coupled storm)")

    result = dict(shr)
    result["wall_s"] = round(wall_shr, 3)
    result["wall_single_s"] = round(wall_single, 3)
    result["max_end_deviation"] = deviation
    # Deterministic partition counters: any change in how ticks are
    # served (shard solves vs cache hits vs rejects) fails --check.
    result["shards"] = stats["shards"]
    result["sharded_ticks"] = stats["sharded_ticks"]
    result["shard_solves"] = stats["shard_solves"]
    result["shard_cache_hits"] = stats["shard_cache_hits"]
    result["shard_rejects"] = stats["shard_rejects"]
    result["shard_fallbacks"] = stats["shard_fallbacks"]
    result["shard_cut_bytes"] = stats["shard_cut_bytes"]
    return result


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return repr(value)


def check_against_baseline(results: dict, tolerance: float) -> int:
    """Compare a full run against the committed baseline.

    Invariant fields must match exactly (or near-exactly for float
    accumulators); wall times (any key starting with ``wall``) may
    regress at most ``tolerance`` (relative). On any failure the whole
    per-key comparison is printed as an old/new/delta table. Returns
    the number of failures."""
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)["results"]
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
            if key.startswith("wall"):
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
        for label, old, new, delta, _status in rows:
            print(f"check ok   {label}: {new} (baseline {old}, {delta})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken storm; check the deviation "
                             "contract only, do not rewrite the baseline")
    parser.add_argument("--check", action="store_true",
                        help="full storm; compare wall times, counters "
                             "and invariants against the committed "
                             "baseline instead of rewriting it")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "REPRO_BENCH_TOLERANCE", "0.10")),
                        help="relative wall-time regression allowed by "
                             "--check (default 0.10)")
    args = parser.parse_args(argv)

    if args.smoke:
        results = {
            "sharded_storm": bench_sharded_storm(
                groups=4, res_per_group=8, classes_per_res=16, mult=2,
                shards=4, require_speedup=False),
        }
    else:
        results = {
            "sharded_storm": bench_sharded_storm(),
        }

    for name, result in results.items():
        print(f"{name}: {json.dumps(result)}")

    if args.check:
        failures = check_against_baseline(results, args.tolerance)
        if failures:
            print(f"check FAILED ({failures} deviation(s) from "
                  f"{BASELINE_PATH})")
            return 1
        print("check ok")
    elif not args.smoke:
        payload = {
            "bench": "sharded_storm",
            "command":
                "PYTHONPATH=src python benchmarks/bench_sharded_storm.py",
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
