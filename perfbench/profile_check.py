"""One-off cross-check of the layer trace against cProfile.

    python3 perfbench/profile_check.py fig2_kraken fig7_dedicated

For each figure workload, regenerates the figure once under cProfile and
once under the layer trace (:mod:`perfbench.layers`), sums cProfile's
own time per layer (by the module of each function; time in numpy and
builtins goes to the repro function that called it), and prints both
rankings. It exits non-zero unless the layer each workload is chosen for
leads both rankings: ``des.bandwidth`` on ``fig2_kraken`` and
``des.core`` on ``fig7_dedicated``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import time
from collections import defaultdict
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = {"fig2_kraken": "des.bandwidth", "fig7_dedicated": "des.core"}


def _module_of(path: str) -> str:
    src = os.path.join(ROOT, "src") + os.sep
    if not path.startswith(src):
        return ""
    return os.path.splitext(path[len(src):])[0].replace(os.sep, ".") \
        .removesuffix(".__init__")


def profile_layers(driver) -> Dict[str, float]:
    from perfbench.layers import layer_of_module

    profiler = cProfile.Profile()
    profiler.runcall(driver, seed=42)
    stats = pstats.Stats(profiler).stats
    layer_of = {func: layer_of_module(_module_of(func[0])) or ""
                for func in stats}
    out: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        if layer_of[func]:
            out[layer_of[func]] += tottime
            continue
        # numpy / builtins: charge the repro callers, by their share.
        total = sum(entry[2] for entry in callers.values())
        for caller, entry in callers.items():
            share = entry[2] / total if total else 1 / len(callers)
            out[layer_of.get(caller) or "other"] += tottime * share
    return dict(out)


def traced_layers(driver) -> Dict[str, float]:
    from perfbench import layers

    layers.install()
    try:
        layers.TRACER.state()
        driver(seed=42)
        return layers.TRACER.totals()["self_s"]
    finally:
        layers.uninstall()


def _ranking(times: Dict[str, float]) -> str:
    total = sum(times.values()) or 1.0
    return ", ".join(f"{name} {value / total:.0%}" for name, value in
                     sorted(times.items(), key=lambda kv: -kv[1])[:5])


def main(argv) -> int:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_FAST"] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import FIGURES
    from repro.experiments import figures

    ok = True
    for workload in argv[1:] or list(EXPECTED):
        driver = getattr(figures, FIGURES[workload][0])
        start = time.perf_counter()
        prof = profile_layers(driver)
        trace = traced_layers(driver)
        leaders = {max(prof, key=prof.get), max(trace, key=trace.get)}
        verdict = "ok" if leaders == {EXPECTED[workload]} else "MISMATCH"
        ok = ok and verdict == "ok"
        print(f"{workload}: expected {EXPECTED[workload]} -> {verdict} "
              f"({time.perf_counter() - start:.0f} s)")
        print(f"  cProfile self time: {_ranking(prof)}")
        print(f"  layer trace self time: {_ranking(trace)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
