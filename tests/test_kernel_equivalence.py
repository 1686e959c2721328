"""Randomized cross-validation: compiled kernel and event-queue order.

The bit-identity contract asserted here, on seeded storm workloads (not
on single solves only — whole simulations, so any divergence compounds
into visibly different completion times): ``REPRO_KERNEL=compiled`` (the
default wherever the C kernel loads) reproduces the ``python`` numpy
water-filling solve **bit for bit** (``ndarray.tobytes()`` equality), at
``fairness_slack=0`` and at positive slack, under both solvers, on
storms and on whole paper figures.

Plus direct unit tests of the C kernel against its executable Python
specification (:func:`repro.des.kernels.maxmin_class_solve_py`), of the
default kernel resolution and its no-compiler fallback, and of the
simulator's event queue: exact ``(time, priority, seq)`` pop order and
the rejection of past and NaN times, including the empty-network and
single-flow edge cases the interfaces degenerate on.
"""

import math
import random

import numpy as np
import pytest

from repro.des import FlowNetwork, Simulator, kernels
from repro.des.kernels import (compiled_kernel, kernel_status,
                               maxmin_class_solve_py, resolve_kernel)
from repro.errors import ConfigurationError, SimulationError

needs_compiled = pytest.mark.skipif(kernel_status() == "unavailable",
                                    reason="no C compiler")


# --------------------------------------------------------------------- #
# workload builders
# --------------------------------------------------------------------- #
def run_storm(kernel, seed, slack=0.0, nflows=400, solver="component",
              distinct_caps=False):
    """A seeded storm with mixed topology: shared NICs, staggered
    targets, a fusing fabric link, rate-capped and capless flows, and
    staggered arrivals — returns per-flow end times and run invariants
    for bit-comparison. ``distinct_caps`` gives every flow its own
    finite rate cap, so every flow is its own class (the all-singleton
    solve)."""
    rng = random.Random(seed)
    sim = Simulator()
    net = FlowNetwork(sim, fairness_slack=slack, kernel=kernel,
                      solver=solver)
    nics = [net.add_capacity(f"nic{i}", 1e9 * (1 + 0.01 * i))
            for i in range(12)]
    tgts = [net.add_capacity(f"tgt{j}", 4.5e7 * (1 + 0.003 * j))
            for j in range(8)]
    fabric = net.add_capacity("fabric", 1e15)
    flows = []

    def start_batch(count):
        for _ in range(count):
            i = rng.randrange(12)
            j = rng.randrange(8)
            if rng.random() < 0.08:
                res, cap = [], 1e6 * (1 + rng.randrange(9))  # capless
            else:
                res = [nics[i], tgts[j]] + ([fabric]
                                            if rng.random() < 0.7 else [])
                cap = (math.inf if rng.random() < 0.5
                       else 1e6 * (1 + rng.randrange(50)))
            if distinct_caps:
                # Whole-MB draws plus a sub-MB flow index: all distinct.
                cap = (cap if math.isfinite(cap) else 1e12) + len(flows)
            flows.append(net.transfer(res, 1e6 * (1 + rng.randrange(20)),
                                      rate_cap=cap))

    start_batch(nflows // 2)
    for wave in range(4):  # staggered arrival waves mid-flight
        sim.call_later(0.5 + 0.7 * wave,
                       lambda n=nflows // 8: start_batch(n))
    sim.run()
    ends = np.array([flow.end_time for flow in flows])
    return {
        "ends": ends.tobytes(),
        "bytes": net.total_bytes_moved,
        "now": sim.now,
        "completed": net.completed_flows,
    }


def random_solve_instance(rng):
    """A raw (flow_class, class_res, class_cap, capacities) instance in
    the interned-table form ``FlowNetwork`` hands to the kernel,
    including unused class ids (interned but absent from this solve)."""
    nres = int(rng.integers(1, 7))
    capacities = rng.uniform(5.0, 2000.0, size=nres)
    nclasses_total = int(rng.integers(1, 12))
    kmax = 4
    class_res = np.full((nclasses_total, kmax), -1, dtype=np.int64)
    class_cap = np.empty(nclasses_total, dtype=np.float64)
    for cid in range(nclasses_total):
        width = int(rng.integers(0, min(3, nres) + 1))  # 0 = capless
        if width:
            picks = np.sort(rng.choice(nres, size=width, replace=False))
            class_res[cid, :width] = picks
        class_cap[cid] = (np.inf if rng.random() < 0.4
                          else float(rng.uniform(1.0, 800.0)))
    nflows = int(rng.integers(0, 60))
    flow_class = np.sort(
        rng.integers(0, nclasses_total, size=nflows).astype(np.int64))
    return flow_class, class_res, class_cap, capacities


# --------------------------------------------------------------------- #
# compiled kernel ≡ numpy solve (whole simulations)
# --------------------------------------------------------------------- #
@needs_compiled
# Tier 1 keeps two storm seeds as the always-on bit-identity gate; the
# remaining seeds ride in the slow tier (`-m slow`).
@pytest.mark.parametrize("slack", [0.0, 0.08])
@pytest.mark.parametrize("solver", ["component", "global"])
@pytest.mark.parametrize("seed,distinct_caps", [
    pytest.param(0, False, id="0"), pytest.param(1, False, id="1"),
    pytest.param(0, True, id="distinct-caps")] + [
    pytest.param(s, False, id=str(s), marks=pytest.mark.slow)
    for s in range(2, 6)])
def test_compiled_kernel_bit_identical_storms(seed, distinct_caps, solver,
                                              slack):
    expected = run_storm("python", seed, slack=slack, solver=solver,
                         distinct_caps=distinct_caps)
    got = run_storm("compiled", seed, slack=slack, solver=solver,
                    distinct_caps=distinct_caps)
    assert got == expected


@needs_compiled
def test_compiled_kernel_bit_identical_figures(monkeypatch):
    """Smoke-sized Fig. 2 and Fig. 7, at the ``Machine`` default
    ``fairness_slack=0.08``, give ``==`` rows under both kernels."""
    from repro.experiments import figures

    # Full mode: the fast mode overrides Fig. 7's core counts.
    for key in ("REPRO_FAST", "REPRO_PARALLEL", "REPRO_BACKEND",
                "REPRO_TRACE"):
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("REPRO_CACHE", "0")
    rows = {}
    for kernel in ("python", "compiled"):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        rows[kernel] = (
            figures.fig2_write_phase_kraken(scales=(48,)).rows,
            figures.fig7_spare_strategies(kraken_cores=48,
                                          grid5000_cores=24).rows)
    assert rows["compiled"] == rows["python"]


@needs_compiled
def test_compiled_kernel_empty_network():
    sim = Simulator()
    net = FlowNetwork(sim, kernel="compiled")
    sim.run()
    assert sim.now == 0.0 and net.completed_flows == 0


@needs_compiled
def test_compiled_kernel_single_flow():
    expected = run_storm("python", seed=1, nflows=1)
    got = run_storm("compiled", seed=1, nflows=1)
    assert got == expected


@needs_compiled
@pytest.mark.parametrize("seed", list(range(5)) + [
    pytest.param(s, marks=pytest.mark.slow) for s in range(5, 25)])
def test_c_kernel_matches_python_spec(seed):
    """The C kernel vs its interpreted specification, bit for bit, on
    raw interned-table instances (empty flow sets, capless classes and
    infinite caps included)."""
    rng = np.random.default_rng(5000 + seed)
    flow_class, class_res, class_cap, capacities = \
        random_solve_instance(rng)
    slack = float(rng.choice([0.0, 0.05]))
    rate_spec = np.empty(flow_class.size, dtype=np.float64)
    used_spec = np.empty(capacities.size, dtype=np.float64)
    maxmin_class_solve_py(flow_class, class_res, class_cap, capacities,
                          slack, rate_spec, used_spec)
    rate_c, used_c = compiled_kernel().solve(
        flow_class, class_res, class_cap, capacities, slack)
    assert rate_c.tobytes() == rate_spec.tobytes()
    assert used_c.tobytes() == used_spec.tobytes()


@needs_compiled
def test_kernel_solves_counted():
    sim = Simulator()
    net = FlowNetwork(sim, kernel="compiled")
    link = net.add_capacity("link", 100.0)
    net.transfer([link], 100.0)
    net.transfer([link], 100.0)
    sim.run()
    stats = net.solver_stats
    assert stats["kernel"] == "compiled"
    assert stats["kernel_solves"] >= 1
    assert stats["kernel_solves"] == stats["full_solves"] \
        + stats["component_solves"]


def test_python_kernel_reports_no_kernel_solves():
    sim = Simulator()
    net = FlowNetwork(sim, kernel="python")
    link = net.add_capacity("link", 100.0)
    net.transfer([link], 100.0)
    sim.run()
    stats = net.solver_stats
    assert stats["kernel"] == "python"
    assert stats["kernel_solves"] == 0


def test_resolve_kernel_env_and_validation(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert resolve_kernel(None) == (
        "python" if kernel_status() == "unavailable" else "compiled")
    monkeypatch.setenv("REPRO_KERNEL", "compiled")
    assert resolve_kernel(None) == "compiled"
    assert resolve_kernel("python") == "python"  # argument beats env
    with pytest.raises(SimulationError):
        resolve_kernel("fortran")
    # A bad mode fails at network construction, naming the options.
    with pytest.raises(SimulationError) as err:
        FlowNetwork(Simulator(), kernel="gpu")
    for option in ("compiled", "python"):
        assert option in str(err.value)
    monkeypatch.setenv("REPRO_KERNEL", "rust")
    with pytest.raises(ConfigurationError, match="REPRO_KERNEL"):
        FlowNetwork(Simulator())


def test_default_kernel_falls_back_to_python(monkeypatch):
    """Without a loadable C kernel the default is ``python`` and runs;
    an explicit ``compiled`` still refuses to degrade silently."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    monkeypatch.setattr(kernels, "_PROBE",
                        (None, "no C compiler found (forced)"))
    assert resolve_kernel(None) == "python"
    sim = Simulator()
    net = FlowNetwork(sim)
    assert net.kernel == "python"
    link = net.add_capacity("link", 100.0)
    net.transfer([link], 100.0)
    net.transfer([link], 100.0)
    sim.run()
    assert net.completed_flows == 2
    assert net.solver_stats["kernel_solves"] == 0
    with pytest.raises(SimulationError, match="forced"):
        FlowNetwork(Simulator(), kernel="compiled")
    monkeypatch.setenv("REPRO_KERNEL", "compiled")
    with pytest.raises(SimulationError, match="forced"):
        FlowNetwork(Simulator())


@needs_compiled
def test_cached_kernel_loads_without_compiler(monkeypatch, tmp_path):
    """A warm kernel cache is enough: no compiler is looked for."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    kernels._build_c_library()  # warm the cache once, with the compiler
    monkeypatch.setattr(kernels, "_find_compiler", lambda: None)
    monkeypatch.setattr(kernels, "_PROBE", None)
    rate, used = compiled_kernel().solve(
        np.zeros(2, dtype=np.int64),
        np.array([[0, -1, -1, -1]], dtype=np.int64),
        np.array([np.inf]), np.array([100.0]), 0.0)
    assert rate.tolist() == [50.0, 50.0] and used.tolist() == [100.0]
    # A cold cache without a compiler cannot load.
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cold"))
    monkeypatch.setattr(kernels, "_PROBE", None)
    assert kernel_status() == "unavailable"


# --------------------------------------------------------------------- #
# the event queue
# --------------------------------------------------------------------- #
def test_scheduler_pop_order_randomized():
    """Queue-level check: entries pushed with random times and
    priorities, in random order, pop in exact (time, priority, seq)
    order."""
    rng = random.Random(42)
    sim = Simulator()
    items = []
    popped = []
    for _ in range(2000):
        t = sim.now + rng.choice(
            [rng.uniform(0, 1e-6), rng.uniform(0, 100.0),
             rng.uniform(1e6, 1e9), math.inf])
        key = (t, rng.randrange(3), len(items) + 1)  # seq = push count
        items.append(key)
        sim.call_at(t, lambda key=key: popped.append(key), priority=key[1])
        # Interleave pops so later pushes land after a moving clock.
        if rng.random() < 0.3:
            sim.step()
    sim.run()
    assert popped == sorted(items)
    with pytest.raises(SimulationError):
        sim.step()


_NAN = float("nan")


@pytest.mark.parametrize("schedule", [
    pytest.param(lambda sim: sim.call_at(5.0, lambda: None),
                 id="call_at-past"),
    pytest.param(lambda sim: sim.schedule_callback_at(5.0, lambda: None),
                 id="schedule_callback_at-past"),
    pytest.param(lambda sim: sim.timeout(_NAN), id="timeout-nan"),
    pytest.param(lambda sim: sim.call_later(_NAN, lambda: None),
                 id="call_later-nan"),
    pytest.param(lambda sim: sim.call_at(_NAN, lambda: None),
                 id="call_at-nan"),
    pytest.param(lambda sim: sim.schedule_callback_at(_NAN, lambda: None),
                 id="schedule_callback_at-nan"),
    pytest.param(lambda sim: sim.event().succeed(delay=_NAN),
                 id="succeed-nan"),
    pytest.param(lambda sim: sim.run(until=_NAN), id="run-until-nan"),
])
def test_schedule_into_past_raises(schedule):
    """A time before the clock, or NaN, is rejected on every path onto
    the queue and leaves the queue as it was: a NaN time would sit in
    the heap out of order and leave the clock at NaN."""
    sim = Simulator()
    seen = []
    sim.call_at(10.0, lambda: seen.append("a"))
    sim.call_at(20.0, lambda: seen.append("b"))
    sim.step()
    assert sim.now == 10.0
    with pytest.raises(SimulationError):
        schedule(sim)
    assert sim.queue_depth == 1
    # Scheduling AT the current time stays legal (same-timestamp
    # callbacks), and so does inf.
    sim.call_at(10.0, lambda: seen.append("same instant"), priority=0)
    sim.call_at(math.inf, lambda: seen.append("inf"))
    sim.run()
    assert seen == ["a", "same instant", "b", "inf"]
    assert sim.now == math.inf


def test_simulator_call_at_past_raises():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run()
    assert sim.now == 10.0
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_simulator_heap_property_is_sorted_snapshot():
    sim = Simulator()
    sim.call_later(2.0, lambda: None)
    sim.call_later(1.0, lambda: None)
    snapshot = sim._heap
    assert [entry[0] for entry in snapshot] == [1.0, 2.0]
    assert sim.queue_depth == 2
