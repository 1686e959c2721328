"""Randomized cross-validation: compiled kernel and event-queue order.

The bit-identity contract asserted here, on seeded storm workloads (not
on single solves only — whole simulations, so any divergence compounds
into visibly different completion times): ``REPRO_KERNEL=compiled`` (the
default wherever the C kernel loads) reproduces the ``python`` numpy
water-filling solve **bit for bit** (``ndarray.tobytes()`` equality), at
``fairness_slack=0`` and at positive slack, under both solvers, on
storms and on whole paper figures.

Plus direct unit tests of the C kernel against its executable Python
specification (:func:`maxmin_class_solve_py`, kept here), of the
compiled network's per-recompute pass against the python network's
numpy statements, of the default kernel resolution and its no-compiler
fallback, and of the simulator's event queue: exact ``(time, priority,
seq)`` pop order and the rejection of past and NaN times, including the
empty-network and single-flow edge cases the interfaces degenerate on.
"""

import math
import random

import numpy as np
import pytest

from repro.des import FlowNetwork, Simulator, kernels
from repro.des.kernels import (compiled_kernel, kernel_status,
                               maxmin_class_solve_np, resolve_kernel)
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
    for key in ("REPRO_FAST", "REPRO_PARALLEL", "REPRO_TRACE"):
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


# --------------------------------------------------------------------- #
# the scalar spec (the C kernel's executable specification)
# --------------------------------------------------------------------- #
def maxmin_class_solve_py(flow_class: np.ndarray, class_res: np.ndarray,
                          class_cap: np.ndarray, capacities: np.ndarray,
                          fairness_slack: float, rate_out: np.ndarray,
                          cap_used_out: np.ndarray, class_map: np.ndarray,
                          res_map: np.ndarray) -> int:
    """Scalar-loop water-filling: the C kernel's algorithm in Python.

    Never on a simulation path: it is the executable specification these
    tests diff the C kernel against bit-for-bit, written statement for
    statement like the C source (arrays and scalars only) so a
    divergence points at one line; only the indirection differs: the C
    kernel reads flow ``f``'s class as ``slot_class[slots[f]]`` and
    writes its rate to ``rate_out[slots[f]]``, so a network solves its
    active slots in place (:meth:`repro.des.kernels.MaxminKernel.solve`
    passes ``slots = 0..n-1``). ``class_map`` and ``res_map`` are the scratch
    maps (all -1 on entry and on return); ``cap_used_out`` is written
    for the touched capacities only.
    """
    nflows = flow_class.shape[0]
    kmax = class_res.shape[1]
    batch = 1.0 + fairness_slack + 1e-12

    if nflows == 0:
        return 0

    # number the classes present, in first-appearance order
    present = np.empty(nflows, dtype=np.int64)
    inverse = np.empty(nflows, dtype=np.int64)
    nclasses = 0
    for f in range(nflows):
        cid = flow_class[f]
        c = class_map[cid]
        if c < 0:
            c = nclasses
            class_map[cid] = c
            present[nclasses] = cid
            nclasses += 1
        inverse[f] = c

    # compact the class rows onto the touched capacities
    touched = np.empty(nclasses * kmax, dtype=np.int64)
    ntouched = 0
    cres = np.empty((nclasses, kmax), dtype=np.int64)
    ccap = np.empty(nclasses, dtype=np.float64)
    for c in range(nclasses):
        cid = present[c]
        k = 0
        while k < kmax:
            r = class_res[cid, k]
            if r < 0:
                break
            j = res_map[r]
            if j < 0:
                j = ntouched
                res_map[r] = j
                touched[ntouched] = r
                ntouched += 1
            cres[c, k] = j
            k += 1
        while k < kmax:
            cres[c, k] = -1
            k += 1
        ccap[c] = class_cap[cid]

    cmult = np.zeros(nclasses, dtype=np.float64)
    crate = np.zeros(nclasses, dtype=np.float64)
    cand = np.zeros(nclasses, dtype=np.float64)
    cstart = np.zeros(nclasses + 1, dtype=np.int64)
    for f in range(nflows):
        c = inverse[f]
        cmult[c] += 1.0
        cstart[c + 1] += 1
    for c in range(nclasses):
        cstart[c + 1] += cstart[c]
    cfill = cstart[:nclasses].copy()
    members = np.empty(nflows, dtype=np.int64)
    for f in range(nflows):
        c = inverse[f]
        members[cfill[c]] = f
        cfill[c] += 1

    unf = np.arange(nclasses, dtype=np.int64)
    n_unf = nclasses
    cap_rem = np.empty(ntouched, dtype=np.float64)
    for j in range(ntouched):
        cap_rem[j] = capacities[touched[j]]
    counts = np.zeros(ntouched, dtype=np.float64)
    consumed = np.zeros(ntouched, dtype=np.float64)
    newly = np.empty(nclasses, dtype=np.int64)
    buf = np.empty(nflows, dtype=np.int64)
    rounds = 0

    for _ in range(nclasses + ntouched + 1):
        if n_unf == 0:
            break
        have_res = False
        for j in range(ntouched):
            counts[j] = 0.0
        for ui in range(n_unf):
            c = unf[ui]
            for k in range(kmax):
                j = cres[c, k]
                if j < 0:
                    break
                counts[j] += cmult[c]
                have_res = True
        if not have_res:
            for ui in range(n_unf):
                c = unf[ui]
                crate[c] = ccap[c]
            break
        s_star = np.inf
        for ui in range(n_unf):
            c = unf[ui]
            cd = np.inf
            for k in range(kmax):
                j = cres[c, k]
                if j < 0:
                    break
                rem = cap_rem[j]
                if rem < 0.0:
                    rem = 0.0
                sh = rem / counts[j]
                if sh < cd:
                    cd = sh
            if ccap[c] < cd:
                cd = ccap[c]
            cand[c] = cd
            if cd < s_star:
                s_star = cd
        thresh = s_star * batch
        n_new = 0
        m = 0
        wi = 0
        for ui in range(n_unf):
            c = unf[ui]
            if cand[c] <= thresh:
                crate[c] = cand[c]
                newly[n_new] = c
                n_new += 1
            else:
                unf[wi] = c
                wi += 1
        n_unf = wi
        for j in range(ntouched):
            consumed[j] = 0.0
        for i in range(n_new):
            c = newly[i]
            for p in range(cstart[c], cstart[c + 1]):
                buf[m] = members[p]
                m += 1
        frozen_flows = np.sort(buf[:m]) if n_new > 1 else buf[:m]
        for f in frozen_flows:
            c = inverse[f]
            rr = crate[c]
            for k in range(kmax):
                j = cres[c, k]
                if j < 0:
                    break
                consumed[j] += rr
        for j in range(ntouched):
            cap_rem[j] -= consumed[j]
        rounds += 1

    for f in range(nflows):
        rr = crate[inverse[f]]
        rate_out[f] = rr if rr > 1e-12 else 1e-12
    for j in range(ntouched):
        cap_used_out[touched[j]] = capacities[touched[j]] - cap_rem[j]
    for c in range(nclasses):
        class_map[present[c]] = -1
    for j in range(ntouched):
        res_map[touched[j]] = -1
    return rounds


def assert_c_matches_spec(flow_class, class_res, class_cap, capacities,
                          slack):
    """The C kernel vs its interpreted specification and the numpy
    solve, bit for bit, through one pair of scratch maps that both must
    hand back reading all -1."""
    class_map = np.full(class_cap.size, -1, dtype=np.int64)
    res_map = np.full(capacities.size, -1, dtype=np.int64)
    rate_spec = np.empty(flow_class.size, dtype=np.float64)
    used_spec = np.zeros(capacities.size, dtype=np.float64)
    maxmin_class_solve_py(flow_class, class_res, class_cap, capacities,
                          slack, rate_spec, used_spec, class_map, res_map)
    assert (class_map == -1).all() and (res_map == -1).all()
    rate_c, used_c = compiled_kernel().solve(
        flow_class, class_res, class_cap, capacities, slack,
        class_map=class_map, res_map=res_map)
    assert (class_map == -1).all() and (res_map == -1).all()
    assert rate_c.tobytes() == rate_spec.tobytes()
    assert used_c.tobytes() == used_spec.tobytes()
    rate_np, used_np = maxmin_class_solve_np(
        flow_class, class_res, class_cap, capacities, slack)
    assert rate_c.tobytes() == rate_np.tobytes()
    assert used_c.tobytes() == used_np.tobytes()
    return rate_c, used_c


def class_table(rows, caps):
    """An interned class table from resource lists and caps."""
    class_res = np.full((len(rows), 4), -1, dtype=np.int64)
    for cid, row in enumerate(rows):
        class_res[cid, :len(row)] = row
    return class_res, np.array(caps, dtype=np.float64)


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
    assert_c_matches_spec(flow_class, class_res, class_cap, capacities,
                          slack)
    # The same flows with their classes in slot order shuffled: class
    # ids now first appear out of ascending order.
    assert_c_matches_spec(rng.permutation(flow_class), class_res,
                          class_cap, capacities, slack)


@needs_compiled
@pytest.mark.parametrize("slack", [0.0, 0.08])
def test_c_kernel_classes_out_of_id_order(slack):
    """Classes numbered by first appearance (7, 2, 5, 0 here) solve
    exactly as np.unique's ascending numbering does."""
    class_res, class_cap = class_table(
        [[0], [], [0, 1], [], [], [1, 2], [], [2]],
        [np.inf, 3.0, 40.0, 1.0, 1.0, np.inf, 1.0, 25.0])
    flow_class = np.array([7, 2, 5, 7, 0, 2, 5, 0, 7], dtype=np.int64)
    assert_c_matches_spec(flow_class, class_res, class_cap,
                          np.array([100.0, 60.0, 80.0]), slack)


@needs_compiled
@pytest.mark.parametrize("slack", [0.0, 0.08])
def test_c_kernel_frozen_classes_scatter_in_slot_order(slack):
    """Two capped two-flow classes with interleaved slots (2, 6 and 3,
    5) freeze first, so their member lists are merged and sorted before
    the scatter; the other 36 flows follow in later rounds. At slack
    0.08 the two caps freeze together at different rates, whose sum
    rounds differently in slot order (a + b + b + a) than class by
    class (a + a + b + b), and the two uncapped flows sharing their
    link then see that residual, so a missing sort shows in their
    rates."""
    rows = [[1]] * 4 + [[0]] * 34
    caps = [0.1849, 0.1845 if slack else 0.1849] + [np.inf] * 36
    class_res, class_cap = class_table(rows, caps)
    capped = {2: 1, 3: 0, 5: 0, 6: 1}
    rest = iter(range(2, 38))
    flow_class = np.array(
        [capped[pos] if pos in capped else next(rest)
         for pos in range(40)], dtype=np.int64)
    rate, _used = assert_c_matches_spec(
        flow_class, class_res, class_cap, np.array([100.0, 1.25]), slack)
    assert rate[[3, 5]].tolist() == [0.1849] * 2


@needs_compiled
def test_c_kernel_untouched_capacities_read_zero():
    """Capacities no solved flow touches stay at 0.0 consumption (the
    kernel writes touched entries only), even between touched ones."""
    class_res, class_cap = class_table([[3, 7], [7], [5]],
                                       [np.inf, 10.0, np.inf])
    capacities = np.arange(1.0, 11.0) * 100.0
    flow_class = np.array([1, 0, 1, 0], dtype=np.int64)
    _rate, used = assert_c_matches_spec(flow_class, class_res, class_cap,
                                        capacities, 0.0)
    untouched = [r for r in range(10) if r not in (3, 7)]
    assert (used[untouched] == 0.0).all()
    assert used[3] > 0.0 and used[7] > 0.0


def per_recompute_pair(rate, remaining, start, completion_slack):
    """A ``python``-kernel and a ``compiled``-kernel network whose slot
    arrays hold the same values, so their per-recompute passes
    (``FlowNetwork._pass``) can be run side by side."""
    nets = []
    for kernel in ("python", "compiled"):
        net = FlowNetwork(Simulator(), completion_slack=completion_slack,
                          kernel=kernel)
        net._rate[:] = rate
        net._remaining[:] = remaining
        net._start[:] = start
        nets.append(net)
    return nets


@needs_compiled
@pytest.mark.parametrize("seed", range(6))
def test_c_advance_finish_matches_numpy(seed):
    """The compiled network's per-recompute C pass (advance, flag the
    finished flows) and its next-completion minimum equal the python
    network's numpy statements bit for bit: remaining volumes, the
    moved bytes, the finished slots and the minimum, with dt = 0 and
    flows exactly at their tolerance."""
    rng = np.random.default_rng(9000 + seed)
    slots = 64
    rate = rng.uniform(1e3, 1e9, size=slots)
    remaining = rng.uniform(0.0, 2e7, size=slots)
    start = rng.uniform(0.0, 4.0, size=slots)
    idx = np.sort(rng.choice(slots, size=int(rng.integers(1, 60)),
                             replace=False)).astype(np.int64)
    now = 5.0 + float(rng.uniform(0.0, 1.0))
    completion_slack = float(rng.choice([0.0, 0.01, 0.08]))
    dt = float(rng.choice([0.0, 1e-6, 0.013, 0.5]))
    # Flows exactly at their tolerance (dt = 0 leaves them there),
    # flows finishing within dt, and an already drained flow.
    for slot in idx[:3].tolist():
        tol_s = completion_slack * (now - start[slot]) + 1e-9
        remaining[slot] = rate[slot] * tol_s + 1e-6
    remaining[idx[-1]] = 0.0
    if idx.size > 4:
        remaining[idx[3]] = rate[idx[3]] * dt * 0.5
    py_net, c_net = per_recompute_pair(rate, remaining, start,
                                       completion_slack)
    want = py_net._pass.advance_finish(py_net, idx, dt, now)
    got = c_net._pass.advance_finish(c_net, idx, dt, now)
    assert c_net._remaining.tobytes() == py_net._remaining.tobytes()
    assert c_net.total_bytes_moved == py_net.total_bytes_moved
    assert (got is None) == (want is None)
    if want is not None:
        assert got.tolist() == want.tolist()
    if dt == 0:
        assert c_net.total_bytes_moved == 0.0
        assert set(idx[:3].tolist()) <= set(got.tolist())
    live = idx if got is None else np.setdiff1d(idx, got)
    if live.size:
        assert np.float64(c_net._pass.next_finish(c_net, live)).tobytes() \
            == np.float64(py_net._pass.next_finish(py_net, live)).tobytes()


@needs_compiled
def test_c_next_finish_zero_rate_and_nan():
    """A zero rate gives inf (or NaN for an empty flow), as numpy's
    division does, and np.min propagates a NaN."""
    idx = np.arange(3, dtype=np.int64)
    for rate in ([0.0, 2.0, 1.0], [1.0, 2.0, 0.0]):
        py_net, c_net = per_recompute_pair(
            np.pad(rate, (0, 61), constant_values=1.0),
            np.pad([5.0, 4.0, 0.0], (0, 61)), np.zeros(64), 0.0)
        got = c_net._pass.next_finish(c_net, idx)
        with np.errstate(invalid="ignore"):
            want = py_net._pass.next_finish(py_net, idx)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@needs_compiled
@pytest.mark.parametrize("flow_class,class_res,match", [
    pytest.param(np.zeros(2, dtype=np.int32), [[0, -1, -1, -1]],
                 "contiguous", id="int32-classes"),
    pytest.param(np.zeros(4, dtype=np.int64)[::2], [[0, -1, -1, -1]],
                 "contiguous", id="strided-classes"),
    pytest.param(np.array([0, 1]), [[0, -1, -1, -1]], "class id",
                 id="class-past-table"),
    pytest.param(np.array([0, -1]), [[0, -1, -1, -1]], "class id",
                 id="negative-class"),
    pytest.param(np.zeros(2, dtype=np.int64), [[0, 1, -1, -1]],
                 "capacity index", id="capacity-past-table"),
])
def test_compiled_kernel_rejects_bad_arrays(flow_class, class_res, match):
    """The five-argument solve checks dtype, contiguity and every index
    before C dereferences it."""
    with pytest.raises(SimulationError, match=match):
        compiled_kernel().solve(
            flow_class, np.array(class_res, dtype=np.int64),
            np.array([np.inf]), np.array([100.0]), 0.0)


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
