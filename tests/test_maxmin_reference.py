"""The vectorised water-filling solver vs a pure-Python reference.

``reference_maxmin`` is a deliberately naive O(F·R) per-round
implementation of progressive-filling max-min fairness with per-flow
rate caps — the textbook algorithm, no numpy, no equivalence classes.
The property suite asserts that ``FlowNetwork._maxmin_rates`` (the
flow-class solve, in numpy or the compiled kernel) matches it at
``fairness_slack=0`` on randomized flow sets — parametrized over the
component and global solvers and both kernels — and that the
standard max-min invariants hold: capacity conservation, per-flow caps
respected, and work conservation (every flow is limited by its cap or
by a saturated resource).
"""

import math

import numpy as np
import pytest

from repro.des import FlowNetwork, Simulator
from repro.des.kernels import kernel_status

#: Mirrors the freeze-batch epsilon in ``FlowNetwork._maxmin_rates``.
_BATCH = 1.0 + 1e-12

KERNELS = ["python",
           pytest.param("compiled", marks=pytest.mark.skipif(
               kernel_status() == "unavailable",
               reason="no C compiler"))]


def reference_maxmin(flows, capacities):
    """Progressive-filling max-min with caps, one frozen batch per round.

    ``flows`` is a list of ``(resource_indices, rate_cap)``;
    ``capacities`` a list of resource capacities. Returns the rate list.
    """
    nflows = len(flows)
    rates = [0.0] * nflows
    frozen = [False] * nflows
    cap_rem = [float(c) for c in capacities]

    for _ in range(nflows + len(capacities) + 1):
        unfrozen = [i for i in range(nflows) if not frozen[i]]
        if not unfrozen:
            break
        counts = [0] * len(capacities)
        for i in unfrozen:
            for r in flows[i][0]:
                counts[r] += 1
        candidate = {}
        for i in unfrozen:
            resources, cap = flows[i]
            share = min((max(cap_rem[r], 0.0) / counts[r]
                         for r in resources), default=math.inf)
            candidate[i] = min(share, cap)
        s_star = min(candidate.values())
        for i in unfrozen:
            if candidate[i] <= s_star * _BATCH:
                rates[i] = candidate[i]
                frozen[i] = True
                for r in flows[i][0]:
                    cap_rem[r] -= candidate[i]

    return [max(r, 1e-12) for r in rates]


def solver_rates(flows, capacities, solver="component", kernel="python"):
    """Feed the same flow set through FlowNetwork and read back the
    rates it assigns after the first recompute."""
    sim = Simulator()
    net = FlowNetwork(sim, solver=solver, kernel=kernel)
    links = [net.add_capacity(f"r{i}", c) for i, c in enumerate(capacities)]
    for resources, cap in flows:
        net.transfer([links[r] for r in resources], 1e9, rate_cap=cap)
    sim.run(until=0.0)
    idx = np.flatnonzero(net._active)
    return [float(r) for r in net._rate[idx]]


def random_flow_set(rng, allow_duplicates):
    """A randomized (flows, capacities) instance.

    With ``allow_duplicates`` the set contains groups of identical
    (resources, cap) flows, exercising the flow-class solve; without,
    every cap is distinct, exercising the per-flow solve.
    """
    nres = int(rng.integers(2, 8))
    capacities = [float(c) for c in rng.uniform(10.0, 1000.0, size=nres)]
    flows = []
    ngroups = int(rng.integers(1, 10))
    for _ in range(ngroups):
        width = int(rng.integers(1, min(3, nres) + 1))
        resources = sorted(
            int(r) for r in rng.choice(nres, size=width, replace=False))
        if rng.random() < 0.3:
            cap = math.inf
        else:
            cap = float(rng.uniform(1.0, 500.0))
        copies = int(rng.integers(1, 6)) if allow_duplicates else 1
        flows.extend([(resources, cap)] * copies)
    return flows, capacities


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("solver", ["component", "global"])
@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("allow_duplicates", [False, True],
                         ids=["distinct", "duplicated"])
def test_solver_matches_reference(seed, allow_duplicates, solver, kernel):
    rng = np.random.default_rng(1000 + seed)
    flows, capacities = random_flow_set(rng, allow_duplicates)
    expected = reference_maxmin(flows, capacities)
    got = solver_rates(flows, capacities, solver=solver, kernel=kernel)
    assert len(got) == len(expected)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_capacity_conservation(seed):
    rng = np.random.default_rng(2000 + seed)
    flows, capacities = random_flow_set(rng, allow_duplicates=True)
    rates = solver_rates(flows, capacities)
    used = [0.0] * len(capacities)
    for (resources, _cap), rate in zip(flows, rates):
        for r in resources:
            used[r] += rate
    for r, cap in enumerate(capacities):
        assert used[r] <= cap * (1.0 + 1e-9) + 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_flow_caps_respected(seed):
    rng = np.random.default_rng(3000 + seed)
    flows, capacities = random_flow_set(rng, allow_duplicates=True)
    rates = solver_rates(flows, capacities)
    for (_resources, cap), rate in zip(flows, rates):
        assert rate <= cap * (1.0 + 1e-9) + 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_work_conservation(seed):
    """Max-min bottleneck condition: every flow is pinned either by its
    own cap or by at least one resource that is (numerically) saturated."""
    rng = np.random.default_rng(4000 + seed)
    flows, capacities = random_flow_set(rng, allow_duplicates=True)
    rates = solver_rates(flows, capacities)
    used = [0.0] * len(capacities)
    for (resources, _cap), rate in zip(flows, rates):
        for r in resources:
            used[r] += rate
    for (resources, cap), rate in zip(flows, rates):
        at_cap = math.isfinite(cap) and rate >= cap * (1.0 - 1e-9) - 1e-9
        saturated = any(used[r] >= capacities[r] * (1.0 - 1e-9) - 1e-6
                        for r in resources)
        assert at_cap or saturated, (
            f"flow {resources, cap} got {rate} but is limited by "
            f"neither cap nor any saturated resource")


def test_identical_flows_get_identical_rates():
    """Flows in one equivalence class must receive the same rate."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        flows, capacities = random_flow_set(rng, allow_duplicates=True)
        rates = solver_rates(flows, capacities)
        by_class = {}
        for (resources, cap), rate in zip(flows, rates):
            by_class.setdefault((tuple(resources), cap), []).append(rate)
        for members in by_class.values():
            assert max(members) - min(members) <= 1e-12 * max(members)
