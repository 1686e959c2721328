"""The sharded solver: partitioning, worker pool, reconciliation.

Three layers, tested bottom-up:

- :mod:`repro.des.partition` — the multilevel min-cut pass must separate
  clustered graphs along their thin bridges, respect the capacity
  balance ceiling, and be deterministic (shard layouts feed a solver
  whose results must reproduce run to run);
- :mod:`repro.des.shards` — knob resolution (strict ``REPRO_SHARDS``,
  ``REPRO_PARALLEL``-style ``REPRO_SHARD_WORKERS`` with the
  ``os.cpu_count()`` cap) and the persistent fork/shared-memory worker
  pool, which must be *bit-identical* to in-process solving — it is a
  throughput knob, never a results knob;
- ``FlowNetwork(solver="sharded")`` — the contract from ISSUE/README:
  bit-identical to ``component`` at ``fairness_slack=0`` or ``shards=1``,
  per-flow deviation bounded by the slack otherwise, every decline path
  (heavy cut, reconciliation over budget) falling back to the exact
  solve, plus the shard counters in ``solver_stats``, the trace stream
  and ``tracereport``. A randomized storm suite crosses the sharded
  solver with both kernels.
"""

import math
import os

import numpy as np
import pytest

import repro.des.bandwidth as bw
from repro.des import FlowNetwork, Simulator
from repro.des.bandwidth import SOLVER_COMPONENT, SOLVER_GLOBAL, SOLVER_SHARDED
from repro.des.kernels import kernel_status
from repro.des.partition import PartitionResult, cut_weight, partition_graph
from repro.des.shards import (DEFAULT_SHARDS, ShardProblem, ShardWorkerPool,
                              resolve_shard_workers, resolve_shards,
                              solve_problem)
from repro.errors import ConfigurationError, SimulationError

KERNELS = ["python",
           pytest.param("compiled", marks=pytest.mark.skipif(
               kernel_status() == "unavailable",
               reason="no C compiler"))]


# ---------------------------------------------------------------------- #
# partition_graph
# ---------------------------------------------------------------------- #
def _clustered_graph(nclusters, size, intra_w=10.0, bridge_w=0.1):
    """``nclusters`` cliques of ``size`` nodes chained by thin bridges."""
    n = nclusters * size
    node_w = np.ones(n)
    eu, ev, ew = [], [], []
    for c in range(nclusters):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                eu.append(base + i)
                ev.append(base + j)
                ew.append(intra_w)
        if c + 1 < nclusters:
            eu.append(base + size - 1)
            ev.append(base + size)
            ew.append(bridge_w)
    return (node_w, np.array(eu), np.array(ev), np.array(ew))


def test_partition_separates_two_clusters():
    node_w, eu, ev, ew = _clustered_graph(2, 8)
    result = partition_graph(node_w, eu, ev, ew, k=2)
    assert isinstance(result, PartitionResult)
    # The only optimal 2-cut severs the single thin bridge.
    assert result.cut_weight == pytest.approx(0.1)
    assert result.imbalance == pytest.approx(1.0)
    left = set(result.labels[:8].tolist())
    right = set(result.labels[8:].tolist())
    assert len(left) == len(right) == 1 and left != right


def test_partition_chain_of_clusters():
    node_w, eu, ev, ew = _clustered_graph(4, 8)
    result = partition_graph(node_w, eu, ev, ew, k=4)
    # Each cluster must land whole in its own part: 3 bridges cut.
    assert result.cut_weight == pytest.approx(0.3)
    assert result.imbalance == pytest.approx(1.0)
    for c in range(4):
        assert len(set(result.labels[c * 8:(c + 1) * 8].tolist())) == 1


def test_partition_deterministic():
    rng = np.random.default_rng(42)
    n = 60
    node_w = rng.uniform(1.0, 5.0, size=n)
    eu = rng.integers(0, n, size=300)
    ev = rng.integers(0, n, size=300)
    ew = rng.uniform(0.1, 3.0, size=300)
    first = partition_graph(node_w, eu, ev, ew, k=4)
    second = partition_graph(node_w.copy(), eu.copy(), ev.copy(),
                             ew.copy(), k=4)
    assert np.array_equal(first.labels, second.labels)
    assert first.cut_weight == second.cut_weight


@pytest.mark.parametrize("seed", range(6))
def test_partition_respects_balance_ceiling(seed):
    rng = np.random.default_rng(100 + seed)
    n = 48
    node_w = rng.uniform(1.0, 2.0, size=n)
    eu = rng.integers(0, n, size=200)
    ev = rng.integers(0, n, size=200)
    ew = rng.uniform(0.1, 1.0, size=200)
    k = 4
    tol = 0.25
    result = partition_graph(node_w, eu, ev, ew, k=k, balance_tol=tol)
    part_w = np.bincount(result.labels, weights=node_w, minlength=k)
    ceiling = node_w.sum() / k * (1.0 + tol)
    # The greedy fallback can overshoot only when *no* part has room,
    # which one overweight node at a time cannot cause here.
    assert part_w.max() <= ceiling + node_w.max()
    # Same cut, summed over aggregated vs raw parallel edges (FP order).
    assert result.cut_weight == pytest.approx(
        cut_weight(result.labels, eu, ev, ew), rel=1e-12)


def test_partition_degenerate_cases():
    # k=1: everything in part 0, cut 0.
    one = partition_graph(np.ones(5), np.array([0]), np.array([1]),
                          np.array([2.0]), k=1)
    assert np.array_equal(one.labels, np.zeros(5, dtype=np.int64))
    assert one.cut_weight == 0.0
    # n <= k: singletons.
    tiny = partition_graph(np.ones(3), np.array([0, 1]), np.array([1, 2]),
                           np.array([1.0, 1.0]), k=4)
    assert np.array_equal(tiny.labels, np.arange(3))
    assert tiny.cut_weight == pytest.approx(2.0)
    # No edges at all.
    iso = partition_graph(np.ones(10), np.array([], dtype=np.int64),
                          np.array([], dtype=np.int64), np.array([]), k=2)
    assert iso.cut_weight == 0.0
    with pytest.raises(ValueError):
        partition_graph(np.ones(4), np.array([0]), np.array([1]),
                        np.array([1.0]), k=0)


def test_refinement_fixes_bad_initial_split():
    """KL local search must walk a deliberately bad boundary back to the
    thin bridge."""
    from repro.des.partition import _adjacency, _aggregate_edges, _refine

    node_w, eu, ev, ew = _clustered_graph(2, 6)
    n = node_w.size
    u, v, w = _aggregate_edges(n, eu, ev, ew)
    indptr, adj, adj_w = _adjacency(n, u, v, w)
    # Split one clique down the middle: maximally wrong.
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0], dtype=np.int64)
    before = cut_weight(labels, u, v, w)
    moves = _refine(n, node_w, indptr, adj, adj_w, labels, k=2,
                    ceiling=node_w.sum() / 2 * 1.25, passes=8)
    after = cut_weight(labels, u, v, w)
    assert moves > 0
    assert after < before
    assert after == pytest.approx(0.1)  # the bridge, and only the bridge


# ---------------------------------------------------------------------- #
# knob resolution
# ---------------------------------------------------------------------- #
def test_resolve_shards_default_env_and_argument(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert resolve_shards(None) == DEFAULT_SHARDS
    monkeypatch.setenv("REPRO_SHARDS", "8")
    assert resolve_shards(None) == 8
    assert resolve_shards(3) == 3  # explicit argument beats environment


def test_resolve_shards_rejects_malformed(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "many")
    with pytest.raises(ConfigurationError, match="REPRO_SHARDS"):
        resolve_shards(None)
    monkeypatch.setenv("REPRO_SHARDS", "0")
    with pytest.raises(ConfigurationError, match=">= 1"):
        resolve_shards(None)
    with pytest.raises(SimulationError):
        resolve_shards(-2)


def test_resolve_shard_workers_capped_by_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_shard_workers(None, shards=4) == 4   # min(shards, ncpu)
    assert resolve_shard_workers(None, shards=32) == 8  # capped by ncpu
    assert resolve_shard_workers(16, shards=4) == 4     # capped by shards
    assert resolve_shard_workers(16, shards=32) == 8    # capped by ncpu
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert resolve_shard_workers(None, shards=4) == 1
    assert resolve_shard_workers(6, shards=6) == 1


def test_resolve_shard_workers_warns_on_malformed(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "two")
    with pytest.warns(RuntimeWarning, match="REPRO_SHARD_WORKERS"):
        assert resolve_shard_workers(None, shards=4) == 1
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "-3")
    with pytest.warns(RuntimeWarning, match="positive"):
        assert resolve_shard_workers(None, shards=4) == 1
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    assert resolve_shard_workers(None, shards=4) == 2


def test_network_validates_every_mode_listing_options(monkeypatch):
    """Construction must fail loudly on any bad mode value, naming the
    valid options — for the solver and the kernel alike."""
    with pytest.raises(SimulationError) as err:
        FlowNetwork(Simulator(), solver="quantum")
    for option in ("component", "global", "sharded"):
        assert option in str(err.value)
    monkeypatch.setenv("REPRO_SOLVER", "fast")
    with pytest.raises(ConfigurationError, match="sharded"):
        FlowNetwork(Simulator())
    monkeypatch.delenv("REPRO_SOLVER")
    with pytest.raises(SimulationError) as err:
        FlowNetwork(Simulator(), kernel="gpu")
    for option in ("compiled", "python"):
        assert option in str(err.value)
    monkeypatch.setenv("REPRO_KERNEL", "rust")
    with pytest.raises(ConfigurationError, match="REPRO_KERNEL"):
        FlowNetwork(Simulator())
    # Shard knobs are validated at construction even when the solver
    # that would use them is not selected.
    monkeypatch.delenv("REPRO_KERNEL")
    monkeypatch.setenv("REPRO_SHARDS", "lots")
    with pytest.raises(ConfigurationError, match="REPRO_SHARDS"):
        FlowNetwork(Simulator(), solver="component")


def test_shards_folded_into_cache_context(monkeypatch):
    from repro.experiments.executor import env_mode_context

    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert env_mode_context()["repro_shards"] == DEFAULT_SHARDS
    monkeypatch.setenv("REPRO_SHARDS", "6")
    assert env_mode_context()["repro_shards"] == 6


def test_machine_shards_passthrough():
    from repro.cluster.machine import Machine, MachineSpec

    spec = MachineSpec(nodes=1, cores_per_node=2)
    machine = Machine(spec, solver="sharded", shards=6)
    assert machine.flows.solver == SOLVER_SHARDED
    assert machine.flows.shards == 6


# ---------------------------------------------------------------------- #
# the worker pool
# ---------------------------------------------------------------------- #
def _random_problem(rng, slack=0.05):
    nres = int(rng.integers(2, 6))
    nclasses = int(rng.integers(2, 10))
    kmax = 2
    class_res = np.full((nclasses, kmax), -1, dtype=np.int64)
    for c in range(nclasses):
        width = int(rng.integers(1, kmax + 1))
        picks = rng.choice(nres, size=width, replace=False)
        class_res[c, :width] = np.sort(picks)
    class_cap = np.where(rng.random(nclasses) < 0.3, np.inf,
                         rng.uniform(5.0, 200.0, size=nclasses))
    mult = rng.integers(1, 4, size=nclasses)
    flow_class = np.repeat(np.arange(nclasses, dtype=np.int64), mult)
    capacities = rng.uniform(50.0, 500.0, size=nres)
    return ShardProblem(flow_class, class_res,
                        np.ascontiguousarray(class_cap, dtype=float),
                        np.ascontiguousarray(capacities), float(slack))


def test_pool_bit_identical_to_in_process():
    rng = np.random.default_rng(7)
    problems = [_random_problem(rng, slack=s)
                for s in (0.0, 0.05, 0.0, 0.1, 0.02)]
    expected = [solve_problem(p, None) for p in problems]
    pool = ShardWorkerPool(workers=2, kernel="python")
    try:
        got = pool.solve_batch(problems)
    finally:
        pool.close()
    assert len(got) == len(expected)
    for (rate_g, used_g), (rate_e, used_e) in zip(got, expected):
        assert rate_g.tobytes() == rate_e.tobytes()
        assert used_g.tobytes() == used_e.tobytes()


def test_pool_grows_arenas_by_respawning():
    rng = np.random.default_rng(8)
    pool = ShardWorkerPool(workers=2, kernel="python",
                           i64_capacity=16, f64_capacity=16, max_problems=2)
    try:
        problems = [_random_problem(rng) for _ in range(6)]
        expected = [solve_problem(p, None) for p in problems]
        got = pool.solve_batch(problems)
        assert pool.respawns >= 1
        for (rate_g, _), (rate_e, _) in zip(got, expected):
            assert rate_g.tobytes() == rate_e.tobytes()
        # The grown pool keeps serving subsequent batches.
        again = pool.solve_batch(problems[:2])
        assert again[0][0].tobytes() == expected[0][0].tobytes()
        assert pool.batches == 2
    finally:
        pool.close()


def test_pool_close_is_idempotent_and_final():
    pool = ShardWorkerPool(workers=1, kernel="python")
    pool.close()
    pool.close()
    assert pool.broken
    with pytest.raises(SimulationError, match="closed"):
        pool.solve_batch([_random_problem(np.random.default_rng(0))])


def test_pool_rejects_bad_worker_count():
    with pytest.raises(SimulationError, match=">= 1"):
        ShardWorkerPool(workers=0, kernel="python")


# ---------------------------------------------------------------------- #
# the sharded FlowNetwork solver
# ---------------------------------------------------------------------- #
def _mega_component(solver, fairness_slack=0.05, shards=None, kernel=None,
                    shard_workers=None, groups=4,
                    res_per_group=4, writers=3, run_until=None):
    """One weakly coupled mega-component in the Damaris shared-OST shape.

    ``groups`` clusters of equal-capacity resources, each loaded by
    ``writers`` writer classes per resource whose rate caps form
    per-group bands, all fused into a single contention component by a
    chain of thin bridge flows. Returns the network after the first
    solve (``run_until=None``) or after running to ``run_until``.
    """
    sim = Simulator()
    net = FlowNetwork(sim, solver=solver, fairness_slack=fairness_slack,
                      shards=shards, kernel=kernel,
                      shard_workers=shard_workers)
    # Equal capacities (a balanced partition exists) sized so the top
    # rate-cap band oversubscribes its links: a saturated resource
    # defeats the fast-grant path and forces real water-filling solves.
    links = [net.add_capacity(f"r{g}.{r}", 2e8)
             for g in range(groups) for r in range(res_per_group)]
    for g in range(groups):
        for r in range(res_per_group):
            for w in range(writers):
                cap = 1e6 * 4.0 ** g * (1.0 + 0.13 * w)
                net.transfer([links[g * res_per_group + r]], 2e7,
                             rate_cap=cap, label=f"w{g}.{r}.{w}")
    # Thin bridges chain *every* consecutive resource pair, fusing the
    # groups into one component without moving meaningful bandwidth.
    for i in range(len(links) - 1):
        net.transfer([links[i], links[i + 1]], 1e5, rate_cap=2e4,
                     label=f"bridge{i}")
    if run_until is None:
        sim.run(until=0.0)
    else:
        sim.run(until=run_until)
    return sim, net


def _active_rates(net):
    idx = np.flatnonzero(net._active)
    labels = [net._flows[i].label for i in idx]
    return dict(zip(labels, (float(r) for r in net._rate[idx])))


def test_sharded_first_tick_deviation_bounded():
    slack = 0.05
    _, comp = _mega_component(SOLVER_COMPONENT, fairness_slack=slack)
    _, shrd = _mega_component(SOLVER_SHARDED, fairness_slack=slack)
    stats = shrd.solver_stats
    assert stats["sharded_ticks"] >= 1, "sharded path never engaged"
    assert stats["shard_rejects"] == 0
    assert stats["shard_fallbacks"] == 0
    exact = _active_rates(comp)
    got = _active_rates(shrd)
    assert set(got) == set(exact)
    for label, rate in exact.items():
        deviation = abs(got[label] - rate) / rate
        assert deviation <= slack, (
            f"{label}: sharded {got[label]} vs exact {rate} "
            f"({deviation:.3%} > slack {slack:.0%})")


def test_sharded_bit_identical_at_zero_slack():
    _, comp = _mega_component(SOLVER_COMPONENT, fairness_slack=0.0,
                              run_until=math.inf)
    _, shrd = _mega_component(SOLVER_SHARDED, fairness_slack=0.0,
                              run_until=math.inf)
    assert shrd.solver_stats["sharded_ticks"] == 0  # gated off entirely
    assert shrd.total_bytes_moved == comp.total_bytes_moved
    assert shrd.completed_flows == comp.completed_flows


def test_sharded_shards_one_bit_identical():
    _, comp = _mega_component(SOLVER_COMPONENT, fairness_slack=0.05,
                              run_until=math.inf)
    _, shrd = _mega_component(SOLVER_SHARDED, fairness_slack=0.05,
                              shards=1, run_until=math.inf)
    assert shrd.solver_stats["sharded_ticks"] == 0
    assert shrd.total_bytes_moved == comp.total_bytes_moved
    assert shrd.completed_flows == comp.completed_flows


def test_sharded_full_run_stays_within_slack():
    sim_c, comp = _mega_component(SOLVER_COMPONENT, run_until=math.inf)
    sim_s, shrd = _mega_component(SOLVER_SHARDED, run_until=math.inf)
    assert shrd.completed_flows == comp.completed_flows
    assert shrd.total_bytes_moved == pytest.approx(
        comp.total_bytes_moved, rel=1e-9)
    # Slack-bounded rates bound completion-time drift the same way.
    assert sim_s.now == pytest.approx(sim_c.now, rel=0.05)
    stats = shrd.solver_stats
    assert stats["sharded_ticks"] >= 1
    assert stats["shard_solves"] >= 2
    assert stats["shard_reconcile_iters"] >= stats["sharded_ticks"]
    assert stats["shard_max_imbalance"] >= 1.0
    assert stats["shard_cut_bytes"] > 0.0


def test_sharded_result_cache_hits_across_ticks():
    _, shrd = _mega_component(SOLVER_SHARDED, run_until=math.inf)
    stats = shrd.solver_stats
    # Later ticks disturb a subset of shards; the untouched ones must be
    # served from the digest-keyed cache instead of re-solving.
    assert stats["shard_cache_hits"] > 0


def test_sharded_heavy_cut_rejected_and_exact():
    """Fat bridges blow the cut-weight gate; the tick must fall back to
    the exact solver, bit-identically."""
    def build(solver):
        sim = Simulator()
        net = FlowNetwork(sim, solver=solver, fairness_slack=0.05)
        links = [net.add_capacity(f"r{i}", 1e9) for i in range(16)]
        for i, link in enumerate(links):
            for w in range(3):
                net.transfer([link], 2e7, rate_cap=1e6 * (1 + 0.1 * w + i),
                             label=f"w{i}.{w}")
        for i in range(len(links) - 1):
            # No rate cap and sized to outlive every writer: each bridge
            # could pull a full capacity across the cut for the whole
            # run, so no partition can bound the interaction.
            net.transfer([links[i], links[i + 1]], 1e11, label=f"fat{i}")
        sim.run(until=math.inf)
        return net

    comp = build(SOLVER_COMPONENT)
    shrd = build(SOLVER_SHARDED)
    stats = shrd.solver_stats
    assert stats["shard_rejects"] >= 1
    assert stats["sharded_ticks"] == 0
    assert shrd.total_bytes_moved == comp.total_bytes_moved
    assert shrd.completed_flows == comp.completed_flows


def test_reconciliation_iteration_cap_falls_back(monkeypatch):
    """With the reconciliation budget squeezed to one round the fixed
    point cannot settle (cut pins start at +inf, so the first residual
    is infinite); the solver must fall back to the exact solve and stay
    bit-identical to the component run."""
    monkeypatch.setattr(bw, "_SHARD_MAX_RECONCILE", 1)
    _, comp = _mega_component(SOLVER_COMPONENT, run_until=math.inf)
    _, shrd = _mega_component(SOLVER_SHARDED, run_until=math.inf)
    stats = shrd.solver_stats
    assert stats["shard_fallbacks"] >= 1
    assert stats["sharded_ticks"] == 0
    assert shrd.total_bytes_moved == comp.total_bytes_moved
    assert shrd.completed_flows == comp.completed_flows


def test_reconciliation_converges_within_budget():
    _, shrd = _mega_component(SOLVER_SHARDED, run_until=math.inf)
    stats = shrd.solver_stats
    assert stats["shard_fallbacks"] == 0
    assert stats["sharded_ticks"] >= 1
    # Pins only ever shrink, so the loop settles well inside the cap.
    per_tick = stats["shard_reconcile_iters"] / stats["sharded_ticks"]
    assert per_tick <= bw._SHARD_MAX_RECONCILE


def test_sharded_worker_pool_matches_in_process():
    """REPRO_SHARD_WORKERS is a throughput knob: forcing a 2-process
    pool must not change a single observable."""
    _, inproc = _mega_component(SOLVER_SHARDED, run_until=math.inf,
                                shard_workers=1)
    sim, pooled = _mega_component(SOLVER_SHARDED, run_until=math.inf,
                                  shard_workers=2)
    if pooled.shard_workers == 1:
        pytest.skip("single-core host: pool capped to in-process")
    assert pooled.total_bytes_moved == inproc.total_bytes_moved
    assert pooled.completed_flows == inproc.completed_flows
    assert pooled._shard_pool is not None
    assert not pooled._shard_pool.broken


# ---------------------------------------------------------------------- #
# randomized storm equivalence: solver x kernel
# ---------------------------------------------------------------------- #
def _bridged_storm(solver, seed, fairness_slack, kernel=None,
                   nodes=8, writers=4):
    """Randomized arrivals/cancellations on a bridged multi-node net."""
    rng = np.random.default_rng(seed)
    sim = Simulator()
    net = FlowNetwork(sim, solver=solver, fairness_slack=fairness_slack,
                      kernel=kernel)
    nics = [net.add_capacity(f"nic{i}", 1e9) for i in range(nodes)]
    tgts = [net.add_capacity(f"ost{i}", 4e8) for i in range(nodes)]
    completions = []

    def record(evt):
        completions.append((evt.value.label, evt.value.end_time))

    for n in range(nodes):
        for w in range(writers):
            nbytes = float(rng.integers(1_000_000, 20_000_000))
            start = float(rng.uniform(0.0, 0.1))
            cap = math.inf if rng.random() < 0.4 else float(
                rng.uniform(5e7, 3e8))

            def launch(n=n, w=w, nbytes=nbytes, cap=cap):
                flow = net.transfer([nics[n], tgts[n]], nbytes,
                                    rate_cap=cap, label=f"w{n}.{w}")
                flow.event.callbacks.append(record)
            sim.schedule_callback(start, launch)

    # Bridges fuse every node pair chain-wise for part of the run.
    for b in range(nodes - 1):
        start = float(rng.uniform(0.0, 0.05))

        def launch_bridge(b=b):
            flow = net.transfer([tgts[b], tgts[b + 1]], 2e6,
                                rate_cap=1e5, label=f"bridge{b}")
            flow.event.callbacks.append(record)
        sim.schedule_callback(start, launch_bridge)

    sim.run()
    return {
        "completions": completions,
        "bytes_moved": net.total_bytes_moved,
        "completed": net.completed_flows,
        "sim_time": sim.now,
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", range(3))
def test_storm_sharded_bit_identical_at_zero_slack(seed, kernel):
    shrd = _bridged_storm(SOLVER_SHARDED, seed, 0.0, kernel=kernel)
    glob = _bridged_storm(SOLVER_GLOBAL, seed, 0.0, kernel=kernel)
    assert shrd["completions"] == glob["completions"]
    assert shrd["bytes_moved"] == glob["bytes_moved"]
    assert shrd["completed"] == glob["completed"]
    assert shrd["sim_time"] == glob["sim_time"]


@pytest.mark.parametrize("seed", range(3))
def test_storm_sharded_bounded_at_positive_slack(seed):
    slack = 0.08
    shrd = _bridged_storm(SOLVER_SHARDED, seed, slack)
    comp = _bridged_storm(SOLVER_COMPONENT, seed, slack)
    assert shrd["completed"] == comp["completed"]
    assert shrd["bytes_moved"] == pytest.approx(comp["bytes_moved"],
                                                rel=1e-6)
    assert shrd["sim_time"] == pytest.approx(comp["sim_time"], rel=slack)


# ---------------------------------------------------------------------- #
# batched same-tick component solves
# ---------------------------------------------------------------------- #
def _disjoint_batch_run(solver):
    sim = Simulator()
    net = FlowNetwork(sim, solver=solver)
    links = [net.add_capacity(f"l{i}", 1e8 * (i + 1)) for i in range(6)]
    for i, link in enumerate(links):
        for w in range(3):
            net.transfer([link], 5e6, rate_cap=2e7 * (1 + 0.3 * w),
                         label=f"w{i}.{w}")
    # Same-tick capless arrivals on several disjoint components: the
    # fast path cannot absorb them, so the recompute sees multiple
    # dirty roots at once — the batched single-kernel invocation.
    def late_arrivals():
        for i in (0, 2, 4):
            net.transfer([links[i]], 3e6, label=f"late{i}")
    sim.schedule_callback(0.01, late_arrivals)
    sim.run()
    return net, sim.now


def test_batched_component_solves_bit_identical_to_global():
    comp, t_comp = _disjoint_batch_run(SOLVER_COMPONENT)
    glob, t_glob = _disjoint_batch_run(SOLVER_GLOBAL)
    assert comp.solver_stats["batched_solves"] >= 1
    assert glob.solver_stats["batched_solves"] == 0
    assert comp.total_bytes_moved == glob.total_bytes_moved
    assert comp.completed_flows == glob.completed_flows
    assert t_comp == t_glob


def test_batched_solves_counted_in_stats_and_trace():
    from repro.observe import Tracer, solver_table

    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, clock_name="sim")
    sim.tracer = tracer
    net = FlowNetwork(sim, solver=SOLVER_COMPONENT)
    links = [net.add_capacity(f"l{i}", 1e9) for i in range(4)]
    for link in links:
        net.transfer([link], 1e6, rate_cap=5e5)

    def burst():
        # Only a subset of the components: dirtying all of them would
        # take the whole-network shortcut instead of the batched path.
        for link in links[:2]:
            net.transfer([link], 1e6)
    sim.schedule_callback(0.01, burst)
    sim.run()
    assert net.solver_stats["batched_solves"] >= 1
    rows = solver_table(tracer)
    assert rows and rows[0]["solver"] == SOLVER_COMPONENT


# ---------------------------------------------------------------------- #
# shard counters: stats, trace, tracereport
# ---------------------------------------------------------------------- #
def test_shard_counters_only_for_sharded_solver():
    _, comp = _mega_component(SOLVER_COMPONENT)
    _, shrd = _mega_component(SOLVER_SHARDED)
    assert "shards" not in comp.solver_stats
    stats = shrd.solver_stats
    for key in ("shards", "shard_workers", "sharded_ticks", "shard_solves",
                "shard_cache_hits", "shard_rejects", "shard_fallbacks",
                "shard_reconcile_iters", "shard_cut_bytes",
                "shard_max_imbalance"):
        assert key in stats, f"missing counter {key}"
    assert stats["shards"] == DEFAULT_SHARDS


def test_shard_counters_in_trace_and_tracereport(tmp_path, capsys):
    from repro.observe import Tracer, dump_jsonl, solver_table
    from repro.tools import tracereport

    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, clock_name="sim")
    sim.tracer = tracer
    net = FlowNetwork(sim, solver=SOLVER_SHARDED, fairness_slack=0.05)
    links = [net.add_capacity(f"r{i}", 2e8) for i in range(16)]
    for i, link in enumerate(links):
        for w in range(3):
            net.transfer([link], 2e7,
                         rate_cap=1e6 * 4.0 ** (i // 4) * (1 + 0.13 * w))
    for i in range(len(links) - 1):
        net.transfer([links[i], links[i + 1]], 1e5, rate_cap=2e4)
    sim.run()
    assert net.solver_stats["sharded_ticks"] >= 1

    events = [e for e in tracer.events_in("solver") if "shards" in e.attrs]
    assert events, "solver events carry no shard counters"
    rows = solver_table(tracer)
    assert rows[0]["solver"] == SOLVER_SHARDED
    for col in ("shards", "shard_solves", "cut_bytes", "imbalance",
                "reconcile_iters"):
        assert col in rows[0], f"solver_table lacks {col}"
    assert rows[0]["shards"] >= 2
    assert rows[0]["cut_bytes"] > 0.0

    path = tmp_path / "sharded.jsonl"
    dump_jsonl(tracer, str(path))
    assert tracereport.main([str(path), "--by", "solver"]) == 0
    out = capsys.readouterr().out
    assert "sharded" in out
    assert "cut_bytes" in out
    assert "reconcile_iters" in out


def test_component_trace_rows_unchanged_by_shard_columns():
    """Non-sharded traces must keep the pre-shard column set — old
    fixtures and committed baselines render byte-identically."""
    from repro.observe import Tracer, solver_table

    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, clock_name="sim")
    sim.tracer = tracer
    net = FlowNetwork(sim, solver=SOLVER_COMPONENT)
    link = net.add_capacity("l", 1e9)
    net.transfer([link], 1e6)
    sim.run()
    rows = solver_table(tracer)
    assert rows and "shards" not in rows[0]
    assert "cut_bytes" not in rows[0]
