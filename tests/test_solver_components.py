"""The component-partitioned incremental solver vs the forced-global one.

The tentpole property: at ``fairness_slack=0`` exact max-min fairness
decomposes over connected components of the resource-contention graph,
so ``solver="component"`` (solve only the dirty components) must be
*bit-identical* — completion times, bytes moved, rate trajectories — to
``solver="global"`` (re-solve everything on every change). The storm
tests here throw randomized multi-component workloads with arrivals,
rate caps, cancellations, capacity changes and component-bridging flows
at both solvers and diff the full observable outcome.

Also covered: the union-find component registry (merge on arrival, lazy
split on rebuild), the per-component completion targets feeding the
tick, batching several dirty components into one kernel call, solver
selection, the solver statistics surfaced through the tracer and
``tracereport``, and serial-vs-parallel sweep determinism under the
component solver.
"""

import math

import numpy as np
import pytest

from repro.des import FlowNetwork, Simulator
from repro.des.bandwidth import SOLVER_COMPONENT, SOLVER_GLOBAL
from repro.des.kernels import kernel_status
from repro.errors import SimulationError


# ---------------------------------------------------------------------- #
# randomized storm equivalence
# ---------------------------------------------------------------------- #
def _run_storm(solver, seed, nodes=12, writers=4, fairness_slack=0.0,
               completion_slack=0.0):
    """One randomized multi-component storm; returns every observable.

    Each node owns a private NIC and target (one component per node);
    the workload mixes infinite and finite rate caps, staggered
    arrivals, mid-run capacity changes, cancellations and occasional
    cross-node flows that temporarily bridge two components.
    """
    rng = np.random.default_rng(seed)
    sim = Simulator()
    net = FlowNetwork(sim, solver=solver, fairness_slack=fairness_slack,
                      completion_slack=completion_slack)
    nics = [net.add_capacity(f"nic{i}", 1e9) for i in range(nodes)]
    tgts = [net.add_capacity(f"ost{i}", 4e8 * (1 + 1e-3 * i))
            for i in range(nodes)]
    completions = []
    flows = []

    def record(evt):
        completions.append((evt.value.label, evt.value.end_time))

    for n in range(nodes):
        for w in range(writers):
            nbytes = float(rng.integers(1_000_000, 30_000_000))
            start = float(rng.uniform(0.0, 0.2))
            cap = math.inf if rng.random() < 0.5 else float(
                rng.uniform(5e7, 3e8))

            def launch(n=n, w=w, nbytes=nbytes, cap=cap):
                flow = net.transfer([nics[n], tgts[n]], nbytes,
                                    rate_cap=cap, label=f"w{n}.{w}")
                flow.event.callbacks.append(record)
                flows.append(flow)
            sim.schedule_callback(start, launch)

    # A few cross-node flows: each bridges two otherwise-disjoint
    # components for its lifetime (exercises union + later split).
    for b in range(max(2, nodes // 4)):
        a, c = rng.choice(nodes, size=2, replace=False)
        nbytes = float(rng.integers(2_000_000, 20_000_000))
        start = float(rng.uniform(0.0, 0.15))

        def launch_bridge(a=int(a), c=int(c), b=b, nbytes=nbytes):
            flow = net.transfer([nics[a], tgts[c]], nbytes,
                                label=f"bridge{b}")
            flow.event.callbacks.append(record)
            flows.append(flow)
        sim.schedule_callback(start, launch_bridge)

    # Mid-run interference: capacity drops/restores on random targets.
    for k in range(3):
        j = int(rng.integers(0, nodes))
        factor = float(rng.uniform(0.4, 0.9))
        at = float(rng.uniform(0.05, 0.25))
        sim.schedule_callback(
            at, lambda j=j, factor=factor: tgts[j].set_capacity(
                4e8 * (1 + 1e-3 * j) * factor))

    # A couple of cancellations of whatever is still running.
    def cancel_one():
        for flow in flows:
            if flow.end_time is None and net._flows[flow.index] is flow:
                flow.cancel()
                return
    sim.schedule_callback(float(rng.uniform(0.08, 0.2)), cancel_one)

    sim.run()
    return {
        "completions": completions,
        "bytes_moved": net.total_bytes_moved,
        "completed": net.completed_flows,
        "sim_time": sim.now,
        "stats": net.solver_stats,
    }


@pytest.mark.parametrize("seed", range(8))
def test_storm_bit_identical_to_global(seed):
    comp = _run_storm(SOLVER_COMPONENT, seed)
    glob = _run_storm(SOLVER_GLOBAL, seed)
    assert comp["completions"] == glob["completions"]
    assert comp["bytes_moved"] == glob["bytes_moved"]
    assert comp["completed"] == glob["completed"]
    assert comp["sim_time"] == glob["sim_time"]


@pytest.mark.parametrize("seed", range(4))
def test_storm_with_completion_slack_bit_identical(seed):
    """Completion batching is applied globally in both modes, so it must
    not break the equivalence either."""
    comp = _run_storm(SOLVER_COMPONENT, seed, completion_slack=0.01)
    glob = _run_storm(SOLVER_GLOBAL, seed, completion_slack=0.01)
    assert comp["completions"] == glob["completions"]
    assert comp["bytes_moved"] == glob["bytes_moved"]


def test_component_solver_actually_partitions():
    """The equivalence tests are vacuous if the component solver secretly
    always solves everything; check it solves far fewer flows."""
    comp = _run_storm(SOLVER_COMPONENT, 99, nodes=16)
    glob = _run_storm(SOLVER_GLOBAL, 99, nodes=16)
    assert comp["stats"]["component_solves"] > 0
    # A batch whose dirty set happens to span every active flow takes
    # the whole-network path even in component mode; it must be rare.
    assert comp["stats"]["full_solves"] < comp["stats"]["component_solves"]
    assert glob["stats"]["component_solves"] == 0
    assert comp["stats"]["flows_solved"] < glob["stats"]["flows_solved"] / 2


def test_storm_positive_fairness_slack_stays_sane():
    """At slack>0 the solvers batch differently (documented); both must
    still conserve work and complete every flow."""
    comp = _run_storm(SOLVER_COMPONENT, 5, fairness_slack=0.08)
    glob = _run_storm(SOLVER_GLOBAL, 5, fairness_slack=0.08)
    assert comp["completed"] == glob["completed"]
    assert comp["bytes_moved"] == pytest.approx(glob["bytes_moved"],
                                                rel=1e-6)


# ---------------------------------------------------------------------- #
# union-find component registry
# ---------------------------------------------------------------------- #
def test_components_merge_on_bridging_flow():
    sim = Simulator()
    net = FlowNetwork(sim, solver=SOLVER_COMPONENT)
    a = net.add_capacity("a", 1e9)
    b = net.add_capacity("b", 1e9)
    net.transfer([a], 1e6)
    net.transfer([b], 1e6)
    sim.run(until=0.0)
    assert net.component_of(a) != net.component_of(b)
    assert net.components_live == 2
    net.transfer([a, b], 1e6, label="bridge")
    sim.run(until=0.0)
    assert net.component_of(a) == net.component_of(b)
    assert net.components_live == 1


def test_components_split_after_rebuild():
    sim = Simulator()
    net = FlowNetwork(sim, solver=SOLVER_COMPONENT)
    a = net.add_capacity("a", 1e9)
    b = net.add_capacity("b", 1e9)
    net.transfer([a], 1e9, label="left")
    net.transfer([b], 1e9, label="right")
    bridge = net.transfer([a, b], 1e5, label="bridge")
    sim.run(until=0.0)
    assert net.component_of(a) == net.component_of(b)
    sim.run_until_complete(bridge.event)  # departure leaves unions coarse
    assert bridge.end_time is not None
    assert net.component_of(a) == net.component_of(b)
    net._rebuild_components()  # the lazy split, forced
    assert net.component_of(a) != net.component_of(b)
    assert net.components_live == 2
    # The rebuild must not disturb the outcome: both survivors finish.
    sim.run()
    assert net.completed_flows == 3


def test_rebuild_triggers_after_many_departures():
    sim = Simulator()
    net = FlowNetwork(sim, solver=SOLVER_COMPONENT)
    caps = [net.add_capacity(f"c{i}", 1e9) for i in range(4)]
    # Far more multi-resource departures than the rebuild threshold.
    for k in range(200):
        net.transfer([caps[k % 3], caps[k % 3 + 1]], 1e5)
        sim.run()
    assert net.solver_stats["rebuilds"] >= 1
    assert net.completed_flows == 200


def test_capless_flows_never_contend():
    """Flows with no resources live in the reserved cap-only component,
    are granted their rate cap, and are never re-solved."""
    sim = Simulator()
    net = FlowNetwork(sim, solver=SOLVER_COMPONENT)
    link = net.add_capacity("link", 1e9)
    free = net.transfer([], 1e6, rate_cap=2e6, label="capless")
    shared = net.transfer([link], 1e6, label="shared")
    sim.run(until=0.0)
    assert float(net._rate[free.index]) == 2e6
    sim.run()
    assert free.end_time == pytest.approx(0.5)
    assert shared.end_time is not None


def test_component_targets_merge_to_tick_target():
    sim = Simulator()
    net = FlowNetwork(sim, solver=SOLVER_COMPONENT)
    links = [net.add_capacity(f"l{i}", 1e9) for i in range(5)]
    for i, link in enumerate(links):
        net.transfer([link], 1e6 * (i + 1))
    sim.run(until=0.0)
    targets = net.component_targets()
    assert len(targets) == 5
    assert min(targets.values()) == net._tick_target


# ---------------------------------------------------------------------- #
# solver selection
# ---------------------------------------------------------------------- #
def test_invalid_solver_rejected():
    assert FlowNetwork(Simulator()).solver == SOLVER_COMPONENT
    with pytest.raises(SimulationError) as err:
        FlowNetwork(Simulator(), solver="sharded")
    for option in (SOLVER_COMPONENT, SOLVER_GLOBAL):
        assert repr(option) in str(err.value)


def test_solver_mode_folded_into_cache_context(monkeypatch):
    """The solver is a keyword, not an environment mode: the sweep
    cache context holds exactly the fast and kernel modes."""
    from repro.config import KNOBS
    from repro.des.kernels import kernel_status
    from repro.experiments.executor import env_mode_context

    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)
    assert env_mode_context() == {
        "repro_fast": False,
        "repro_kernel": ("python" if kernel_status() == "unavailable"
                         else "compiled")}


# ---------------------------------------------------------------------- #
# incremental bookkeeping
# ---------------------------------------------------------------------- #
def test_active_indices_incremental_matches_mask():
    """The packed ascending index array must track the active mask
    through random interleaved arrivals and departures."""
    rng = np.random.default_rng(11)
    sim = Simulator()
    net = FlowNetwork(sim)
    link = net.add_capacity("link", 1e9)
    live = []
    for step in range(300):
        if live and rng.random() < 0.45:
            live.pop(int(rng.integers(len(live)))).cancel()
        else:
            live.append(net.transfer([link], 1e9))
        idx = net._active_indices()
        expected = np.flatnonzero(net._active)
        assert np.array_equal(idx, expected), f"diverged at step {step}"
        assert np.all(np.diff(idx) > 0)


def _churn_past_initial_sizes(kernel):
    """Arrivals, cancellations and new capacities past the initial 64
    slots and 64 capacities. After every change the packed active index
    must equal the active mask's flatnonzero, and the capacity views
    must hold exactly the registered capacities. Returns the surviving
    flows' end times."""
    rng = np.random.default_rng(12)
    sim = Simulator()
    net = FlowNetwork(sim, kernel=kernel)
    links, live = [], []
    for step in range(400):
        if step % 3 == 0:
            links.append(net.add_capacity(f"c{len(links)}", 1e8 + step))
        if live and rng.random() < 0.3:
            live.pop(int(rng.integers(len(live)))).cancel()
        else:
            pick = rng.choice(len(links), size=min(2, len(links)),
                              replace=False)
            live.append(net.transfer([links[i] for i in pick],
                                     float(rng.integers(1, 9)) * 1e7))
        assert net._active_indices().tolist() \
            == np.flatnonzero(net._active).tolist()
        assert net._capacities.size == net._cap_used.size == len(links)
        sim.run(until=sim.now + 0.01)
    assert net._rate.size > 64 and len(links) > 64
    assert [link.capacity for link in links] \
        == [1e8 + 3 * i for i in range(len(links))]
    sim.run()
    assert net.active_flow_count == 0
    return [flow.end_time for flow in live]


def test_active_index_and_capacity_views_track_growth():
    """Both kernels' passes keep the packed active index and the
    capacity views right through growth, with identical end times."""
    kernels = ["python"]
    if kernel_status() != "unavailable":
        kernels.append("compiled")
    ends = [_churn_past_initial_sizes(kernel) for kernel in kernels]
    assert all(end == ends[0] for end in ends)


def test_tick_heap_stays_small_under_churn():
    """Arming must not leak one heap entry per recompute (the old
    `_tick_times` list bug class)."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = net.add_capacity("link", 1e9)
    peak = [0]
    count = [0]

    def arrive():
        count[0] += 1
        net.transfer([link], 5e5)
        if count[0] < 300:
            sim.schedule_callback(1e-4, arrive)
        peak[0] = max(peak[0], len(net._tick_heap))

    sim.schedule_callback(0.0, arrive)
    sim.run()
    assert net.completed_flows == 300
    assert peak[0] <= 4


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
# solver statistics and reporting
# ---------------------------------------------------------------------- #
def test_solver_stats_counters():
    result = _run_storm(SOLVER_COMPONENT, 3)
    stats = result["stats"]
    assert stats["solver"] == SOLVER_COMPONENT
    assert stats["recomputes"] > 0
    assert stats["component_solves"] > 0
    assert stats["components_solved"] >= stats["component_solves"]
    assert stats["components_live"] == 0  # storm drained


def test_solver_trace_events_and_table():
    from repro.observe import Tracer, solver_table

    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, clock_name="sim")
    sim.tracer = tracer
    net = FlowNetwork(sim, solver=SOLVER_COMPONENT)
    link_a = net.add_capacity("a", 1e9)
    link_b = net.add_capacity("b", 1e9)
    net.transfer([link_a], 1e6)
    net.transfer([link_b], 2e6)
    sim.run()

    events = tracer.events_in("solver")
    assert events, "no solver events recorded"
    rows = solver_table(tracer)
    assert len(rows) == 1
    row = rows[0]
    assert row["solver"] == SOLVER_COMPONENT
    assert row["recomputes"] == net.solver_stats["recomputes"]
    assert row["component"] == net.solver_stats["component_solves"]
    assert row["fast"] == net.solver_stats["fast_grants"]


def test_tracereport_by_solver(tmp_path, capsys):
    from repro.observe import Tracer, dump_jsonl
    from repro.tools import tracereport

    sim = Simulator()
    tracer = Tracer(clock=lambda: sim.now, clock_name="sim")
    sim.tracer = tracer
    net = FlowNetwork(sim)
    link = net.add_capacity("link", 1e9)
    net.transfer([link], 1e6)
    sim.run()

    path = tmp_path / "trace.jsonl"
    dump_jsonl(tracer, str(path))
    assert tracereport.main([str(path), "--by", "solver"]) == 0
    out = capsys.readouterr().out
    assert "component" in out
    assert "recomputes" in out
    # The default summary view includes the solver section too.
    assert tracereport.main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "-- bandwidth solver --" in out


def test_render_summary_without_solver_events():
    """Traces from runs without flow networks keep rendering."""
    from repro.observe import Tracer, render_summary

    tracer = Tracer()
    tracer.record_span("persist", "it0", "server", 0.0, 1.0)
    text = render_summary(tracer)
    assert "bandwidth solver" not in text


# ---------------------------------------------------------------------- #
# serial vs parallel sweep determinism under the component solver
# ---------------------------------------------------------------------- #
def _storm_task(seed):
    return _run_storm(SOLVER_COMPONENT, seed)["completions"]


def test_serial_vs_parallel_sweep_determinism(monkeypatch):
    from repro.experiments.executor import SweepTask, run_sweep

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    tasks = [SweepTask(_storm_task, args=(seed,), label=f"storm{seed}")
             for seed in range(4)]
    serial = run_sweep(tasks, parallel=1, cache=False)
    parallel = run_sweep(tasks, parallel=2, cache=False)
    assert serial == parallel
