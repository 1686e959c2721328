"""Unit + property tests for the max-min fair-share flow network."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import FlowNetwork, Simulator
from repro.des.kernels import kernel_status
from repro.errors import SimulationError


def run_transfers(capacities, flows):
    """Helper: run flows (list of (resource-names, nbytes, rate_cap, start))
    and return dict label -> completion time."""
    sim = Simulator()
    net = FlowNetwork(sim)
    links = {name: net.add_capacity(name, cap) for name, cap in capacities.items()}
    done = {}

    def worker(label, names, nbytes, cap, start):
        yield sim.timeout(start)
        flow = net.transfer([links[n] for n in names], nbytes, rate_cap=cap,
                            label=label)
        yield flow.event
        done[label] = sim.now

    for i, (names, nbytes, cap, start) in enumerate(flows):
        sim.process(worker(str(i), names, nbytes, cap, start))
    sim.run()
    return done


class TestSingleLink:
    def test_single_flow_uses_full_capacity(self):
        done = run_transfers({"l": 100.0}, [(["l"], 500.0, math.inf, 0.0)])
        assert done["0"] == pytest.approx(5.0)

    def test_two_equal_flows_share_equally(self):
        done = run_transfers({"l": 100.0},
                             [(["l"], 100.0, math.inf, 0.0)] * 2)
        assert done["0"] == pytest.approx(2.0)
        assert done["1"] == pytest.approx(2.0)

    def test_short_flow_leaves_then_long_speeds_up(self):
        # A=150B, B=50B on 100B/s: share 50 each; B done at t=1 (50B);
        # A then has 100B at full rate: done at t=2.
        done = run_transfers({"l": 100.0},
                             [(["l"], 150.0, math.inf, 0.0),
                              (["l"], 50.0, math.inf, 0.0)])
        assert done["1"] == pytest.approx(1.0)
        assert done["0"] == pytest.approx(2.0)

    def test_late_arrival_shares(self):
        # A: 200B from t=0. Alone until t=1 (100B moved). Then B (100B)
        # arrives; both have 100B left at 50B/s -> both done at t=3.
        done = run_transfers({"l": 100.0},
                             [(["l"], 200.0, math.inf, 0.0),
                              (["l"], 100.0, math.inf, 1.0)])
        assert done["0"] == pytest.approx(3.0)
        assert done["1"] == pytest.approx(3.0)

    def test_zero_byte_flow_completes_instantly(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 10.0)
        flow = net.transfer([link], 0.0)
        assert flow.event.triggered
        assert flow.end_time == 0.0


class TestRateCaps:
    def test_cap_limits_single_flow(self):
        done = run_transfers({"l": 100.0}, [(["l"], 100.0, 10.0, 0.0)])
        assert done["0"] == pytest.approx(10.0)

    def test_capped_flow_releases_bandwidth(self):
        done = run_transfers({"l": 100.0},
                             [(["l"], 100.0, 10.0, 0.0),
                              (["l"], 100.0, math.inf, 0.0)])
        assert done["0"] == pytest.approx(10.0)
        # The uncapped flow gets the remaining 90 B/s.
        assert done["1"] == pytest.approx(100.0 / 90.0)

    def test_flow_without_resources_needs_cap(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        with pytest.raises(SimulationError):
            net.transfer([], 100.0)

    def test_flow_with_only_cap(self):
        done = run_transfers({}, [([], 100.0, 20.0, 0.0)])
        assert done["0"] == pytest.approx(5.0)


class TestMultiResource:
    def test_bottleneck_is_the_minimum(self):
        # NIC 1000 B/s, server 100 B/s: server is the bottleneck.
        done = run_transfers({"nic": 1000.0, "srv": 100.0},
                             [(["nic", "srv"], 100.0, math.inf, 0.0)])
        assert done["0"] == pytest.approx(1.0)

    def test_two_nics_one_server(self):
        done = run_transfers(
            {"n1": 1000.0, "n2": 1000.0, "srv": 100.0},
            [(["n1", "srv"], 100.0, math.inf, 0.0),
             (["n2", "srv"], 100.0, math.inf, 0.0)])
        assert done["0"] == pytest.approx(2.0)
        assert done["1"] == pytest.approx(2.0)

    def test_maxmin_asymmetric(self):
        # Flow A uses link1 only (cap 100). Flows A+B share link2 (cap 60).
        # Max-min: link2 gives 30 each; A further limited by nothing else
        # (link1 has 100): A=30, B=30.
        done = run_transfers(
            {"l1": 100.0, "l2": 60.0},
            [(["l1", "l2"], 30.0, math.inf, 0.0),
             (["l2"], 30.0, math.inf, 0.0)])
        assert done["0"] == pytest.approx(1.0)
        assert done["1"] == pytest.approx(1.0)

    def test_unbottlenecked_flow_grabs_leftover(self):
        # l1: flows A,B -> 50 each. l2: flow C alone after picking up
        # leftover: C capped only by l2 (100): rate 100.
        done = run_transfers(
            {"l1": 100.0, "l2": 100.0},
            [(["l1"], 50.0, math.inf, 0.0),
             (["l1"], 50.0, math.inf, 0.0),
             (["l2"], 100.0, math.inf, 0.0)])
        assert done["0"] == pytest.approx(1.0)
        assert done["1"] == pytest.approx(1.0)
        assert done["2"] == pytest.approx(1.0)


class TestValidation:
    def test_duplicate_capacity_name(self):
        net = FlowNetwork(Simulator())
        net.add_capacity("x", 1.0)
        with pytest.raises(SimulationError):
            net.add_capacity("x", 2.0)

    def test_nonpositive_capacity(self):
        net = FlowNetwork(Simulator())
        with pytest.raises(SimulationError):
            net.add_capacity("bad", 0.0)

    @pytest.mark.parametrize("kernel", [
        "python",
        pytest.param("compiled", marks=pytest.mark.skipif(
            kernel_status() == "unavailable", reason="no C compiler")),
    ])
    def test_nan_capacity_rejected(self, kernel):
        """A NaN capacity used to pass ``capacity <= 0``; the python
        kernel then never finished a flow across it while the compiled
        one did. Both entry points refuse it and leave the link as it
        was."""
        sim = Simulator()
        net = FlowNetwork(sim, kernel=kernel)
        with pytest.raises(SimulationError, match="nan"):
            net.add_capacity("nan", math.nan)
        link = net.add_capacity("l", 100.0)
        flow = net.transfer([link], 100.0)
        with pytest.raises(SimulationError, match="nan"):
            link.set_capacity(math.nan)
        sim.run()
        assert link.capacity == 100.0
        assert flow.end_time == pytest.approx(1.0)

    def test_negative_bytes(self):
        net = FlowNetwork(Simulator())
        link = net.add_capacity("l", 1.0)
        with pytest.raises(SimulationError):
            net.transfer([link], -5.0)

    @pytest.mark.parametrize("nbytes,rate_cap", [
        pytest.param(math.nan, math.inf, id="nan-bytes"),
        pytest.param(math.inf, math.inf, id="inf-bytes"),
        pytest.param(-math.inf, math.inf, id="minus-inf-bytes"),
        pytest.param(10.0, math.nan, id="nan-rate-cap"),
    ])
    def test_non_finite_input_rejected_at_the_call(self, nbytes, rate_cap):
        """A NaN volume used to fail later inside a recompute ("cannot
        schedule at time=nan"), an infinite one never completed, and a
        NaN cap ran uncapped: each is now refused by ``transfer``, with
        the flow's label in the message, and leaves no flow behind."""
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 1.0)
        with pytest.raises(SimulationError, match="'ost7-seg3'"):
            net.transfer([link], nbytes, rate_cap=rate_cap,
                         label="ost7-seg3")
        assert net.active_flow_count == 0
        sim.run()
        assert sim.now == 0.0

    def test_infinite_rate_cap_means_uncapped(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 100.0)
        flow = net.transfer([link], 100.0, rate_cap=math.inf)
        sim.run()
        assert flow.end_time == pytest.approx(1.0)

    def test_too_many_resources(self):
        net = FlowNetwork(Simulator())
        links = [net.add_capacity(f"l{i}", 1.0) for i in range(5)]
        with pytest.raises(SimulationError):
            net.transfer(links, 10.0)

    def test_foreign_capacity_rejected(self):
        sim = Simulator()
        net_a, net_b = FlowNetwork(sim), FlowNetwork(sim)
        foreign = net_b.add_capacity("l", 1.0)
        with pytest.raises(SimulationError):
            net_a.transfer([foreign], 10.0)


class TestCancel:
    def test_cancelled_flow_never_completes(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 10.0)
        flow = net.transfer([link], 1000.0)
        other = net.transfer([link], 10.0)

        def canceller():
            yield sim.timeout(0.5)
            flow.cancel()

        sim.process(canceller())
        sim.run()
        assert not flow.event.triggered
        assert other.event.triggered
        # After cancel, the other flow got the full link.
        assert other.end_time < 2.0


class TestAccounting:
    def test_total_bytes_moved(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 100.0)
        net.transfer([link], 250.0)
        net.transfer([link], 750.0)
        sim.run()
        assert net.total_bytes_moved == pytest.approx(1000.0, rel=1e-6)
        assert net.completed_flows == 2

    def test_slot_reuse_after_many_flows(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 1000.0)
        count = []

        def worker(i):
            yield sim.timeout(i * 0.1)
            flow = net.transfer([link], 10.0)
            yield flow.event
            count.append(i)

        for i in range(300):  # > initial slab of 64 slots
            sim.process(worker(i))
        sim.run()
        assert len(count) == 300
        assert net.active_flow_count == 0


class TestCapacityChange:
    def test_set_capacity_rescales_flows(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 100.0)
        done = {}

        def worker():
            flow = net.transfer([link], 200.0)
            yield flow.event
            done["t"] = sim.now

        def degrade():
            yield sim.timeout(1.0)  # 100 B moved so far
            link.set_capacity(50.0)  # remaining 100 B at 50 B/s -> +2 s

        sim.process(worker())
        sim.process(degrade())
        sim.run()
        assert done["t"] == pytest.approx(3.0)


class TestSlotGrowth:
    def test_grown_slots_are_clean(self):
        """Growing the slot arrays must zero/inf-pad the new slots —
        ``np.resize`` used to tile the old values into them, leaving
        stale ``_flow_cap``/``_remaining`` entries."""
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 1e6)
        # Exceed the initial 64-slot slab with distinctive values that
        # would be visible if tiled into the grown region.
        for _ in range(100):
            net.transfer([link], 1e3, rate_cap=5.0)
        free = np.array(sorted(net._free), dtype=np.int64)
        assert free.size > 0
        assert np.all(np.isinf(net._flow_cap[free]))
        assert np.all(net._remaining[free] == 0.0)
        assert all(net._slot_res[i] == () for i in free.tolist())
        assert np.all(net._start[free] == 0.0)
        assert not net._active[free].any()

    def test_flows_across_growth_complete_correctly(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 100.0)
        flows = [net.transfer([link], 50.0) for _ in range(80)]
        sim.run()
        assert net.completed_flows == 80
        assert all(f.event.triggered for f in flows)
        # 80 equal flows of 50 B share 100 B/s: all finish at t=40.
        assert sim.now == pytest.approx(40.0)


class TestCompletionTick:
    def test_no_heap_leak_under_staggered_arrivals(self):
        """Each recompute used to push a fresh version-stale tick event;
        with chained arrivals the heap must stay a handful of entries."""
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 1e6)
        peak = [0]
        started = [0]

        def arrive():
            started[0] += 1
            net.transfer([link], 1e4)
            if started[0] < 100:
                sim.schedule_callback(1e-3, arrive)
            peak[0] = max(peak[0], len(sim._heap))

        sim.schedule_callback(0.0, arrive)
        sim.run()
        assert net.completed_flows == 100
        assert peak[0] <= 10

    def test_arrival_on_link_with_headroom_keeps_existing_rates(self):
        # A (cap 100, 100 B) starts at t=0 on a 1000 B/s link; B
        # (cap 200, 100 B) arrives at t=0.5. Neither saturates the link,
        # so A keeps its rate: A ends at 1.0, B at 1.0.
        done = run_transfers({"l": 1000.0},
                             [(["l"], 100.0, 100.0, 0.0),
                              (["l"], 100.0, 200.0, 0.5)])
        assert done["0"] == pytest.approx(1.0)
        assert done["1"] == pytest.approx(1.0)

    def test_arrival_squeezing_capped_flow_recomputes(self):
        # A (cap 60, 120 B) alone on a 100 B/s link: rate 60. B
        # (uncapped, 100 B) arrives at t=1: fair share drops A to 50.
        # A: 60 B left at 50 B/s -> ends 2.2. B then finishes its
        # remaining 40 B alone at min(cap, 100) = 100 B/s -> ends 2.6.
        done = run_transfers({"l": 100.0},
                             [(["l"], 120.0, 60.0, 0.0),
                              (["l"], 100.0, math.inf, 1.0)])
        assert done["0"] == pytest.approx(2.2)
        assert done["1"] == pytest.approx(2.6)


class TestMaxMinProperties:
    """Property-based checks on the water-filling solver."""

    @given(
        nbytes=st.lists(st.floats(min_value=1.0, max_value=1e6),
                        min_size=1, max_size=30),
        capacity=st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_link_work_conservation(self, nbytes, capacity):
        """On one shared link the total finish time equals volume/capacity."""
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", capacity)
        for volume in nbytes:
            net.transfer([link], volume)
        sim.run()
        expected = sum(nbytes) / capacity
        assert sim.now == pytest.approx(expected, rel=1e-5)

    @given(
        n=st.integers(min_value=1, max_value=20),
        capacity=st.floats(min_value=10.0, max_value=1e5),
    )
    @settings(max_examples=30, deadline=None)
    def test_equal_flows_finish_together(self, n, capacity):
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", capacity)
        ends = []

        def worker():
            flow = net.transfer([link], 1000.0)
            yield flow.event
            ends.append(sim.now)

        for _ in range(n):
            sim.process(worker())
        sim.run()
        assert len(ends) == n
        assert np.ptp(ends) < 1e-6 * max(ends)

    @given(
        caps=st.lists(st.floats(min_value=1.0, max_value=100.0),
                      min_size=2, max_size=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_rates_never_exceed_capacity(self, caps):
        """Sum of allocated rates on a link never exceeds its capacity."""
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_capacity("l", 50.0)
        for cap in caps:
            net.transfer([link], 100.0, rate_cap=cap)
        # Force one recompute, then inspect rates directly.
        sim.run(until=0.0)
        active = net._active
        total_rate = float(net._rate[active].sum())
        assert total_rate <= 50.0 * (1.0 + 1e-9) + 1e-6
