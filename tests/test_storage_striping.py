"""Unit + property tests for stripe layouts and the target service model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineSpec
from repro.errors import StorageError
from repro.storage import StorageTarget, StripeLayout, TargetSpec
from repro.storage.striping import pick_targets
from repro.units import GiB, KiB, MiB


class TestStripeLayout:
    def test_validation(self):
        with pytest.raises(StorageError):
            StripeLayout(0, (0,))
        with pytest.raises(StorageError):
            StripeLayout(1024, ())

    def test_target_of(self):
        layout = StripeLayout(100, (3, 7, 9))
        assert layout.target_of(0) == 3
        assert layout.target_of(99) == 3
        assert layout.target_of(100) == 7
        assert layout.target_of(250) == 9
        assert layout.target_of(300) == 3  # wraps

    def test_split_single_stripe(self):
        layout = StripeLayout(1024, (0, 1))
        assert layout.split(0, 512) == {0: 512}

    def test_split_crossing_boundary(self):
        layout = StripeLayout(1024, (0, 1))
        assert layout.split(512, 1024) == {0: 512, 1: 512}

    def test_split_whole_cycles(self):
        layout = StripeLayout(100, (5, 6))
        # 4 full stripes: 2 per target.
        assert layout.split(0, 400) == {5: 200, 6: 200}

    def test_split_zero_bytes(self):
        assert StripeLayout(100, (0,)).split(50, 0) == {}

    def test_split_negative_raises(self):
        with pytest.raises(StorageError):
            StripeLayout(100, (0,)).split(0, -1)

    def test_stripes_touched(self):
        layout = StripeLayout(100, (0, 1))
        assert list(layout.stripes_touched(150, 200)) == [1, 2, 3]
        assert list(layout.stripes_touched(0, 0)) == []

    @given(
        offset=st.integers(min_value=0, max_value=10**9),
        nbytes=st.integers(min_value=1, max_value=10**8),
        stripe_size=st.integers(min_value=1, max_value=10**7),
        ntargets=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_conserves_bytes(self, offset, nbytes, stripe_size,
                                   ntargets):
        """Property: the per-target segments always sum to the request."""
        layout = StripeLayout(stripe_size, tuple(range(ntargets)))
        segments = layout.split(offset, nbytes)
        assert sum(segments.values()) == nbytes
        assert all(t in range(ntargets) for t in segments)

    @given(
        nbytes=st.integers(min_value=1, max_value=10**8),
        stripe_size=st.integers(min_value=1, max_value=10**6),
        ntargets=st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_bulk_path_matches_naive_path(self, nbytes, stripe_size,
                                          ntargets):
        """The fast whole-cycle path and the naive loop must agree."""
        layout = StripeLayout(stripe_size, tuple(range(ntargets)))
        got = layout.split(0, nbytes)

        naive = {}
        position = 0
        while position < nbytes:
            stripe = position // stripe_size
            end = min((stripe + 1) * stripe_size, nbytes)
            target = stripe % ntargets
            naive[target] = naive.get(target, 0) + (end - position)
            position = end
        assert got == naive

    def test_pick_targets_wraps(self):
        assert pick_targets(4, 3, 2) == (2, 3, 0)

    def test_pick_targets_clamps_count(self):
        assert pick_targets(2, 10, 0) == (0, 1)

    def test_pick_targets_requires_targets(self):
        with pytest.raises(StorageError):
            pick_targets(0, 1, 0)


class TestTargetSpec:
    def test_validation(self):
        with pytest.raises(StorageError):
            TargetSpec(peak_bandwidth=0)
        with pytest.raises(StorageError):
            TargetSpec(min_efficiency=0)
        with pytest.raises(StorageError):
            TargetSpec(object_half=0)
        with pytest.raises(StorageError):
            TargetSpec(straggler_sigma=-1)


class TestStorageTarget:
    def make_target(self, **spec_kwargs):
        machine = Machine(MachineSpec(nodes=1, cores_per_node=2),
                          seed=5, completion_slack=0.0, fairness_slack=0.0)
        spec = TargetSpec(**spec_kwargs)
        return machine, StorageTarget(machine, "t0", spec)

    def test_efficiency_degrades_with_objects(self):
        _, target = self.make_target(object_half=10.0)
        assert target.efficiency(1, 1) == 1.0
        assert target.efficiency(2, 2) < 1.0
        # At the half-point (+1 object), efficiency is ~50 %.
        assert target.efficiency(11, 11) == pytest.approx(0.5, rel=0.05)
        assert target.efficiency(10000, 1) >= target.spec.min_efficiency

    def test_stream_curve_is_gentler_than_object_curve(self):
        _, target = self.make_target(object_half=20.0, stream_half=1500.0)
        # 100 streams inside ONE file barely hurt; 100 files hurt a lot.
        one_file = target.efficiency(1, 100)
        many_files = target.efficiency(100, 100)
        assert one_file > 0.9
        assert many_files < 0.25

    def test_efficiency_floor(self):
        _, target = self.make_target(object_half=1.0, min_efficiency=0.25)
        assert target.efficiency(1000, 1000) == 0.25

    def test_request_rate_cap_small_requests_penalised(self):
        _, target = self.make_target(request_overhead_bytes=256 * KiB)
        small = target.request_rate_cap(4 * KiB)
        large = target.request_rate_cap(64 * MiB)
        assert small < 0.05 * target.spec.stream_peak
        assert large > 0.95 * target.spec.stream_peak

    def test_straggler_factor_is_positive_and_seeded(self):
        machine, target = self.make_target(straggler_sigma=0.5)
        factors = [target.straggler_factor() for _ in range(100)]
        assert all(f > 0 for f in factors)
        assert np.std(factors) > 0

    def test_straggler_disabled(self):
        _, target = self.make_target(straggler_sigma=0.0)
        assert target.straggler_factor() == 1.0

    def test_write_segment_moves_bytes(self):
        machine, target = self.make_target(straggler_sigma=0.0,
                                           request_latency=0.0)
        node = machine.nodes[0]
        done = target.write_segment(node, 10 * MiB, file_id=1)
        machine.sim.run()
        assert done.processed
        assert target.bytes_written == 10 * MiB
        assert target.requests_served == 1
        assert target.active_streams == 0

    def test_concurrent_objects_degrade_capacity(self):
        machine, target = self.make_target(
            straggler_sigma=0.0, request_latency=0.0, object_half=2.0)
        node = machine.nodes[0]
        for i in range(4):
            target.write_segment(node, 10 * MiB, file_id=i)
        baseline_machine, baseline_target = self.make_target(
            straggler_sigma=0.0, request_latency=0.0, object_half=1e9)
        for i in range(4):
            baseline_target.write_segment(baseline_machine.nodes[0],
                                          10 * MiB, file_id=i)
        machine.sim.run()
        baseline_machine.sim.run()
        assert machine.sim.now > baseline_machine.sim.now

    def test_granularity_caps_stream_rate(self):
        machine, target = self.make_target(
            straggler_sigma=0.0, request_latency=0.0,
            request_overhead_bytes=1 * MiB)
        node = machine.nodes[0]
        # 10 MiB written with 64 KiB granularity: cap = peak * 1/17.
        target.write_segment(node, 10 * MiB, file_id=1,
                             granularity=64 * KiB)
        machine.sim.run()
        coarse_machine, coarse_target = self.make_target(
            straggler_sigma=0.0, request_latency=0.0,
            request_overhead_bytes=1 * MiB)
        coarse_target.write_segment(coarse_machine.nodes[0], 10 * MiB,
                                    file_id=1)
        coarse_machine.sim.run()
        assert machine.sim.now > 5 * coarse_machine.sim.now

    def test_interference_validation_and_effect(self):
        machine, target = self.make_target(straggler_sigma=0.0,
                                           request_latency=0.0)
        with pytest.raises(StorageError):
            target.set_interference(0.0)
        target.set_interference(0.5)
        assert target.link.capacity == pytest.approx(
            0.5 * target.spec.peak_bandwidth)
