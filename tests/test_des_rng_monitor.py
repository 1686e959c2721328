"""Unit tests for the RNG stream factory and the unit formatters."""

import numpy as np

from repro.des import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(42).stream("noise").random(5)
        b = RandomStreams(42).stream("noise").random(5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        streams = RandomStreams(42)
        a = streams.stream("noise").random(5)
        b = streams.stream("interference").random(5)
        assert not np.array_equal(a, b)

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(7)
        s1.stream("a")
        first = s1.stream("b").random(4)

        s2 = RandomStreams(7)
        second = s2.stream("b").random(4)  # "b" created first here
        assert np.array_equal(first, second)

    def test_stream_is_cached(self):
        streams = RandomStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_fork_changes_randomness(self):
        base = RandomStreams(42)
        fork = base.fork(1)
        a = base.stream("n").random(4)
        b = fork.stream("n").random(4)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("n").random(4)
        b = RandomStreams(2).stream("n").random(4)
        assert not np.array_equal(a, b)


class TestUnits:
    def test_fmt_bytes(self):
        from repro.units import MiB, fmt_bytes
        assert fmt_bytes(24 * MiB) == "24.00 MiB"
        assert fmt_bytes(10) == "10 B"
        assert fmt_bytes(-24 * MiB) == "-24.00 MiB"

    def test_fmt_rate(self):
        from repro.units import GB, MB, fmt_rate
        assert fmt_rate(4.32 * GB) == "4.32 GB/s"
        assert fmt_rate(695 * MB) == "695.00 MB/s"

    def test_fmt_time(self):
        from repro.units import fmt_time
        assert fmt_time(0.2) == "200.00 ms"
        assert fmt_time(481.0) == "8m01.0s"
        assert fmt_time(2.5e-5) == "25.00 us"

    def test_parse_size(self):
        from repro.units import parse_size, MiB, MB
        assert parse_size("32MB") == 32 * MB
        assert parse_size("1 MiB") == MiB
        assert parse_size("512") == 512
        assert parse_size("1.5kb") == 1500
