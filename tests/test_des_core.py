"""Unit tests for the DES kernel: Simulator, Event, Timeout."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Simulator
from repro.des.core import (Event, Timeout, PRIORITY_FAULT, PRIORITY_LATE,
                            PRIORITY_NORMAL, PRIORITY_URGENT)
from repro.errors import SimulationError


class TestSimulatorClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_time_advances_with_timeouts(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_run_until_stops_at_bound(self):
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_run_until_in_past_raises(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_peek_empty_is_inf(self):
        assert Simulator().peek() == float("inf")

    def test_step_empty_raises(self):
        with pytest.raises(SimulationError):
            Simulator().step()

    def test_events_processed_in_time_order(self):
        sim = Simulator()
        seen = []
        for delay in (3.0, 1.0, 2.0):
            sim.schedule_callback(delay, lambda d=delay: seen.append(d))
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_same_time_events_fifo(self):
        sim = Simulator()
        seen = []
        for tag in range(5):
            sim.schedule_callback(1.0, lambda t=tag: seen.append(t))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_priority_orders_same_time_events(self):
        sim = Simulator()
        seen = []
        sim.schedule_callback(1.0, lambda: seen.append("late"),
                              priority=PRIORITY_LATE)
        sim.schedule_callback(1.0, lambda: seen.append("normal"))
        sim.schedule_callback(1.0, lambda: seen.append("urgent"),
                              priority=PRIORITY_URGENT)
        sim.run()
        assert seen == ["urgent", "normal", "late"]

    def test_run_until_inf_drains_and_keeps_clock(self):
        # run(until=inf) drains the queue but must leave the clock at
        # the last processed event, not at inf.
        sim = Simulator()
        sim.timeout(5.0)
        sim.run(until=float("inf"))
        assert sim.now == 5.0
        assert sim.peek() == float("inf")

    def test_run_until_inf_empty_queue(self):
        sim = Simulator()
        sim.run(until=float("inf"))
        assert sim.now == 0.0

    def test_run_until_now_is_noop(self):
        sim = Simulator()
        sim.timeout(2.0)
        sim.run()
        sim.run(until=2.0)  # until == now: processes nothing, keeps clock
        assert sim.now == 2.0

    def test_run_until_before_next_event_advances_clock_only(self):
        sim = Simulator()
        fired = []
        sim.schedule_callback(4.0, lambda: fired.append(True))
        sim.run(until=1.5)
        assert sim.now == 1.5
        assert not fired

    def test_not_reentrant(self):
        sim = Simulator()
        err = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                err.append(exc)

        sim.schedule_callback(0.0, nested)
        sim.run()
        assert len(err) == 1


class TestEvent:
    def test_succeed_carries_value(self):
        sim = Simulator()
        event = sim.event()
        got = []
        event.callbacks.append(lambda e: got.append(e.value))
        event.succeed(42)
        sim.run()
        assert got == [42]

    def test_double_succeed_raises(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_fail_undefused_crashes_simulation(self):
        sim = Simulator()
        sim.event().fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_fail_defused_is_silent(self):
        sim = Simulator()
        event = sim.event()
        event.fail(ValueError("boom"))
        event.defuse()
        sim.run()  # must not raise

    def test_lifecycle_flags(self):
        sim = Simulator()
        event = sim.event()
        assert not event.triggered and not event.processed
        event.succeed("x")
        assert event.triggered and not event.processed
        sim.run()
        assert event.processed and event.ok

    def test_value_raises_on_failed_event(self):
        sim = Simulator()
        event = sim.event()
        event.fail(RuntimeError("nope"))
        event.defuse()
        sim.run()
        with pytest.raises(RuntimeError):
            _ = event.value


class TestTimeout:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(Simulator(), -1.0)

    def test_timeout_value(self):
        sim = Simulator()
        got = []

        def proc():
            got.append((yield sim.timeout(2.0, value="payload")))

        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_zero_delay_fires_now(self):
        sim = Simulator()
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.processed and sim.now == 0.0


class TestRunUntilComplete:
    def test_returns_process_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return 99

        assert sim.run_until_complete(sim.process(proc())) == 99

    def test_exhausted_queue_raises(self):
        sim = Simulator()
        never = sim.event()
        with pytest.raises(SimulationError):
            sim.run_until_complete(never)

    def test_process_awaited_after_it_finished(self):
        """A process that finished during an earlier wait returns its
        value at once, with a perpetual process still in the queue (it
        used to step that process forever)."""
        sim = Simulator()

        def reader(delay):
            yield sim.timeout(delay)
            return delay

        def walk():
            while True:
                yield sim.timeout(10.0)

        sim.process(walk())
        quick, slow = sim.process(reader(1.0)), sim.process(reader(5.0))
        assert sim.run_until_complete(slow) == 5.0
        now = sim.now
        assert sim.run_until_complete(quick) == 1.0
        assert sim.now == now

    def test_failed_defused_event_raises_its_exception(self):
        sim = Simulator()
        failed = sim.event()
        failed.defuse()
        failed.fail(ValueError("disk gone"))
        sim.run()
        assert failed.processed
        with pytest.raises(ValueError, match="disk gone"):
            sim.run_until_complete(failed)


class TestSlimCallbacks:
    """call_later/call_at push the bare callable onto the heap — no
    Event allocation — and interleave bit-identically with events."""

    def test_call_later_runs_in_time_order(self):
        sim = Simulator()
        seen = []
        for delay in (3.0, 1.0, 2.0):
            sim.call_later(delay, lambda d=delay: seen.append(d))
        sim.run()
        assert seen == [1.0, 2.0, 3.0]
        assert sim.now == 3.0

    def test_interleaves_fifo_with_events(self):
        # A slim callback and an event scheduled at the same (time,
        # priority) fire in submission order: both consume one sequence
        # number, so replacing one with the other cannot reorder anything.
        sim = Simulator()
        seen = []
        sim.call_later(1.0, lambda: seen.append("slim-first"))
        sim.schedule_callback(1.0, lambda: seen.append("event"))
        sim.call_later(1.0, lambda: seen.append("slim-last"))
        sim.run()
        assert seen == ["slim-first", "event", "slim-last"]

    def test_priority_respected(self):
        sim = Simulator()
        seen = []
        sim.call_later(1.0, lambda: seen.append("late"),
                       priority=PRIORITY_LATE)
        sim.call_later(1.0, lambda: seen.append("urgent"),
                       priority=PRIORITY_URGENT)
        sim.run()
        assert seen == ["urgent", "late"]

    def test_call_at_absolute_time(self):
        sim = Simulator()
        sim.timeout(2.0)
        seen = []
        sim.call_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().call_later(-1.0, lambda: None)

    def test_call_at_in_past_raises(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_no_event_on_heap(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        (_t, _prio, _seq, entry), = sim._heap
        assert not isinstance(entry, Event)
        assert callable(entry)

    def test_all_scheduling_paths_share_one_push(self):
        # Every public way onto the queue — event scheduling, timeouts,
        # call_later, call_at — funnels through Simulator._push, so the
        # (time, priority, seq) entry construction exists exactly once.
        sim = Simulator()
        pushed = []
        original = sim._push
        sim._push = lambda *a: (pushed.append(a), original(*a))[1]
        sim.schedule_callback(1.0, lambda: None)
        sim.timeout(2.0)
        sim.call_later(3.0, lambda: None)
        sim.call_at(4.0, lambda: None)
        assert [p[0] for p in pushed] == [1.0, 2.0, 3.0, 4.0]
        assert sim.queue_depth == 4
        sim.run()
        assert sim.now == 4.0

    def test_push_assigns_monotonic_seq(self):
        sim = Simulator()
        for delay in (5.0, 1.0, 3.0):
            sim.call_later(delay, lambda: None)
        seqs = sorted(seq for _t, _p, seq, _e in sim._heap)
        assert seqs == [1, 2, 3]

    def test_time_priority_fifo_order(self):
        # The full ordering contract: time, then priority, then FIFO.
        sim = Simulator()
        seen = []
        sim.schedule_callback(2.0, lambda: seen.append("t2"))
        sim.call_later(1.0, lambda: seen.append("late"),
                       priority=PRIORITY_LATE)
        sim.call_later(1.0, lambda: seen.append("urgent"),
                       priority=PRIORITY_URGENT)
        sim.call_later(1.0, lambda: seen.append("normal-a"))
        sim.call_later(1.0, lambda: seen.append("normal-b"))
        sim.run()
        assert seen == ["urgent", "normal-a", "normal-b", "late", "t2"]
        assert sim.now == 2.0


# One scheduling call: (kind, delay, priority, the calls its callback
# makes when it runs). A timeout always takes normal priority.
_CALL = st.tuples(
    st.sampled_from(["call_later", "call_at", "timeout", "succeed"]),
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
    st.sampled_from([PRIORITY_FAULT, PRIORITY_URGENT, PRIORITY_NORMAL,
                     PRIORITY_LATE]))
_PROGRAM = st.lists(
    st.recursive(
        _CALL.map(lambda call: call + ((),)),
        lambda children: st.tuples(_CALL, st.lists(children, max_size=3))
        .map(lambda pair: pair[0] + (tuple(pair[1]),)),
        max_leaves=24),
    min_size=1, max_size=8)


class TestQueueOrderProperty:
    """Whatever mix of scheduling calls a program makes, and whether a
    call comes from the top level or from a callback at the current
    instant, entries pop in (time, priority, push index) order, and
    ``peek``, ``queue_depth`` and ``_heap`` describe that same queue at
    every step. The lane for same-instant normal entries must not show."""

    @given(program=_PROGRAM)
    @settings(max_examples=300, deadline=None)
    def test_pop_order_matches_reference(self, program):
        sim = Simulator()
        pending = []  # reference queue: (time, priority, push index)
        popped = []
        pushes = itertools.count(1)

        def schedule(call):
            kind, delay, priority, children = call
            if kind == "timeout":
                priority = PRIORITY_NORMAL
            key = (sim.now + delay, priority, next(pushes))

            def fire(*_event):
                popped.append(key)
                for child in children:
                    schedule(child)

            if kind == "call_later":
                sim.call_later(delay, fire, priority=priority)
            elif kind == "call_at":
                sim.call_at(sim.now + delay, fire, priority=priority)
            elif kind == "timeout":
                sim.timeout(delay).callbacks.append(fire)
            else:
                event = sim.event()
                event.callbacks.append(fire)
                event.succeed(delay=delay, priority=priority)
            pending.append(key)

        for call in program:
            schedule(call)
        while pending:
            expected = sorted(pending)
            assert sim.queue_depth == len(expected)
            assert sim.peek() == expected[0][0]
            assert [entry[:3] for entry in sim._heap] == expected
            sim.step()
            assert popped[-1] == expected[0]
            assert sim.now == expected[0][0]
            pending.remove(expected[0])
        assert sim.queue_depth == 0 and sim.peek() == math.inf
        assert sim._heap == []
