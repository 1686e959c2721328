"""Unit tests for generator processes, interrupts and composite conditions."""

import pytest

from repro.des import AllOf, AnyOf, Interrupt, Simulator
from repro.errors import ProcessKilled, SimulationError


class TestProcessBasics:
    def test_requires_generator(self):
        with pytest.raises(SimulationError):
            Simulator().process(lambda: None)

    def test_return_value_becomes_event_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return "result"

        assert sim.run_until_complete(sim.process(proc())) == "result"

    def test_processes_wait_on_each_other(self):
        sim = Simulator()
        log = []

        def child():
            yield sim.timeout(2.0)
            return "child-value"

        def parent():
            value = yield sim.process(child())
            log.append((sim.now, value))

        sim.process(parent())
        sim.run()
        assert log == [(2.0, "child-value")]

    def test_yield_non_event_fails_process(self):
        sim = Simulator()

        def bad():
            yield 42

        proc = sim.process(bad())
        proc.defuse()
        sim.run()
        assert not proc.ok
        assert isinstance(proc.exception, SimulationError)

    def test_exception_in_process_propagates(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise KeyError("inner")

        sim.process(bad())
        with pytest.raises(KeyError):
            sim.run()

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()
        caught = []

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("inner")

        def waiter():
            try:
                yield sim.process(bad())
            except ValueError as exc:
                caught.append(exc)

        sim.process(waiter())
        sim.run()
        assert len(caught) == 1

    def test_yield_already_processed_event(self):
        sim = Simulator()
        done = sim.event()
        done.succeed("early")
        log = []

        def late_waiter():
            yield sim.timeout(5.0)
            value = yield done
            log.append((sim.now, value))

        sim.process(late_waiter())
        sim.run()
        assert log == [(5.0, "early")]

    def test_is_alive(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_wakes_process(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                log.append((sim.now, interrupt.cause))

        victim = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(3.0)
            victim.interrupt(cause="wake up")

        sim.process(interrupter())
        sim.run()
        assert log == [(3.0, "wake up")]

    def test_interrupt_terminated_raises(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.0)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_process_can_continue_after_interrupt(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass
            yield sim.timeout(1.0)
            log.append(sim.now)

        victim = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(2.0)
            victim.interrupt()

        sim.process(interrupter())
        sim.run()
        assert log == [3.0]

    def test_interrupt_from_a_callback_of_the_awaited_event(self):
        # The interrupter waits on the same event and resumes first, so
        # it interrupts the victim while that event's callbacks run. The
        # victim gets the interrupt at the yield it was waiting at, not
        # the event's value followed by the interrupt at its next yield.
        sim = Simulator()
        gate = sim.event()
        log = []

        def interrupter():
            yield gate
            victim.interrupt(cause="stop")

        def waiter():
            try:
                log.append(("value", (yield gate), sim.now))
            except Interrupt as interrupt:
                log.append(("interrupt", interrupt.cause, sim.now))
            try:
                yield sim.timeout(5.0)
                log.append(("timeout", sim.now))
            except Interrupt as interrupt:
                log.append(("late interrupt", interrupt.cause, sim.now))

        sim.process(interrupter())
        victim = sim.process(waiter())
        sim.call_later(1.0, lambda: gate.succeed("open"))
        sim.run()
        assert log == [("interrupt", "stop", 1.0), ("timeout", 6.0)]


class TestKill:
    def test_kill_stops_execution(self):
        sim = Simulator()
        log = []

        def sleeper():
            yield sim.timeout(100.0)
            log.append("should never run")

        victim = sim.process(sleeper())

        def killer():
            yield sim.timeout(1.0)
            victim.kill()

        sim.process(killer())
        sim.run()
        assert log == []
        assert not victim.is_alive
        assert isinstance(victim.exception, ProcessKilled)

    def test_kill_twice_is_idempotent(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        victim = sim.process(sleeper())

        def killer():
            yield sim.timeout(1.0)
            victim.kill()
            victim.kill()

        sim.process(killer())
        sim.run()

    def test_kill_before_first_step(self):
        sim = Simulator()
        log = []

        def child():
            log.append("should never run")
            yield sim.timeout(1.0)

        victim = sim.process(child())
        victim.kill()
        sim.run()
        assert log == []
        assert not victim.is_alive
        assert isinstance(victim.exception, ProcessKilled)
        assert sim.now == 0.0


class TestConditions:
    def test_anyof_fires_on_first(self):
        sim = Simulator()
        seen = []

        def waiter():
            result = yield AnyOf(sim, [sim.timeout(5.0, "slow"),
                                       sim.timeout(1.0, "fast")])
            seen.append((sim.now, sorted(result.values())))

        sim.process(waiter())
        sim.run()
        assert seen == [(1.0, ["fast"])]

    def test_allof_waits_for_all(self):
        sim = Simulator()
        seen = []

        def waiter():
            result = yield AllOf(sim, [sim.timeout(5.0, "slow"),
                                       sim.timeout(1.0, "fast")])
            seen.append((sim.now, sorted(result.values())))

        sim.process(waiter())
        sim.run()
        assert seen == [(5.0, ["fast", "slow"])]

    def test_empty_allof_fires_immediately(self):
        sim = Simulator()
        seen = []

        def waiter():
            result = yield AllOf(sim, [])
            seen.append((sim.now, result))

        sim.process(waiter())
        sim.run()
        assert seen == [(0.0, {})]

    def test_condition_propagates_child_failure(self):
        sim = Simulator()
        bad = sim.event()
        bad.fail(RuntimeError("child died"))
        bad.defuse()  # creator hands the failure to the condition
        caught = []

        def waiter():
            try:
                yield AllOf(sim, [bad, sim.timeout(1.0)])
            except RuntimeError as exc:
                caught.append(exc)

        sim.process(waiter())
        sim.run()
        assert len(caught) == 1

    def test_allof_many_events(self):
        sim = Simulator()
        seen = []

        def waiter():
            yield AllOf(sim, [sim.timeout(float(i)) for i in range(50)])
            seen.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert seen == [49.0]
