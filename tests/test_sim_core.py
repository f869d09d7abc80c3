"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.core import AllOf, Event, Timeout


class TestEnvironmentBasics:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_clock_starts_at_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_peek_empty_queue_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_run_until_past_time_raises(self, env):
        env2 = Environment(initial_time=10.0)
        with pytest.raises(SimulationError):
            env2.run(until=5.0)

    def test_run_without_events_returns_none(self, env):
        assert env.run() is None


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        def proc():
            yield env.timeout(3.5)
            return env.now

        result = env.run(env.process(proc()))
        assert result == pytest.approx(3.5)

    def test_zero_delay_timeout_is_valid(self, env):
        def proc():
            yield env.timeout(0.0)
            return "done"

        assert env.run(env.process(proc())) == "done"

    def test_negative_delay_raises(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_timeout_value_is_passed_to_process(self, env):
        def proc():
            value = yield env.timeout(1.0, value="payload")
            return value

        assert env.run(env.process(proc())) == "payload"

    def test_sequential_timeouts_accumulate(self, env):
        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            yield env.timeout(3.0)
            return env.now

        assert env.run(env.process(proc())) == pytest.approx(6.0)


class TestEvents:
    def test_event_succeed_delivers_value(self, env):
        event = env.event()

        def waiter():
            value = yield event
            return value

        def trigger():
            yield env.timeout(1.0)
            event.succeed(42)

        process = env.process(waiter())
        env.process(trigger())
        assert env.run(process) == 42

    def test_event_cannot_trigger_twice(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_event_fail_raises_in_waiter(self, env):
        event = env.event()

        def waiter():
            with pytest.raises(ValueError):
                yield event
            return "handled"

        def trigger():
            yield env.timeout(1.0)
            event.fail(ValueError("boom"))

        process = env.process(waiter())
        env.process(trigger())
        assert env.run(process) == "handled"

    def test_fail_requires_exception_instance(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_ok_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_triggered_and_processed_flags(self, env):
        event = env.event()
        assert not event.triggered
        event.succeed("x")
        assert event.triggered
        assert not event.processed
        env.run()
        assert event.processed


class TestProcesses:
    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1.0)
            return "result"

        assert env.run(env.process(proc())) == "result"

    def test_process_requires_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_process_waiting_on_process(self, env):
        def child():
            yield env.timeout(2.0)
            return "child-result"

        def parent():
            result = yield env.process(child())
            return result, env.now

        value, when = env.run(env.process(parent()))
        assert value == "child-result"
        assert when == pytest.approx(2.0)

    def test_yielding_non_event_raises(self, env):
        def proc():
            yield 42  # type: ignore[misc]

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_in_process_propagates_to_waiter(self, env):
        def failing():
            yield env.timeout(1.0)
            raise RuntimeError("inner failure")

        def parent():
            with pytest.raises(RuntimeError):
                yield env.process(failing())
            return "ok"

        assert env.run(env.process(parent())) == "ok"

    def test_unhandled_process_exception_surfaces_from_run(self, env):
        def failing():
            yield env.timeout(1.0)
            raise RuntimeError("kaboom")

        env.process(failing())
        with pytest.raises(RuntimeError, match="kaboom"):
            env.run()

    def test_retarget_moves_the_wakeup(self, env):
        wakes = []

        def sleeper():
            value = yield env.timeout(10.0, value="late")
            wakes.append((env.now, value))

        def mover(target):
            yield env.timeout(2.0)
            target.retarget(env.timeout_at(3.5, value="early"))

        target = env.process(sleeper())
        env.process(mover(target))
        env.run(until=5.0)
        assert wakes == [(3.5, "early")]
        assert target.triggered
        # The abandoned timeout still fires, but resumes nobody.
        env.run()
        assert env.now == 10.0
        assert wakes == [(3.5, "early")]

    def test_retarget_needs_a_waiting_process(self, env):
        def quick():
            yield env.timeout(0.5)

        process = env.process(quick())
        with pytest.raises(SimulationError):
            process.retarget(env.timeout(1.0))  # not started yet
        env.run()
        with pytest.raises(SimulationError):
            process.retarget(env.timeout(1.0))  # finished

    def test_retarget_onto_processed_event_raises(self, env):
        fired = env.timeout(0.0)

        def sleeper():
            yield env.timeout(5.0)

        process = env.process(sleeper())
        env.run(until=1.0)
        with pytest.raises(SimulationError):
            process.retarget(fired)

    def test_close_stops_a_waiting_process(self, env):
        wakes = []
        closed = []

        def sleeper():
            try:
                yield env.timeout(5.0)
                wakes.append(env.now)
            finally:
                closed.append(env.now)

        process = env.process(sleeper())
        env.run(until=1.0)
        process.close()
        assert closed == [1.0]
        # The timeout it waited on still fires, but resumes nobody.
        env.run()
        assert env.now == 5.0
        assert wakes == []
        assert not process.triggered

    def test_two_processes_interleave_in_time_order(self, env):
        order = []

        def proc(name, delay):
            yield env.timeout(delay)
            order.append((name, env.now))

        env.process(proc("slow", 3.0))
        env.process(proc("fast", 1.0))
        env.run()
        assert order == [("fast", 1.0), ("slow", 3.0)]


class TestConditionEvents:
    def test_all_of_waits_for_every_event(self, env):
        def child(delay, value):
            yield env.timeout(delay)
            return value

        def parent():
            results = yield AllOf(env, [env.process(child(1, "a")), env.process(child(3, "b"))])
            return results, env.now

        results, when = env.run(env.process(parent()))
        assert when == pytest.approx(3.0)
        assert sorted(results.values()) == ["a", "b"]

    def test_all_of_with_already_triggered_events(self, env):
        timeout_a = env.timeout(0.0, value="x")
        timeout_b = env.timeout(0.0, value="y")

        def parent():
            yield env.timeout(1.0)
            results = yield AllOf(env, [timeout_a, timeout_b])
            return results

        results = env.run(env.process(parent()))
        assert set(results.values()) == {"x", "y"}

    def test_env_helpers_build_condition_events(self, env):
        events = [env.timeout(1.0), env.timeout(2.0)]
        assert isinstance(env.all_of(events), AllOf)

    def test_all_of_preserves_index_order(self, env):
        def child(delay, value):
            yield env.timeout(delay)
            return value

        def parent():
            processes = [env.process(child(3 - i, i)) for i in range(3)]
            results = yield env.all_of(processes)
            return [results[i] for i in sorted(results)]

        assert env.run(env.process(parent())) == [0, 1, 2]


class TestRunUntil:
    def test_run_until_time_stops_clock_at_that_time(self, env):
        def proc():
            for _ in range(10):
                yield env.timeout(1.0)

        env.process(proc())
        env.run(until=3.5)
        assert env.now == pytest.approx(3.5)

    def test_run_until_event(self, env):
        def proc():
            yield env.timeout(2.0)
            return "finished"

        process = env.process(proc())
        assert env.run(until=process) == "finished"

    def test_run_until_untriggered_event_raises(self, env):
        event = env.event()

        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run(until=event)

    def test_queue_drains_before_numeric_until_lands_clock_on_until(self, env):
        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        env.run(until=7.25)
        # The last event fires at t=1.0; the caller asked for t=7.25, so the
        # clock must land exactly there (not on the last event time).
        assert env.now == 7.25

    def test_drained_until_is_exact_and_resumable(self, env):
        env.run(until=2.5)
        assert env.now == 2.5
        # A later run from the drained state starts from the advanced clock.
        def proc():
            yield env.timeout(1.0)

        env.process(proc())
        env.run()
        assert env.now == 3.5

    def test_events_processed_counts_every_step(self, env):
        def proc():
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(proc())
        env.run()
        # Process start event, five timeouts, and the process-end event.
        assert env.events_processed == 7
