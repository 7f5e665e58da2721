"""Unit tests for the discrete-event engine (repro.sim.engine)."""

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.engine import BaseEvent


def test_time_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(10)
        assert env.now == 10
        yield env.timeout(5)
        assert env.now == 15

    p = env.process(proc())
    env.run()
    assert env.now == 15
    assert p.triggered and p.ok


def test_timeout_value_is_delivered():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    for delay in (-1, float("nan")):
        with pytest.raises(SimulationError):
            env.timeout(delay)


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(3)
        return 42

    def parent(results):
        value = yield env.process(child())
        results.append(value)

    results = []
    env.process(parent(results))
    env.run()
    assert results == [42]


def test_run_until_process_returns_value():
    env = Environment()

    def child():
        yield env.timeout(7)
        return "done"

    p = env.process(child())
    assert env.run_until_process(p) == "done"
    assert env.now == 7


def test_run_until_time_stops_early():
    env = Environment()

    def proc():
        yield env.timeout(100)

    env.process(proc())
    final = env.run(until=40)
    assert final == 40
    assert env.now == 40
    # Remaining event still pending.
    assert env.peek() == 100


def test_run_until_past_raises():
    env = Environment()

    def noop():
        yield env.timeout(1)

    env.process(noop())
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=env.now - 1)


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(12)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(12, "open")]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("boom"))


def test_event_fail_throws_into_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_unhandled_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("kaput")

    env.process(bad())
    with pytest.raises(ValueError, match="kaput"):
        env.run()


def test_waited_process_exception_forwarded_to_parent():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(1)
        raise ValueError("inner")

    def parent():
        try:
            yield env.process(bad())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["inner"]


def test_yielding_non_event_raises():
    env = Environment()

    def bad():
        yield 5  # not an event

    env.process(bad())
    with pytest.raises(SimulationError, match="must[\\s\\S]*yield events"):
        env.run()


def test_late_callback_runs_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("v")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_deadlock_detected_by_run_until_process():
    env = Environment()
    never = env.event()

    def stuck():
        yield never

    p = env.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run_until_process(p)


def test_interleaving_of_two_processes():
    env = Environment()
    trace = []

    def ping():
        for _ in range(3):
            yield env.timeout(2)
            trace.append(("ping", env.now))

    def pong():
        for _ in range(2):
            yield env.timeout(3)
            trace.append(("pong", env.now))

    env.process(ping())
    env.process(pong())
    env.run()
    # At t=6 pong's timeout was scheduled (at t=3) before ping's (at t=4),
    # so pong fires first — the engine is FIFO in scheduling order.
    assert trace == [
        ("ping", 2), ("pong", 3), ("ping", 4), ("pong", 6), ("ping", 6),
    ]


def test_interrupt_wakes_process():
    env = Environment()
    from repro.sim import Interrupt

    log = []

    def sleeper():
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(target):
        yield env.timeout(5)
        target.interrupt("wake up")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert log == [(5, "wake up")]


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(9)
    assert env.peek() == 9


def test_schedule_in_past_rejected():
    env = Environment()
    for delay in (-1, float("nan")):
        with pytest.raises(SimulationError):
            env.schedule(BaseEvent(env), delay=delay)
