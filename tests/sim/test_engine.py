"""Unit tests for the discrete-event engine."""

import inspect

import pytest

from repro.sim import Engine, Future, Resource, SimulationError
from tests.heap_engine import HeapEngine

#: the engine and the heap oracle it is differentially tested against (the
#: engine's ID dates from when it was a calendar queue)
both_schedulers = pytest.mark.parametrize(
    "engine_cls", [Engine, HeapEngine], ids=["calendar", "heap"]
)


def test_empty_run_leaves_time_at_zero():
    eng = Engine()
    eng.run()
    assert eng.now == 0


def test_call_at_orders_by_time():
    eng = Engine()
    log = []
    eng.call_at(50, lambda: log.append("b"))
    eng.call_at(10, lambda: log.append("a"))
    eng.call_at(90, lambda: log.append("c"))
    eng.run()
    assert log == ["a", "b", "c"]
    assert eng.now == 90


def test_ties_fire_in_schedule_order():
    eng = Engine()
    log = []
    for i in range(5):
        eng.call_at(42, log.append, i)
    eng.run()
    assert log == [0, 1, 2, 3, 4]


def test_call_after_is_relative():
    eng = Engine()
    seen = []
    eng.call_at(100, lambda: eng.call_after(5, lambda: seen.append(eng.now)))
    eng.run()
    assert seen == [105]


def test_scheduling_in_the_past_raises():
    eng = Engine()
    eng.call_at(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.call_at(5, lambda: None)


def test_process_delay_advances_time():
    eng = Engine()
    times = []

    def proc():
        yield 100
        times.append(eng.now)
        yield 50
        times.append(eng.now)

    eng.spawn(proc())
    eng.run()
    assert times == [100, 150]


def test_process_return_value_resolves_done_future():
    eng = Engine()

    def proc():
        yield 7
        return "payload"

    done = eng.spawn(proc())
    eng.run()
    assert done.resolved and done.value == "payload"


def test_zero_delay_does_not_schedule_event():
    eng = Engine()

    def proc():
        for _ in range(10):
            yield 0
        return eng.now

    done = eng.spawn(proc())
    eng.run()
    assert done.value == 0


def test_future_wait_receives_resolved_value():
    eng = Engine()
    fut = eng.future("data")
    got = []

    def waiter():
        value = yield fut
        got.append((eng.now, value))

    eng.spawn(waiter())
    eng.call_at(30, fut.resolve, "hello")
    eng.run()
    assert got == [(30, "hello")]


def test_wait_on_already_resolved_future_is_immediate():
    eng = Engine()
    fut = eng.future()
    fut.resolve(99)

    def waiter():
        value = yield 10
        value = yield fut
        return (eng.now, value)

    done = eng.spawn(waiter())
    eng.run()
    assert done.value == (10, 99)


def test_future_resolve_twice_raises():
    eng = Engine()
    fut = eng.future()
    fut.resolve(1)
    with pytest.raises(SimulationError):
        fut.resolve(2)


def test_future_value_before_resolution_raises():
    eng = Engine()
    fut = eng.future("pending")
    with pytest.raises(SimulationError):
        _ = fut.value


def test_multiple_waiters_all_wake():
    eng = Engine()
    fut = eng.future()
    woken = []

    def waiter(i):
        yield fut
        woken.append(i)

    for i in range(4):
        eng.spawn(waiter(i))
    eng.call_at(5, fut.resolve, None)
    eng.run()
    assert sorted(woken) == [0, 1, 2, 3]


def test_negative_delay_rejected():
    eng = Engine()

    def proc():
        yield -1

    eng.spawn(proc())
    with pytest.raises(SimulationError, match="negative delay"):
        eng.run()


def test_bad_yield_type_raises():
    eng = Engine()

    def proc():
        yield "nonsense"

    eng.spawn(proc())
    with pytest.raises(SimulationError, match="unsupported command"):
        eng.run()


def test_max_events_guard():
    eng = Engine()

    def ping():
        while True:
            yield 1

    eng.spawn(ping())
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=100)


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        log = []

        def worker(i):
            yield i * 3 % 7
            log.append((eng.now, i))
            yield 5
            log.append((eng.now, i))

        for i in range(10):
            eng.spawn(worker(i))
        eng.run()
        return log

    assert build() == build()


@both_schedulers
def test_max_events_exact_count(engine_cls):
    """Regression: the guard fires *before* event N+1, not after it.

    The seed engine checked the limit after dispatching, so ``max_events=N``
    silently let N+1 events run.  Pin the exact count: with 10 pending
    events and ``max_events=5``, exactly 5 dispatch, and the remaining 5
    are still intact afterwards.
    """
    eng = engine_cls()
    log = []
    for i in range(10):
        eng.call_at(i * 10, log.append, i)
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=5)
    assert log == [0, 1, 2, 3, 4]
    assert eng.events_dispatched == 5
    # No event was lost at the limit: a fresh run drains the rest in order.
    eng.run()
    assert log == list(range(10))
    assert eng.events_dispatched == 10


@both_schedulers
def test_max_events_exact_count_same_instant(engine_cls):
    """The exact-count guarantee also holds for same-instant ties (events
    appended to the list of the instant being dispatched)."""
    eng = engine_cls()
    log = []

    def burst():
        for i in range(10):
            eng.call_at(eng.now, log.append, i)
        yield 0

    eng.spawn(burst())
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=4)
    # Event 1 is the spawn step; events 2..4 are the first three appends.
    assert log == [0, 1, 2]
    eng.run()
    assert log == list(range(10))


@both_schedulers
def test_event_scheduled_after_a_stop_runs_before_the_next_instant(engine_cls):
    """A ``max_events`` stop at an instant boundary leaves ``now`` and the
    next instant alone; an event then scheduled between the two fires
    before the next instant's."""
    t = 1 << 14
    eng = engine_cls()
    log = []
    eng.call_at(2 * t, log.append, "near")
    eng.call_at(3 * t + 5, log.append, "far")
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=1)  # stops with "far" the next event
    assert log == ["near"] and eng.now == 2 * t
    eng.call_at(2 * t + 1, log.append, "between")
    eng.run()
    assert log == ["near", "between", "far"]


# --------------------------------------------------------------------- #
# call_chain: one native entry (engine) vs its two-event definition
# (heap).  Every case pins the dispatch order *and* the slot accounting.
# --------------------------------------------------------------------- #
@both_schedulers
def test_chain_alone_dispatches_two_events(engine_cls):
    eng = engine_cls()
    got = []
    eng.call_chain(70, lambda a, b: got.append((eng.now, a, b)), "x", 2)
    assert eng.max_queue_depth == 1
    eng.run()
    assert got == [(70, "x", 2)]
    assert (eng.events_dispatched, eng.max_queue_depth) == (2, 1)


@both_schedulers
def test_chain_second_slot_runs_behind_same_instant_heap_entry(engine_cls):
    """The chain's first slot fires in schedule order; its second slot is a
    same-instant successor, so a rival scheduled for that instant *after*
    the chain still runs before ``fn`` — and what the rival schedules
    runs after it."""
    eng = engine_cls()
    log = []

    def rival():
        log.append("rival")
        eng.call_now(log.append, "rival-successor")

    eng.call_chain(100, log.append, "fn")
    eng.call_at(100, rival)
    eng.run()
    assert log == ["rival", "fn", "rival-successor"]
    assert (eng.events_dispatched, eng.max_queue_depth) == (4, 2)


@both_schedulers
def test_chain_second_slot_runs_behind_an_entry_already_at_its_instant(engine_cls):
    eng = engine_cls()
    log = []

    def early():
        log.append("early")
        eng.call_now(log.append, "queued")

    eng.call_at(100, early)
    eng.call_chain(100, log.append, "fn")
    eng.run()
    assert log == ["early", "queued", "fn"]
    assert (eng.events_dispatched, eng.max_queue_depth) == (4, 2)


@both_schedulers
def test_chain_scheduled_at_now(engine_cls):
    eng = engine_cls()
    log = []

    def at_50():
        eng.call_chain(eng.now, log.append, "fn")
        eng.call_now(log.append, "after")

    eng.call_chain(0, log.append, "at-zero")
    eng.call_at(50, at_50)
    eng.run()
    assert log == ["at-zero", "after", "fn"]
    assert (eng.now, eng.events_dispatched) == (50, 6)
    with pytest.raises(SimulationError, match="cannot schedule"):
        eng.call_chain(49, log.append, "past")


@both_schedulers
def test_chains_at_a_future_instant_and_after_a_stop(engine_cls):
    t = 1 << 14
    eng = engine_cls()
    log = []
    eng.call_at(2 * t, log.append, "near")
    eng.call_chain(3 * t + 5, log.append, "far")
    eng.call_chain(3 * t + 5, log.append, "far-2")  # same instant's list
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=1)  # stops with "far" the next event
    assert log == ["near"] and eng.now == 2 * t
    eng.call_chain(2 * t + 1, log.append, "between")
    eng.run()
    assert log == ["near", "between", "far", "far-2"]
    assert (eng.events_dispatched, eng.max_queue_depth) == (7, 3)


@both_schedulers
def test_max_events_stops_between_the_slots_of_a_chain(engine_cls):
    eng = engine_cls()
    log = []
    eng.call_at(10, log.append, "a")
    eng.call_chain(20, log.append, "fn")
    eng.call_at(30, log.append, "b")
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=2)  # "a", then the chain's first slot only
    assert log == ["a"]
    assert (eng.now, eng.events_dispatched) == (20, 2)
    eng.run()
    assert log == ["a", "fn", "b"]
    assert (eng.events_dispatched, eng.max_queue_depth) == (4, 3)


@both_schedulers
def test_cancelled_process_wake_up_through_a_chain_is_dropped(engine_cls):
    eng = engine_cls()
    cpu = Resource(eng)
    log = []

    def victim():
        yield cpu.use(100)
        log.append("resumed")

    gen = victim()
    guard = eng.spawn(gen)
    eng.call_at(40, guard.cancel)
    eng.run()
    assert log == [] and guard.cancelled and not guard.resolved
    # spawn step, the cancel, and both slots of the stale wake-up
    assert (eng.now, eng.events_dispatched) == (100, 4)
    assert inspect.getgeneratorstate(gen) == inspect.GEN_CLOSED


@both_schedulers
def test_events_dispatched_counts_callbacks_that_returned(engine_cls):
    """A raising handler must not lose the run's whole tally: the counter
    holds every callback that returned, and the rest still runs after."""
    eng = engine_cls()
    log = []

    def boom():
        raise RuntimeError("handler failed")

    eng.call_at(10, log.append, "a")
    eng.call_chain(20, boom)
    eng.call_at(30, log.append, "b")
    with pytest.raises(RuntimeError, match="handler failed"):
        eng.run()
    # "a" and the chain's first slot (which only schedules) returned
    assert (log, eng.events_dispatched) == (["a"], 2)
    eng.run()
    assert (log, eng.events_dispatched) == (["a", "b"], 3)
