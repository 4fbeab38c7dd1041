"""Unit tests for FIFO resources, ported resources, and semaphores."""

import pytest

from repro.sim import (
    CountingSemaphore,
    Delay,
    Engine,
    PortedResource,
    Resource,
    SimulationError,
)
from tests.heap_engine import HeapEngine


def test_single_job_completes_after_duration():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    done = cpu.serve(100)
    eng.run()
    assert done.resolved
    assert eng.now == 100
    assert cpu.busy_ns == 100


def test_jobs_queue_fifo():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    finish_times = []

    def submit():
        for dur in (100, 50, 25):
            fut = cpu.serve(dur)
            fut.add_callback(lambda _v: finish_times.append(eng.now))
        yield Delay(0)

    eng.spawn(submit())
    eng.run()
    assert finish_times == [100, 150, 175]


def test_job_submitted_later_starts_when_free():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    results = []
    cpu.serve(100).add_callback(lambda _v: results.append(eng.now))
    # Submitted at t=30 while the first job runs: starts at 100.
    eng.call_at(30, lambda: cpu.serve(10).add_callback(lambda _v: results.append(eng.now)))
    eng.run()
    assert results == [100, 110]


def test_idle_gap_not_counted_busy():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    cpu.serve(10)
    eng.call_at(100, lambda: cpu.serve(10))
    eng.run()
    assert cpu.busy_ns == 20
    assert cpu.utilization(eng.now) == pytest.approx(20 / 110)


def test_occupy_charges_without_future():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    cpu.occupy(40)
    done = cpu.serve(10)
    eng.run()
    assert done.resolved
    assert eng.now == 50


def test_negative_duration_rejected():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    with pytest.raises(SimulationError):
        cpu.serve(-1)
    with pytest.raises(SimulationError):
        cpu.occupy(-5)
    with pytest.raises(SimulationError):
        cpu.then(-1, lambda: None)
    assert (cpu.busy_ns, cpu.jobs) == (0, 0)


def _chain_footprint(engine_cls, submit):
    """One job on a busy resource, finishing at the same instant as a
    competing event that itself schedules a same-instant successor."""
    eng = engine_cls()
    cpu = Resource(eng, "cpu")
    log = []

    def rival():
        log.append("rival")
        eng.call_now(log.append, "rival-successor")

    cpu.occupy(60)
    eng.call_at(100, log.append, "early")   # scheduled before the job
    submit(cpu, lambda *_v: log.append("fn"))  # finishes at 60 + 40 = 100
    eng.call_at(100, rival)                 # scheduled after the job
    eng.run()
    return log, eng.events_dispatched, eng.max_queue_depth, cpu.busy_ns, cpu.jobs


@pytest.mark.parametrize("engine_cls", [Engine, HeapEngine], ids=["calendar", "heap"])
def test_then_occupies_the_slots_of_serve_add_callback(engine_cls):
    then = _chain_footprint(engine_cls, lambda cpu, fn: cpu.then(40, fn))
    serve = _chain_footprint(
        engine_cls, lambda cpu, fn: cpu.serve(40).add_callback(fn)
    )
    assert then == serve
    # The completion event fires in schedule order among the t=100 events;
    # fn runs as its same-instant successor, behind the rival's own event
    # but ahead of what the rival schedules.
    assert then[0] == ["early", "rival", "fn", "rival-successor"]
    assert then[1:] == (5, 3, 100, 2)


def test_then_passes_args():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    got = []
    cpu.then(10, lambda a, b: got.append((eng.now, a, b)), "x", 2)
    eng.run()
    assert got == [(10, "x", 2)]


def _noop():
    pass


def test_ported_single_job_serves_at_release():
    eng = Engine()
    ports = PortedResource(eng, 2)
    done = []
    start, finish = ports.serve_at(0, 30, 10, done.append, "tag")
    assert (start, finish) == (30, 40)
    eng.run()
    assert done == ["tag"]
    assert eng.now == 40
    assert ports.busy_ns == [10, 0]
    assert ports.wait_ns == [0, 0]


def test_ported_jobs_queue_fifo_per_port():
    # Two jobs racing for port 0: the second starts when the first
    # finishes, and its wait is exactly the overlap.
    eng = Engine()
    ports = PortedResource(eng, 2)
    order = []
    s0, f0 = ports.serve_at(0, 10, 100, lambda: order.append((0, eng.now)))
    s1, f1 = ports.serve_at(0, 40, 50, lambda: order.append((1, eng.now)))
    assert (s0, f0) == (10, 110)
    assert (s1, f1) == (110, 160)
    eng.run()
    assert order == [(0, 110), (1, 160)]
    assert ports.wait_ns[0] == 70
    assert ports.jobs[0] == 2


def test_ported_ports_are_independent():
    eng = Engine()
    ports = PortedResource(eng, 2)
    ports.serve_at(0, 0, 100, _noop)
    s1, _f1 = ports.serve_at(1, 0, 100, _noop)
    assert s1 == 0                        # no cross-port interference
    assert ports.wait_ns == [0, 0]


def test_ported_submission_order_wins_over_release_order():
    # FIFO arbitration is engine-event (submission) order: a job
    # submitted second never overtakes, even with an earlier release.
    eng = Engine()
    ports = PortedResource(eng, 1)
    ports.serve_at(0, 50, 10, _noop)
    s1, _f1 = ports.serve_at(0, 0, 10, _noop)
    assert s1 == 60
    assert ports.wait_ns[0] == 60


def test_ported_free_at_tracks_clock_and_backlog():
    eng = Engine()
    ports = PortedResource(eng, 1)
    assert ports.free_at(0) == 0
    ports.serve_at(0, 0, 25, _noop)
    assert ports.free_at(0) == 25
    eng.run()
    eng.call_at(100, lambda: None)
    eng.run()
    assert ports.free_at(0) == 100        # never in the past


def test_ported_invalid_submissions_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        PortedResource(eng, 0)
    ports = PortedResource(eng, 1)
    with pytest.raises(SimulationError):
        ports.serve_at(0, 0, -1, _noop)
    eng.call_at(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        ports.serve_at(0, 5, 1, _noop)    # release in the past


def test_semaphore_wait_satisfied_by_later_posts():
    eng = Engine()
    sema = CountingSemaphore(eng, "arrivals")
    fut = sema.wait_for(3)
    for t in (10, 20, 30):
        eng.call_at(t, sema.post)
    eng.run()
    assert fut.resolved
    assert eng.now == 30
    assert sema.count == 0


def test_semaphore_wait_already_satisfied():
    eng = Engine()
    sema = CountingSemaphore(eng)
    sema.post(5)
    fut = sema.wait_for(3)
    assert fut.resolved
    assert sema.count == 2  # threshold consumed, surplus kept


def test_semaphore_wait_for_zero_resolves_immediately():
    eng = Engine()
    sema = CountingSemaphore(eng)
    fut = sema.wait_for(0)
    assert fut.resolved


def test_semaphore_reusable_across_phases():
    eng = Engine()
    sema = CountingSemaphore(eng)
    sema.post(2)
    f1 = sema.wait_for(2)
    assert f1.resolved
    f2 = sema.wait_for(1)
    assert not f2.resolved
    sema.post()
    assert f2.resolved


def test_semaphore_second_waiter_rejected():
    eng = Engine()
    sema = CountingSemaphore(eng)
    sema.wait_for(1)
    with pytest.raises(SimulationError):
        sema.wait_for(1)


def test_semaphore_negative_post_rejected():
    eng = Engine()
    sema = CountingSemaphore(eng)
    with pytest.raises(SimulationError):
        sema.post(-1)
