"""FIFO resources and counting semaphores.

:class:`Resource` models a non-preemptive single server — a compute CPU, a
protocol processor, or a network interface.  Because service is FIFO and the
service time of each job is known when it is submitted, the completion time
of a job is simply ``max(now, free_at) + duration``; no explicit queue needs
to be simulated, which keeps the hot path to one scheduler insert.

Every model component that occupies a server and then acts — a handler on a
protocol CPU, a frame on a link, a process computing — goes through one
completion chain, :meth:`Resource.then`: a completion event at the finish
time, then the effect as a same-instant event — one
:meth:`~repro.sim.engine.Engine.call_chain` entry.  :meth:`Resource.serve`
occupies the same two slots with a :class:`~repro.sim.engine.Future` in
the middle.

:class:`PortedResource` generalizes this to a bank of parallel FIFO servers
(the output ports of a switch fabric): each job names its port and may carry
a *release time* in the future — the instant the job becomes eligible for
service, e.g. a frame's arrival at the switch after upstream serialization.
Service still starts at ``max(port_free_at, release)``, so the whole bank
stays O(1) arithmetic per job, and the wait ``start - release`` is the
job's contention delay, reported back to the caller exactly.

:class:`CountingSemaphore` supports the paper's ``ready_to_recv`` call: a
receiver "holds down a counting semaphore until all the blocks have arrived".
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Engine, Future, Serve, SimulationError

__all__ = ["CountingSemaphore", "PortedResource", "Resource"]


class Resource:
    """Non-preemptive FIFO single server with utilization accounting."""

    __slots__ = ("_engine", "_free_at", "busy_ns", "jobs", "label",
                 "_serve_label", "_cmd")

    def __init__(self, engine: Engine, label: str = "resource") -> None:
        self._engine = engine
        self._free_at = 0
        self.busy_ns = 0
        self.jobs = 0
        self.label = label
        self._serve_label = label + ".serve"
        # Reusable Serve command for ``use``; safe to share because the
        # engine consumes it synchronously (see Serve docs).
        self._cmd = Serve(self)

    @property
    def free_at(self) -> int:
        """Earliest time a newly submitted job could start service."""
        return max(self._free_at, self._engine.now)

    def serve(self, duration: int, tag: object = None) -> Future:
        """Submit a job of ``duration`` ns; returns a future resolved at its
        completion time.  Jobs are served in submission order."""
        done = self._engine.future(self._serve_label)
        self._engine.call_at(self.occupy_end(duration), done.resolve, tag)
        return done

    def then(self, duration: int, fn: Callable[..., None], *args: Any) -> None:
        """Submit a job of ``duration`` ns and run ``fn(*args)`` when it
        completes.

        The completion chain is :meth:`Engine.call_chain`: one slot at the
        finish time, then ``fn`` as a same-instant event behind anything
        already scheduled for that instant — the same two ``(time, seq)``
        slots that ``serve(duration).add_callback(fn)`` occupies, with no
        Future and, when nothing else is due then, no second dispatch.
        """
        # occupy_end, written out: this is the simulator's hottest call
        if duration < 0:
            raise SimulationError(f"negative service time {duration}")
        engine = self._engine
        start = self._free_at
        now = engine.now
        if start < now:
            start = now
        finish = start + duration
        self._free_at = finish
        self.busy_ns += duration
        self.jobs += 1
        engine.call_chain(finish, fn, *args)

    def use(self, duration: int) -> Serve:
        """Yieldable command: ``yield resource.use(ns)`` occupies the
        resource and resumes the process when its turn finishes, as
        ``yield resource.serve(ns)`` does, through :meth:`then`."""
        cmd = self._cmd
        cmd.ns = duration
        return cmd

    def occupy_end(self, duration: int) -> int:
        """Charge the resource for ``duration`` ns; return the finish time.

        The one occupancy routine: FIFO start, accounting, no event.
        """
        if duration < 0:
            raise SimulationError(f"negative service time {duration}")
        start = self._free_at
        now = self._engine.now
        if start < now:
            start = now
        finish = start + duration
        self._free_at = finish
        self.busy_ns += duration
        self.jobs += 1
        return finish

    def occupy(self, duration: int) -> None:
        """Charge the resource for ``duration`` ns without a completion event.

        Used for fire-and-forget occupancy (e.g. a protocol handler whose
        completion no process waits on).
        """
        self.occupy_end(duration)

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` this resource spent busy."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed_ns)


class PortedResource:
    """A bank of parallel non-preemptive FIFO servers (e.g. switch ports).

    Jobs are submitted with :meth:`serve_at`, naming a port and a release
    time (``now`` or later).  Per port, jobs are served in submission
    order; a job submitted after another never overtakes it even if its
    release time is earlier — the deterministic arbitration order is the
    engine's event order, which is exactly what makes runs replayable.
    """

    __slots__ = ("_engine", "_free_at", "busy_ns", "wait_ns", "jobs", "label")

    def __init__(self, engine: Engine, n_ports: int, label: str = "ports") -> None:
        if n_ports < 1:
            raise SimulationError(f"need at least one port; got {n_ports}")
        self._engine = engine
        self._free_at = [0] * n_ports
        self.busy_ns = [0] * n_ports
        self.wait_ns = [0] * n_ports
        self.jobs = [0] * n_ports
        self.label = label

    @property
    def n_ports(self) -> int:
        return len(self._free_at)

    def free_at(self, port: int) -> int:
        """Earliest time a newly submitted job on ``port`` could start."""
        return max(self._free_at[port], self._engine.now)

    def serve_at(
        self, port: int, release_ns: int, duration: int,
        fn: Callable[..., None], *args: Any,
    ) -> tuple[int, int]:
        """Submit a job eligible at ``release_ns`` taking ``duration`` ns,
        and run ``fn(*args)`` when it completes.

        Returns ``(start, finish)``: service runs [start, finish) with
        ``start = max(port_free_at, release_ns, now)``, and ``fn`` runs
        through the :meth:`Resource.then` completion chain at ``finish``.
        ``start - release_ns`` is the job's queueing (contention) delay,
        accumulated in ``wait_ns[port]``.
        """
        if duration < 0:
            raise SimulationError(f"negative service time {duration}")
        engine = self._engine
        if release_ns < engine.now:
            raise SimulationError(
                f"release time {release_ns} is in the past (now {engine.now})"
            )
        start = max(self._free_at[port], release_ns)
        finish = start + duration
        self._free_at[port] = finish
        self.busy_ns[port] += duration
        self.wait_ns[port] += start - release_ns
        self.jobs[port] += 1
        engine.call_chain(finish, fn, *args)
        return start, finish


class CountingSemaphore:
    """A counter with a single waiter-on-threshold.

    ``post(n)`` adds to the count; :meth:`wait_for` returns a future resolved
    once the count reaches the requested threshold.  The count is *consumed*
    when the wait is satisfied, so the semaphore can be reused phase after
    phase (the usage pattern of ``ready_to_recv``).
    """

    __slots__ = ("_engine", "count", "_threshold", "_waiter", "label")

    def __init__(self, engine: Engine, label: str = "sema") -> None:
        self._engine = engine
        self.count = 0
        self._threshold: int | None = None
        self._waiter: Future | None = None
        self.label = label

    def post(self, n: int = 1) -> None:
        if n < 0:
            raise SimulationError("cannot post a negative count")
        self.count += n
        self._maybe_release()

    def wait_for(self, threshold: int) -> Future:
        """Future resolved when at least ``threshold`` posts have occurred."""
        if self._waiter is not None:
            raise SimulationError(f"semaphore {self.label!r} already has a waiter")
        if threshold < 0:
            raise SimulationError("negative semaphore threshold")
        fut = self._engine.future(f"{self.label}.wait")
        self._threshold = threshold
        self._waiter = fut
        self._maybe_release()
        return fut

    def _maybe_release(self) -> None:
        if self._waiter is not None and self.count >= (self._threshold or 0):
            fut, self._waiter = self._waiter, None
            self.count -= self._threshold or 0
            self._threshold = None
            fut.resolve(None)
