"""Event loop for the discrete-event simulator.

The engine dispatches pending events in ``(time, seq)`` order.  Time is an
integer count of nanoseconds; ``seq`` is the schedule order, the tie breaker
that makes simultaneous events fire in the order they were scheduled, so
every simulation run is bit-for-bit deterministic.

The scheduler is a min-heap of the distinct future instants, with one FIFO
list of ``(fn, args)`` entries per instant.  An event scheduled for a future
instant ``T`` is appended to ``T``'s list; one scheduled at ``now`` is
appended to the list being dispatched.  Both lists are in schedule order,
which is ``seq`` order, so walking them reproduces the ``(time, seq)`` order
with no ``seq`` stored and no tuple compared.

The seed's single binary heap is the reference this scheduler is tested
against: it lives in ``tests/heap_engine.py`` as an ``Engine`` subclass, and
``tests/test_engine_differential.py`` asserts bit-identical simulated
results across the fault / combining / switch / crash matrix.

Processes are generators driven by the engine (:meth:`Engine.spawn`).  A
process yields either

* a non-negative ``int``, meaning *resume me after this many nanoseconds*,
  or
* a :class:`Future`, meaning *resume me when this future resolves* (the
  resolved value is sent back into the generator), or
* a :class:`Serve` command (from :meth:`repro.sim.resource.Resource.use`),
  meaning *occupy that resource and resume me when my turn finishes*.

This tiny vocabulary is sufficient to express CPUs, protocol handlers,
network messages and barriers, and keeps the hot loop small — important
because protocol-heavy runs schedule hundreds of thousands of events.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator

__all__ = ["Engine", "Future", "Serve", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (bad yields, time travel, ...)."""


class Serve:
    """Command: occupy a :class:`~repro.sim.resource.Resource`, resume after.

    Yielded by processes via :meth:`Resource.use`.  The engine interprets it
    inline inside :meth:`Engine._step` as ``resource.then(ns, wake-up)``:
    one :meth:`Engine.call_chain` entry, two ``(time, seq)`` slots.  Each
    resource keeps one mutable ``Serve`` singleton; that is safe because the
    command is consumed synchronously within the very ``gen.send`` round that
    yielded it.
    """

    __slots__ = ("resource", "ns")

    def __init__(self, resource: Any = None) -> None:
        self.resource = resource
        self.ns = 0


class Future:
    """A one-shot synchronization cell.

    A future starts *pending*; a single call to :meth:`resolve` transitions
    it to *resolved* and wakes every process waiting on it.  Waiting on an
    already-resolved future resumes the waiter immediately (at the current
    simulated instant), so there is no ordering hazard between resolution
    and waiting.
    """

    __slots__ = ("_engine", "_resolved", "_value", "_waiters", "_cancelled",
                 "_gen", "label")

    def __init__(self, engine: "Engine", label: str = "") -> None:
        self._engine = engine
        self._resolved = False
        self._value: Any = None
        self._waiters: list[Callable[[Any], None]] = []
        self._cancelled = False
        self._gen = None  # owning process generator, for guard futures
        self.label = label

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Mark a *process guard* future cancelled (node fail-stop).

        The owning generator is closed eagerly (deterministically, rather
        than at garbage-collection time, where finalizing a suspended
        ``yield from`` chain in arbitrary order can raise); the future
        never resolves and its waiters never fire.  Only meaningful for
        futures returned by :meth:`Engine.spawn`.
        """
        if not self._resolved:
            self._cancelled = True
            self._engine._close_process(self)

    @property
    def value(self) -> Any:
        if not self._resolved:
            raise SimulationError(f"future {self.label!r} not yet resolved")
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Resolve the future, waking all waiters at the current time."""
        if self._resolved:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self._resolved = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        engine = self._engine
        for cb in waiters:
            if cb.__class__ is tuple:
                # Process waiter stored structurally by _step: wake the
                # generator directly, no per-wait closure in between.
                engine.call_now(engine._step, cb[0], value, cb[1])
            else:
                engine.call_now(cb, value)

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        """Invoke ``cb(value)`` when resolved (immediately if already done)."""
        if self._resolved:
            self._engine.call_now(cb, self._value)
        else:
            self._waiters.append(cb)


class Engine:
    """The discrete-event loop.

    Example
    -------
    >>> eng = Engine()
    >>> log = []
    >>> def proc():
    ...     yield 100
    ...     log.append(eng.now)
    >>> _ = eng.spawn(proc())
    >>> eng.run()
    >>> log
    [100]
    """

    __slots__ = (
        "now",
        "events_dispatched",
        "max_queue_depth",
        "_npending",
        "_at",
        "_instants",
        "_today",
        "_walk",
    )

    def __init__(self) -> None:
        self.now = 0
        self.events_dispatched = 0
        # High-water mark of the pending-event count: a cheap storm detector
        # (retransmit storms, broadcast bursts) visible in ClusterStats
        # summaries without needing a trace.
        self.max_queue_depth = 0
        self._npending = 0
        # Entries are (fn, args) pairs, args unpacked at dispatch: no
        # closure is allocated per event, the engine's hottest allocation
        # site in protocol-heavy runs.
        #: future instant -> its entries, in schedule order
        self._at: dict[int, list[tuple[Callable[..., None] | None, tuple]]] = {}
        #: min-heap of the keys of ``_at``
        self._instants: list[int] = []
        #: the entries of instant ``now``; ``_walk`` iterates it and stands
        #: at the first entry not yet dispatched
        self._today: list[tuple[Callable[..., None] | None, tuple]] = []
        self._walk = iter(self._today)

    # ------------------------------------------------------------------ #
    # scheduling primitives
    # ------------------------------------------------------------------ #
    def call_at(self, when: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``when``."""
        now = self.now
        if when < now:
            raise SimulationError(f"cannot schedule at {when} < now {now}")
        npending = self._npending + 1
        self._npending = npending
        if npending > self.max_queue_depth:
            self.max_queue_depth = npending
        if when == now:
            self._today.append((fn, args))
            return
        fifo = self._at.get(when)
        if fifo is None:
            self._at[when] = [(fn, args)]
            heappush(self._instants, when)
        else:
            fifo.append((fn, args))

    def call_now(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current instant.

        Semantically ``call_at(self.now, ...)``, minus the time checks that
        cannot apply to a same-instant event.  This is the single hottest
        scheduling call (future resolution, process spawns).
        """
        npending = self._npending + 1
        self._npending = npending
        if npending > self.max_queue_depth:
            self.max_queue_depth = npending
        self._today.append((fn, args))

    def call_chain(self, when: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule the completion chain ``call_at(when, self.call_now, fn,
        *args)``: an event at ``when`` that schedules ``fn(*args)`` as a
        same-instant event behind whatever else is already due then.

        That is the definition (``tests/heap_engine.py`` spells it).  Here
        the chain is one queue entry, ``(None, (fn, args))``; :meth:`run`
        counts its first slot and appends ``(fn, args)`` to the instant's
        list when it reaches it.
        """
        # call_at's body around a chain entry, not a call to it: one more
        # frame per chain is measurable on protocol-heavy runs.
        now = self.now
        if when < now:
            raise SimulationError(f"cannot schedule at {when} < now {now}")
        npending = self._npending + 1
        self._npending = npending
        if npending > self.max_queue_depth:
            self.max_queue_depth = npending
        if when == now:
            self._today.append((None, (fn, args)))
            return
        fifo = self._at.get(when)
        if fifo is None:
            self._at[when] = [(None, (fn, args))]
            heappush(self._instants, when)
        else:
            fifo.append((None, (fn, args)))

    def call_after(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` nanoseconds from now."""
        self.call_at(self.now + delay, fn, *args)

    def future(self, label: str = "") -> Future:
        return Future(self, label)

    # ------------------------------------------------------------------ #
    # processes
    # ------------------------------------------------------------------ #
    def spawn(
        self, gen: Generator[Any, Any, Any], label: str = ""
    ) -> "Future":
        """Start a generator as a simulated process.

        Returns a :class:`Future` resolved with the generator's return value
        when it finishes.  The first step of the process runs at the current
        simulated time (not synchronously inside :meth:`spawn`).
        """
        done = self.future(label or getattr(gen, "__name__", "process"))
        done._gen = gen
        self.call_now(self._step, gen, None, done)
        return done

    def _close_process(self, done: Future) -> None:
        """Close a cancelled guard's generator exactly once."""
        gen = done._gen
        if gen is not None:
            done._gen = None
            gen.close()

    def _step(self, gen: Generator[Any, Any, Any], send: Any, done: Future) -> None:
        """Advance ``gen`` by one yield, interpreting its command."""
        if done._cancelled:
            # The process was fail-stopped between suspensions: the
            # generator was already closed by cancel(); a stale wake-up
            # (timer or late-resolving future) is simply dropped.  ``done``
            # stays unresolved forever, so nothing downstream of the dead
            # process runs.
            self._close_process(done)
            return
        while True:
            try:
                cmd = gen.send(send)
            except StopIteration as stop:
                done._gen = None
                done.resolve(stop.value)
                return
            if cmd is None:
                send = None
                continue  # a bare ``yield`` is a no-op scheduling point
            cls = cmd.__class__
            if cls is int:
                # A delay — the single hottest yield in protocol code.
                if cmd == 0:
                    send = None
                    continue
                if cmd < 0:
                    raise SimulationError(f"negative delay: {cmd}")
                self.call_at(self.now + cmd, self._step, gen, None, done)
                return
            if cls is Serve:
                # The command object is a per-resource singleton; it is
                # fully consumed right here, before anyone else can touch it.
                cmd.resource.then(cmd.ns, self._step, gen, None, done)
                return
            if isinstance(cmd, Future):
                if cmd._resolved:
                    send = cmd._value
                    continue
                # Structural waiter entry — resolve() turns it into the
                # exact _step(gen, value, done) event a closure would have
                # scheduled, minus the closure.
                cmd._waiters.append((gen, done))
                return
            raise SimulationError(
                f"process yielded unsupported command {cmd!r}; "
                "expected int, Future, Serve or None"
            )

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(self, max_events: int | None = None) -> None:
        """Dispatch events until the queue drains (or the limit is hit).

        Parameters
        ----------
        max_events:
            Safety valve for tests; raise *before* dispatching event
            ``max_events + 1``, so exactly ``max_events`` events run.  That
            event stays queued and ``now`` stays put; a later ``run()``
            resumes from it, as it does after a callback that raises.

        Dispatch walks the current instant's list while callbacks append
        to it; when the list runs out, the next instant is popped from the
        heap and its list becomes the current one.
        """
        at = self._at
        instants = self._instants
        today = self._today
        walk = self._walk
        livelock = f"exceeded max_events={max_events}; likely a livelock"
        dispatched = 0
        try:
            while True:
                for fn, args in walk:
                    if max_events is not None and dispatched >= max_events:
                        self._today = today = [(fn, args), *walk]
                        self._walk = iter(today)
                        raise SimulationError(livelock)
                    if fn is None:
                        # First slot of a call_chain entry: it "runs"
                        # call_now, so the pending count stays (one
                        # dispatched, one scheduled).
                        dispatched += 1
                        today.append(args)
                        continue
                    self._npending -= 1
                    fn(*args)
                    dispatched += 1
                if instants and (max_events is None or dispatched < max_events):
                    self.now = now = heappop(instants)
                    self._today = today = at.pop(now)
                    self._walk = walk = iter(today)
                    continue
                # An exhausted list iterator never sees a later append, so
                # the spent list is replaced before anything appends to it.
                self._today = today = []
                self._walk = iter(today)
                if instants:
                    raise SimulationError(livelock)
                return
        finally:
            # Also on a raising callback: count what returned before it.
            self.events_dispatched += dispatched
