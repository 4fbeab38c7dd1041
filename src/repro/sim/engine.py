"""Event loop for the discrete-event simulator.

The engine keeps pending events ordered by ``(time, seq)``.  Time is an
integer count of nanoseconds; ``seq`` is a monotonically increasing tie
breaker so that simultaneous events fire in schedule order, which makes every
simulation run bit-for-bit deterministic.

The scheduler is a slotted calendar queue.  Events are bucketed by
``when >> _BUCKET_SHIFT``; only the *current* bucket is kept as a binary
heap, future buckets are plain append-only lists that are heapified once,
when they become current.  Events scheduled for the current instant
(``when == now``) bypass the heap entirely and go to a FIFO ``deque`` —
correct because every such event necessarily carries a larger ``seq`` than
any same-time event still in the heap, and FIFO order *is* seq order.  This
turns the dominant scheduling pattern (near-future inserts + resolve-at-now
hops) into O(1) appends instead of O(log n) sifts over one big heap.

The seed's single binary heap is the reference this scheduler is tested
against: it lives in ``tests/heap_engine.py`` as an ``Engine`` subclass, and
``tests/test_engine_differential.py`` asserts bit-identical simulated
results across the fault / combining / switch / crash matrix.

Processes are generators driven by the engine (:meth:`Engine.spawn`).  A
process yields either

* a :class:`Delay` (or a bare non-negative ``int``), meaning *resume me after
  this many nanoseconds*, or
* a :class:`Future`, meaning *resume me when this future resolves* (the
  resolved value is sent back into the generator), or
* a :class:`Serve` command (from :meth:`repro.sim.resource.Resource.use`),
  meaning *occupy that resource and resume me when my turn finishes* —
  ``yield resource.serve(ns)`` without the Future.

This tiny vocabulary is sufficient to express CPUs, protocol handlers,
network messages and barriers, and keeps the hot loop small — important
because protocol-heavy runs schedule hundreds of thousands of events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator

__all__ = ["Delay", "Engine", "Future", "Serve", "SimulationError"]

#: Calendar-queue bucket width is ``1 << _BUCKET_SHIFT`` ns (16.384 µs).
#: Protocol latencies are a few µs, so the vast majority of inserts land in
#: the current or an adjacent bucket; ms-scale timers (retransmits, crash
#: scenarios, flush timers) land in genuinely future buckets and are not
#: touched until the clock reaches them.
_BUCKET_SHIFT = 14


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (bad yields, time travel, ...)."""


@dataclass(frozen=True, slots=True)
class Delay:
    """Command: suspend the yielding process for ``ns`` nanoseconds."""

    ns: int

    def __post_init__(self) -> None:
        if self.ns < 0:
            raise SimulationError(f"negative delay: {self.ns}")


class Serve:
    """Command: occupy a :class:`~repro.sim.resource.Resource`, resume after.

    Yielded by processes via :meth:`Resource.use`.  The engine interprets it
    inline inside :meth:`Engine._step` as ``resource.then(ns, wake-up)``:
    one :meth:`Engine.call_chain` entry, the same two ``(time, seq)`` slots
    as ``yield resource.serve(ns)``, minus the Future.  Each resource keeps
    one mutable ``Serve`` singleton; that is safe because the command is
    consumed synchronously within the very ``gen.send`` round that yielded it.
    """

    __slots__ = ("resource", "ns")

    def __init__(self, resource: Any = None, ns: int = 0) -> None:
        self.resource = resource
        self.ns = ns


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
    ...     yield Delay(100)
    ...     log.append(eng.now)
    >>> _ = eng.spawn(proc())
    >>> eng.run()
    >>> log
    [100]
    """

    __slots__ = (
        "_seq",
        "now",
        "_live_processes",
        "events_dispatched",
        "max_queue_depth",
        "_npending",
        # the calendar queue
        "_nowq",
        "_cur",
        "_cur_key",
        "_buckets",
        "_bucket_keys",
    )

    def __init__(self) -> None:
        self._seq = 0
        self.now = 0
        self._live_processes = 0
        self.events_dispatched = 0
        # High-water mark of the pending-event count: a cheap storm detector
        # (retransmit storms, broadcast bursts) visible in ClusterStats
        # summaries without needing a trace.
        self.max_queue_depth = 0
        self._npending = 0
        # Event entries everywhere are (when, seq, fn, args) tuples; args
        # are unpacked at dispatch.  seq is unique, so fn/args never
        # participate in heap comparisons, and no closure is allocated per
        # event — the engine's hottest allocation site in protocol-heavy
        # runs.
        #: events at ``when == now``, FIFO (FIFO order == seq order)
        self._nowq: deque = deque()
        #: the current bucket, a real heap; also absorbs stragglers
        #: scheduled into already-passed bucket regions (key <= cur_key)
        self._cur: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._cur_key = 0
        #: future buckets: key -> unsorted event list (heapified on pull)
        self._buckets: dict[int, list] = {}
        #: min-heap of the keys present in _buckets
        self._bucket_keys: list[int] = []

    # ------------------------------------------------------------------ #
    # scheduling primitives
    # ------------------------------------------------------------------ #
    def call_at(self, when: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``when``."""
        now = self.now
        if when < now:
            raise SimulationError(f"cannot schedule at {when} < now {now}")
        seq = self._seq + 1
        self._seq = seq
        npending = self._npending + 1
        self._npending = npending
        if npending > self.max_queue_depth:
            self.max_queue_depth = npending
        if when == now:
            # Same-instant events: every (time, seq) predecessor at this
            # time sits in _cur (it was scheduled before the clock reached
            # ``now``, hence with a smaller seq), so a FIFO append preserves
            # the global dispatch order — see ``run``.  FIFO order *is* seq
            # order, so the entry carries neither field.
            self._nowq.append((fn, args))
            return
        key = when >> _BUCKET_SHIFT
        if key <= self._cur_key:
            # Current bucket region — or a straggler scheduled behind the
            # calendar cursor (possible after run(until=...) pre-pulled a
            # future bucket).  _cur is a true heap, so mixed keys order
            # correctly; the one thing that must never happen is an event
            # sitting in _buckets with a key at or before the cursor.
            heappush(self._cur, (when, seq, fn, args))
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [(when, seq, fn, args)]
            heappush(self._bucket_keys, key)
        else:
            bucket.append((when, seq, fn, args))

    def call_now(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current instant.

        Semantically ``call_at(self.now, ...)``, minus the time checks and
        bucket math that cannot apply to a same-instant event.  This is the
        single hottest scheduling call (future resolution, process spawns).
        """
        self._seq += 1
        npending = self._npending + 1
        self._npending = npending
        if npending > self.max_queue_depth:
            self.max_queue_depth = npending
        self._nowq.append((fn, args))

    def call_chain(self, when: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule the completion chain ``call_at(when, self.call_now, fn,
        *args)``: an event at ``when`` that schedules ``fn(*args)`` as a
        same-instant event behind whatever else is already due then.

        That is the definition (``tests/heap_engine.py`` spells it).  Here
        the chain is one queue entry, marked ``fn = None``; :meth:`run`
        accounts the second ``(time, seq)`` slot when it pops the first.
        """
        # call_at's body around a chain entry, not a call to it: one more
        # frame per chain is measurable on protocol-heavy runs.
        now = self.now
        if when < now:
            raise SimulationError(f"cannot schedule at {when} < now {now}")
        seq = self._seq + 1
        self._seq = seq
        npending = self._npending + 1
        self._npending = npending
        if npending > self.max_queue_depth:
            self.max_queue_depth = npending
        chain = (fn, args)
        if when == now:
            self._nowq.append((None, chain))
            return
        key = when >> _BUCKET_SHIFT
        if key <= self._cur_key:
            heappush(self._cur, (when, seq, None, chain))
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [(when, seq, None, chain)]
            heappush(self._bucket_keys, key)
        else:
            bucket.append((when, seq, None, chain))

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
        self._live_processes += 1
        self.call_now(self._step, gen, None, done)
        return done

    def _close_process(self, done: Future) -> None:
        """Close a cancelled guard's generator exactly once."""
        gen = done._gen
        if gen is not None:
            done._gen = None
            gen.close()
            self._live_processes -= 1

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
                self._live_processes -= 1
                done._gen = None
                done.resolve(stop.value)
                return
            if cmd is None:
                send = None
                continue  # a bare ``yield`` is a no-op scheduling point
            cls = cmd.__class__
            if cls is int:
                # Bare-int delay, interpreted without boxing into Delay —
                # the single hottest yield in protocol code.
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
            if isinstance(cmd, int):
                cmd = Delay(int(cmd))
            if isinstance(cmd, Delay):
                if cmd.ns == 0:
                    send = None
                    continue
                self.call_at(self.now + cmd.ns, self._step, gen, None, done)
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
                "expected Delay, int, Future, Serve or None"
            )

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(self, until: int | None = None, max_events: int | None = None) -> None:
        """Dispatch events until the queues drain (or limits are hit).

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time.
        max_events:
            Safety valve for tests; raise *before* dispatching event
            ``max_events + 1``, so exactly ``max_events`` events run.

        Dispatch order: at each instant the remaining ``_cur`` heap entries
        for that time fire first (they were scheduled before the clock
        arrived, hence with seqs smaller than anything scheduled *at* the
        instant), then the now-queue drains in FIFO order (== seq order).
        Time never advances while the now-queue is non-empty, so this
        reproduces a single heap's global (time, seq) order exactly.
        """
        if until is not None and until < self.now:
            return  # nothing can fire: every pending event is at >= now
        nowq = self._nowq
        dispatched = 0
        try:
            while True:
                # Select the next event (peek before popping so hitting the
                # max_events limit never loses an undispatched event).
                cur = self._cur
                if nowq:
                    from_cur = bool(cur) and cur[0][0] == self.now
                else:
                    if not cur:
                        keys = self._bucket_keys
                        if not keys:
                            break
                        key = heappop(keys)
                        cur = self._buckets.pop(key)
                        heapify(cur)
                        self._cur = cur
                        self._cur_key = key
                    if until is not None and cur[0][0] > until:
                        break
                    from_cur = True
                if max_events is not None and dispatched >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
                if from_cur:
                    when, _seq, fn, args = heappop(cur)
                    self.now = when
                else:
                    fn, args = nowq.popleft()
                if fn is None:
                    # First slot of a call_chain entry: it "ran" call_now,
                    # so the second slot takes the next seq and the pending
                    # count stays (one popped, one scheduled).
                    self._seq += 1
                    dispatched += 1
                    if (nowq or (cur and cur[0][0] == self.now)
                            or (max_events is not None
                                and dispatched >= max_events)):
                        nowq.append(args)  # the (fn, args) pair, as is
                        continue
                    # Nothing else is due at this instant, so the second
                    # slot is the very next event: dispatch it from here.
                    fn, args = args
                self._npending -= 1
                fn(*args)
                dispatched += 1
        finally:
            # Also on a raising callback: count what returned before it.
            self.events_dispatched += dispatched
        if until is not None and self.now < until:
            self.now = until
