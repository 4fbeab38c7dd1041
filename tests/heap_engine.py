"""The seed's scheduler — one binary heap ordered by ``(time, seq)`` — kept
as the oracle `repro.sim.Engine`'s per-instant FIFOs are tested against.

Not an option of the simulator: tests substitute it, e.g.
``monkeypatch.setattr("repro.tempest.cluster.Engine", HeapEngine)``.
"""

from heapq import heappop, heappush

from repro.sim import Engine, SimulationError


class HeapEngine(Engine):
    __slots__ = ("_heap", "_seq")

    def __init__(self):
        super().__init__()
        self._heap = []
        self._seq = 0

    def call_at(self, when, fn, *args):
        if when < self.now:
            raise SimulationError(f"cannot schedule at {when} < now {self.now}")
        self._seq += 1
        heappush(self._heap, (when, self._seq, fn, args))
        if len(self._heap) > self.max_queue_depth:
            self.max_queue_depth = len(self._heap)

    def call_now(self, fn, *args):
        self.call_at(self.now, fn, *args)

    def call_chain(self, when, fn, *args):
        # The definition the native one-entry chain is tested against.
        self.call_at(when, self.call_now, fn, *args)

    def run(self, max_events=None):
        heap = self._heap
        dispatched = 0
        try:
            while heap:
                if max_events is not None and dispatched >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
                self.now, _seq, fn, args = heappop(heap)
                fn(*args)
                dispatched += 1
        finally:
            self.events_dispatched += dispatched
