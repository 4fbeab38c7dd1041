"""The event bus: one recorded stream of span/instant events, folded by
its consumers a chunk at a time.

Design constraints, in order of importance:

1. **Determinism.**  The engine's heap breaks simultaneous-event ties
   with a monotonic sequence number, so *any* extra scheduled event
   shifts every later tiebreaker and can reorder a run.  The bus
   therefore never touches the engine: ``emit`` appends a record and
   hands full chunks to the consumers' folds inline, at the publishing
   site.  Folds must not mutate simulation state.
2. **Zero cost when off.**  Components hold ``self.obs = None`` and
   guard every publish with ``if self.obs is not None``; with no bus
   attached not even the payload dict is built.
3. **Low overhead when on.**  Positional arguments, one tuple and one
   list append per event; each consumer runs one loop over a chunk
   instead of one call per event.

A record is the tuple ``(kind, t_ns, dur_ns, node, parent, args, seq)``.
``seq`` is the bus-wide publish ordinal (unique, monotonic) and
``parent`` is the ``seq`` of the event that *caused* this one — the
causal-lineage edge the critical-path walk follows; it is None at chain
roots (compute ops, probes, timer-driven events).  It is deliberately
``parent``, not ``cause``: ``frame.drop`` already carries a ``cause``
payload key.  ``args`` is the kind-specific payload, which a publisher
never mutates after ``emit``: consumers read it up to a chunk later.

Event kinds are dotted strings (``miss.read``, ``frame.retransmit``,
``channel.heal``, ...); the full taxonomy lives in
``docs/observability.md``.  A span carries ``dur_ns > 0`` and starts at
``t_ns``; an instant has ``dur_ns == 0``.
"""

from __future__ import annotations

from typing import Callable

#: records handed to the folds at once
CHUNK = 4096


class EventBus:
    __slots__ = ("_folds", "_pending", "events_published")

    def __init__(self):
        self._folds: list[Callable[[list], None]] = []
        self._pending: list[tuple] = []
        self.events_published = 0

    def subscribe(self, fold: Callable[[list], None]) -> None:
        """Register ``fold(records)``; it sees every event published from
        now on, a chunk at a time, after the folds registered before it."""
        self.flush()
        self._folds.append(fold)

    def emit(self, kind: str, t_ns: int, dur_ns: int, node, parent,
             args: dict) -> int:
        """Record one event and return its seq.

        Never schedules engine work; safe to call from inside process
        fragments, handlers, and resource-completion callbacks.
        ``parent`` is the causal predecessor's seq (or None for a root)
        and ``args`` the payload dict, built at the guarded call site;
        the returned seq lets publishers thread lineage.
        """
        seq = self.events_published
        self.events_published = seq + 1
        pending = self._pending
        pending.append((kind, t_ns, dur_ns, node, parent, args, seq))
        if len(pending) >= CHUNK:
            self.flush()
        return seq

    def flush(self) -> None:
        """Hand the pending records to every fold, in registration order.
        ``Cluster.run`` calls it when its engine loop ends, however it
        ends, so consumers read complete results after a run."""
        records = self._pending
        if records:
            self._pending = []
            for fold in self._folds:
                fold(records)
