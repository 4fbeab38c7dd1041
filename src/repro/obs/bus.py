"""The event bus: typed span/instant events, synchronous fan-out.

Design constraints, in order of importance:

1. **Determinism.**  The engine's heap breaks simultaneous-event ties
   with a monotonic sequence number, so *any* extra scheduled event
   shifts every later tiebreaker and can reorder a run.  The bus
   therefore never touches the engine: ``emit`` fans out to subscribers
   synchronously, inline, at the publishing site.  Subscribers must not
   mutate simulation state.
2. **Zero cost when off.**  Components hold ``self.obs = None`` and
   guard every publish with ``if self.obs is not None``; with no bus
   attached not even the payload dict is built.
3. **Low overhead when on.**  Positional arguments, one dict lookup to
   the callbacks that want the kind, one :class:`Event` only when some
   callback does, no string formatting on the hot path.

Event kinds are dotted strings (``miss.read``, ``frame.retransmit``,
``channel.heal``, ...); the full taxonomy lives in
``docs/observability.md``.  A span carries ``dur_ns > 0`` and starts at
``t_ns``; an instant has ``dur_ns == 0``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional


class Event:
    """One published event.  ``args`` is kind-specific payload.

    ``seq`` is the bus-wide publish ordinal (unique, monotonic) and
    ``parent`` is the ``seq`` of the event that *caused* this one — the
    causal-lineage edge the critical-path analyzer walks.  ``parent`` is
    None at chain roots (compute ops, probes, timer-driven events).  It is
    deliberately ``parent``, not ``cause``: ``frame.drop`` already carries
    a ``cause`` payload key.
    """

    __slots__ = ("kind", "t_ns", "dur_ns", "node", "args", "seq", "parent")

    def __init__(self, kind: str, t_ns: int, dur_ns: int, node, args: dict,
                 seq: int = 0, parent=None):
        self.kind = kind
        self.t_ns = t_ns
        self.dur_ns = dur_ns
        self.node = node
        self.args = args
        self.seq = seq
        self.parent = parent

    def __repr__(self) -> str:  # debugging aid only; never on the hot path
        span = f"+{self.dur_ns}" if self.dur_ns else "i"
        lin = f" #{self.seq}" + (f"<-{self.parent}" if self.parent is not None else "")
        return f"Event({self.kind} @{self.t_ns}ns {span} n{self.node}{lin} {self.args})"


class Subscription:
    __slots__ = ("callback", "kinds")

    def __init__(self, callback: Callable[[Event], None], kinds):
        self.callback = callback
        self.kinds = kinds  # frozenset of exact kinds, or None for all


class EventBus:
    __slots__ = ("_subs", "_routes", "events_published")

    def __init__(self):
        self._subs: list[Subscription] = []
        # kind -> callbacks wanting it, in subscription order; filled per
        # kind on first emit, emptied whenever the subscriber list changes
        self._routes: dict[str, tuple] = {}
        self.events_published = 0

    def subscribe(
        self,
        callback: Callable[[Event], None],
        kinds: Optional[Iterable[str]] = None,
    ) -> Subscription:
        """Register ``callback``; restrict to exact ``kinds`` if given."""
        sub = Subscription(callback, frozenset(kinds) if kinds is not None else None)
        self._subs.append(sub)
        self._routes.clear()
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        self._subs.remove(sub)
        self._routes.clear()

    @property
    def n_subscribers(self) -> int:
        return len(self._subs)

    def emit(self, kind: str, t_ns: int, dur_ns: int, node, parent,
             args: dict) -> int:
        """Publish one event, fan it out synchronously, return its seq.

        Never schedules engine work; safe to call from inside process
        fragments, handlers, and resource-completion callbacks.
        ``parent`` is the causal predecessor's ``Event.seq`` (or None
        for a root) and ``args`` the payload dict, built at the guarded
        call site; the returned seq lets publishers thread lineage.  The
        :class:`Event` is only built when some subscriber wants ``kind``.
        """
        seq = self.events_published
        self.events_published = seq + 1
        callbacks = self._routes.get(kind)
        if callbacks is None:
            callbacks = self._routes[kind] = tuple(
                sub.callback
                for sub in self._subs
                if sub.kinds is None or kind in sub.kinds
            )
        if callbacks:
            ev = Event(kind, t_ns, dur_ns, node, args, seq, parent)
            for callback in callbacks:
                callback(ev)
        return seq
