"""Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).

Events are laid out on two processes:

* pid 1 ``cluster`` — one thread per node; spans (miss resolutions,
  barriers, replayed trace ops) and node-charged instants land here.
* pid 2 ``fabric`` — ``transport`` (frame lifecycle, channel cut/heal),
  ``switch`` (port traversals), and ``global`` (node-less events)
  threads.

Timestamps convert from simulated nanoseconds to the format's
microseconds; ``displayTimeUnit: "ns"`` keeps Perfetto's cursor honest.
A bounded ring buffer (``max_events``) caps memory on long runs; the
oldest events are dropped first and counted in :attr:`dropped`.

Each frame's wire departure is paired with its delivery as a Perfetto
flow arrow (``ph: "s"``/``"f"`` with a shared id), and every exported
event carries its lineage ``seq``/``parent`` in ``args`` so causal
chains can be followed in the UI.
"""

from __future__ import annotations

import enum
import functools
import json
import os
from collections import deque
from contextlib import suppress
from itertools import islice
from typing import Iterable, Iterator, Optional

from repro.obs.bus import EventBus

_PID_CLUSTER = 1
_PID_FABRIC = 2
_TID_TRANSPORT = 0
_TID_SWITCH = 1
_TID_GLOBAL = 2
_FABRIC_THREADS = (
    (_TID_TRANSPORT, "transport"),
    (_TID_SWITCH, "switch"),
    (_TID_GLOBAL, "global"),
)

#: records joined per piece of output; bounds what an export holds beyond
#: the retained events themselves.  256 records render to ~55 KB, well
#: under glibc's 128 KiB mmap threshold.
_CHUNK = 256
# Only fresh containers reach it (metadata, _json_safe's lists), so there
# is no cycle for the encoder's per-container check to find.
_encode = json.JSONEncoder(check_circular=False).encode
_str = json.encoder.encode_basestring_ascii
_float = float.__repr__
#: args keys the exporter sets itself
_RESERVED = frozenset(("kind", "seq", "parent", "node"))


def _json_safe(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(_json_safe(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@functools.cache
def _member(value: enum.Enum) -> str:
    return _encode(_json_safe(value))


def _other(value) -> str:
    if isinstance(value, enum.Enum):
        # A member's text never changes: its class's members are memoized.
        _TEXT[type(value)] = _member
    return _encode(_json_safe(value))


#: exact payload type -> its JSON text, as ``json.dumps`` writes it
_TEXT = {
    int: int.__repr__,
    str: _str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _meta(name: str, pid: int, label: str, tid=None) -> str:
    rec = {"name": name, "ph": "M", "pid": pid, "args": {"name": label}}
    if tid is not None:
        rec["tid"] = tid
    return _encode(rec)


class ChromeTraceExporter:
    """Bus consumer that renders retained events as a Chrome trace."""

    def __init__(
        self,
        bus: EventBus,
        kinds: Optional[Iterable[str]] = None,
        max_events: int = 1_000_000,
        n_nodes: Optional[int] = None,
    ):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        # ``kinds`` are prefix filters: "miss" keeps "miss.read" and
        # "miss.write"; "frame.drop" keeps exactly that kind.
        self.kinds = tuple(kinds) if kinds else None
        #: retained records, oldest first (see ``repro.obs.bus``)
        self.events: deque[tuple] = deque(maxlen=max_events)
        self.n_nodes = n_nodes
        # kind -> (kept by the ``kinds`` filter, cat, fabric tid or None
        # when the track follows the record's node)
        self._by_kind: dict[str, tuple] = {}
        # Not kept: the bus, whose folds would close a cycle back to self
        # and keep every retained record alive until a full GC pass.
        if self.kinds is None:
            # Every record lands in the ring, so the ring's own C extend
            # is the fold, and the seqs it holds say how many it has seen.
            self._first_seq = bus.events_published
            bus.subscribe(self.events.extend)
        else:
            self._kept = 0
            bus.subscribe(self._fold)

    @property
    def dropped(self) -> int:
        """Events evicted from the full ring, oldest first."""
        if self.kinds is not None:
            seen = self._kept
        elif self.events:
            seen = self.events[-1][6] + 1 - self._first_seq
        else:
            seen = 0
        return seen - len(self.events)

    def _kind(self, kind: str) -> tuple:
        info = self._by_kind.get(kind)
        if info is None:
            kept = self.kinds is None or any(
                kind == k or kind.startswith(k + ".") for k in self.kinds
            )
            cat = kind.split(".", 1)[0]
            if cat in ("frame", "channel"):
                tid = _TID_TRANSPORT
            elif cat == "switch":
                tid = _TID_SWITCH
            else:
                tid = None
            info = self._by_kind[kind] = (kept, cat, tid)
        return info

    def _fold(self, records: list) -> None:
        info = self._kind
        kept = [rec for rec in records if info(rec[0])[0]]
        self._kept += len(kept)
        self.events.extend(kept)

    def _head(self, kind: str, node, named) -> tuple:
        """A record's texts up to ``"ts": ``, from ``"kind"`` to ``"seq": ``
        and after the lineage."""
        _, cat, tid = self._kind(kind)
        if tid is not None:
            pid = _PID_FABRIC
        elif node is None:
            pid, tid = _PID_FABRIC, _TID_GLOBAL
        else:
            pid, tid = _PID_CLUSTER, node
        # Readability in Perfetto: replayed ops and sends surface the
        # specific op / message kind instead of the generic event kind.
        if kind == "op":
            kind_name = f"op:{named}"
        elif kind == "msg.send":
            kind_name = f"send:{_json_safe(named)}"
        else:
            kind_name = kind
        return (
            f'{{"name": {_str(kind_name)}, "cat": {_str(cat)}, "pid": {pid}, '
            f'"tid": {_encode(tid)}, "ts": ',
            f'"kind": {_str(kind)}, "seq": ',
            "}}" if node is None else f', "node": {_encode(node)}}}}}',
        )

    def _record_texts(self, other: dict) -> Iterator[str]:
        """The record pass behind every output form, in file order: the
        JSON text of the metadata, of one record per retained event, then
        of the flow pairs.  ``other`` becomes the trace's ``otherData``
        once it is exhausted.
        """
        events = self.events
        # Thread names lead the file, so the tid set is needed before the
        # first event record: a pre-pass over the retained events (not a
        # capture-time tally, which would outlive ring eviction).
        node_tids = set(range(self.n_nodes or 0))
        fabric_tids = set()
        for kind, node in {(rec[0], rec[3]) for rec in events}:
            tid = self._kind(kind)[2]
            if tid is not None:
                fabric_tids.add(tid)
            elif node is None:
                fabric_tids.add(_TID_GLOBAL)
            else:
                node_tids.add(node)
        yield _meta("process_name", _PID_CLUSTER, "cluster")
        for tid in sorted(node_tids):
            yield _meta("thread_name", _PID_CLUSTER, f"node {tid}", tid)
        yield _meta("process_name", _PID_FABRIC, "fabric")
        for tid, label in _FABRIC_THREADS:
            if tid in fabric_tids:
                yield _meta("thread_name", _PID_FABRIC, label, tid)

        # Flow arrows (ph "s"/"f") pair each frame's wire departure with
        # its delivery.  Pending sends are keyed by (src, dst, frame seq):
        # a retransmitted frame overwrites its earlier send (the arrow
        # tracks the copy that arrived), and transport resets that reuse
        # sequence spaces overwrite stale entries the same way.  Pairs are
        # emitted only when both endpoints were retained in the ring, so
        # eviction can never leave a dangling flow id.
        pending: dict[tuple, float] = {}
        flows: list[tuple[float, float]] = []
        heads: dict[tuple, tuple] = {}
        text = _TEXT.get
        for kind, t_ns, dur_ns, node, parent, args, seq in events:
            if kind == "op":
                named = args.get("op", "?")
            else:
                named = args.get("msg") if kind == "msg.send" else None
            head = heads.get((kind, node, named))
            if head is None:
                head = heads[kind, node, named] = self._head(kind, node, named)
            rec, lineage, close = head
            ts = t_ns / 1000.0
            if dur_ns > 0:
                ph = f', "ph": "X", "dur": {_float(dur_ns / 1000.0)}, "args": {{'
            else:
                ph = ', "ph": "i", "s": "t", "args": {'
            fields = args
            if args.keys().isdisjoint(_RESERVED):
                tail = lineage + str(seq)
                if parent is not None:
                    tail += f', "parent": {parent}'
                tail = f"{', ' if args else ''}{tail}{close}"
            else:
                # The exporter's keys overwrite the payload's in place, as
                # a dict update does (a frame's ``seq`` gives way to the
                # event's).
                fields = {**args, "kind": kind, "seq": seq}
                if parent is not None:
                    fields["parent"] = parent
                if node is not None:
                    fields["node"] = node
                tail = "}}"
            payload = ", ".join([
                f"{_str(k)}: {text(type(v), _other)(v)}" for k, v in fields.items()
            ])
            yield f"{rec}{_float(ts)}{ph}{payload}{tail}"
            if kind == "frame.send":
                pending[(node, args["dst"], args["seq"])] = ts
            elif kind == "frame.deliver":
                sent_ts = pending.pop((args["src"], node, args["seq"]), None)
                if sent_ts is not None:
                    flows.append((sent_ts, ts))

        for flow_id, (sent_ts, ts) in enumerate(flows, 1):
            flow = (
                f'{{"name": "frame", "cat": "flow", "id": {flow_id}, '
                f'"pid": {_PID_FABRIC}, "tid": {_TID_TRANSPORT}, "ph": '
            )
            yield f'{flow}"s", "ts": {_float(sent_ts)}}}'
            yield f'{flow}"f", "bp": "e", "ts": {_float(ts)}}}'

        other.update(
            generator="repro.obs",
            retained_events=len(events),
            flow_pairs=len(flows),
            dropped_events=self.dropped,
        )

    def _text(self) -> Iterator[str]:
        """The trace's JSON text, a chunk of records per piece."""
        other: dict = {}
        records = self._record_texts(other)
        yield '{"traceEvents": ['
        sep = ""
        while chunk := list(islice(records, _CHUNK)):
            yield sep
            yield ", ".join(chunk)
            sep = ", "
        yield f'], "displayTimeUnit": "ns", "otherData": {_encode(other)}}}'

    def to_json(self) -> str:
        return "".join(self._text())

    def to_chrome(self) -> dict:
        return json.loads(self.to_json())

    def write(self, path) -> int:
        """Write the trace to ``path``; returns the retained event count.

        The bytes are :meth:`to_json`'s text, rendered a chunk of records
        at a time, and published with ``os.replace`` so ``path`` never
        holds a truncated trace.
        """
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(self._text())
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
        return len(self.events)
