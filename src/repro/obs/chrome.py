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
import json
import os
from collections import deque
from contextlib import suppress
from itertools import islice
from typing import Iterable, Iterator, Optional

from repro.obs.bus import Event, EventBus

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

#: records handed to the C encoder per call in :meth:`write`; bounds what
#: an export holds beyond the retained events themselves.  256 records
#: encode to ~55 KB, well under glibc's 128 KiB mmap threshold; measured on
#: hostbench ``observed``, 512 and 1024 cost the same wall and read
#: ``peak_rss_mb`` 10 MB higher.
_CHUNK = 256
# The pass builds every record from scalars and _json_safe's fresh lists,
# so there is no cycle for the encoder's per-container check to find.
_encode = json.JSONEncoder(check_circular=False).encode
#: exact payload types the encoder takes as they are (an Enum that
#: subclasses one of them is not in here and goes through _json_safe)
_PLAIN = frozenset((int, float, str, bool, type(None)))


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


def _meta(name: str, pid: int, label: str, tid=None) -> dict:
    rec = {"name": name, "ph": "M", "pid": pid, "args": {"name": label}}
    if tid is not None:
        rec["tid"] = tid
    return rec


class ChromeTraceExporter:
    """Bus subscriber that renders retained events as a Chrome trace."""

    def __init__(
        self,
        bus: EventBus,
        kinds: Optional[Iterable[str]] = None,
        max_events: int = 1_000_000,
        n_nodes: Optional[int] = None,
    ):
        # ``kinds`` are prefix filters: "miss" keeps "miss.read" and
        # "miss.write"; "frame.drop" keeps exactly that kind.
        self.kinds = tuple(kinds) if kinds else None
        self.events: deque[Event] = deque(maxlen=max(1, max_events))
        self.dropped = 0
        self.n_nodes = n_nodes
        # kind -> (kept by the ``kinds`` filter, cat, fabric tid or None
        # when the track follows ``ev.node``, record name or None when
        # the name follows the payload)
        self._by_kind: dict[str, tuple] = {}
        # Not kept: a stored Subscription, whose callback is bound to self,
        # would make a cycle that outlives the run until a full GC pass.
        bus.subscribe(self._on_event)

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
            name = None if kind in ("op", "msg.send") else kind
            info = self._by_kind[kind] = (kept, cat, tid, name)
        return info

    def _on_event(self, ev: Event) -> None:
        if self.kinds is not None and not self._kind(ev.kind)[0]:
            return
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(ev)

    @staticmethod
    def _payload_name(ev: Event) -> str:
        # Readability in Perfetto: replayed ops and sends surface the
        # specific op / message kind instead of the generic event kind.
        if ev.kind == "op":
            return f"op:{ev.args.get('op', '?')}"
        return f"send:{_json_safe(ev.args.get('msg'))}"

    def _records(self, other: dict) -> Iterator[dict]:
        """The record pass behind every output form, in file order:
        metadata, one record per retained event, then the flow pairs.
        ``other`` becomes the trace's ``otherData`` once it is exhausted.
        """
        events = self.events
        # Thread names lead the file, so the tid set is needed before the
        # first event record: a pre-pass over the retained events (not a
        # capture-time tally, which would outlive ring eviction).
        node_tids = set(range(self.n_nodes or 0))
        fabric_tids = set()
        for kind, node in {(ev.kind, ev.node) for ev in events}:
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
        by_kind = self._by_kind  # the pre-pass saw every retained kind
        for ev in events:
            kind = ev.kind
            _, cat, tid, name = by_kind[kind]
            node = ev.node
            if tid is not None:
                pid = _PID_FABRIC
            elif node is None:
                pid, tid = _PID_FABRIC, _TID_GLOBAL
            else:
                pid, tid = _PID_CLUSTER, node
            ts = ev.t_ns / 1000.0
            args = {
                k: v if type(v) in _PLAIN else _json_safe(v)
                for k, v in ev.args.items()
            }
            args["kind"] = kind
            args["seq"] = ev.seq
            if ev.parent is not None:
                args["parent"] = ev.parent
            if node is not None:
                args["node"] = node
            if name is None:
                name = self._payload_name(ev)
            rec = {
                "name": name,
                "cat": cat,
                "pid": pid,
                "tid": tid,
                "ts": ts,
            }
            if ev.dur_ns > 0:
                rec["ph"] = "X"
                rec["dur"] = ev.dur_ns / 1000.0
            else:
                rec["ph"] = "i"
                rec["s"] = "t"
            rec["args"] = args
            yield rec
            if kind == "frame.send":
                pending[(node, ev.args["dst"], ev.args["seq"])] = ts
            elif kind == "frame.deliver":
                sent_ts = pending.pop((ev.args["src"], node, ev.args["seq"]), None)
                if sent_ts is not None:
                    flows.append((sent_ts, ts))

        for flow_id, (sent_ts, ts) in enumerate(flows, 1):
            flow = {
                "name": "frame",
                "cat": "flow",
                "id": flow_id,
                "pid": _PID_FABRIC,
                "tid": _TID_TRANSPORT,
            }
            yield {**flow, "ph": "s", "ts": sent_ts}
            yield {**flow, "ph": "f", "bp": "e", "ts": ts}

        other.update(
            generator="repro.obs",
            retained_events=len(events),
            flow_pairs=len(flows),
            dropped_events=self.dropped,
        )

    def to_chrome(self) -> dict:
        other: dict = {}
        records = list(self._records(other))
        return {
            "traceEvents": records,
            "displayTimeUnit": "ns",
            "otherData": other,
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_chrome(), indent=indent)

    def write(self, path) -> int:
        """Write the trace to ``path``; returns the retained event count.

        The bytes are ``json.dumps(self.to_chrome())``, rendered a chunk of
        records at a time, and published with ``os.replace`` so ``path``
        never holds a truncated trace.
        """
        other: dict = {}
        records = self._records(other)
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write('{"traceEvents": [')
                sep = ""
                while chunk := list(islice(records, _CHUNK)):
                    fh.write(sep)
                    fh.write(_encode(chunk)[1:-1])
                    sep = ", "
                fh.write(
                    f'], "displayTimeUnit": "ns", "otherData": {_encode(other)}}}'
                )
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
        return len(self.events)
