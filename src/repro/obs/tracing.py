"""Message tracing: record and render protocol traffic.

Debugging a coherence protocol is archaeology over message interleavings;
this module makes the dig pleasant.  A :class:`MessageTracer` folds an
:class:`~repro.obs.bus.EventBus`'s records and keeps every ``msg.send``
event with its timestamp, endpoints, kind and size.  Afterwards it renders

* a textual **message-sequence chart** (one column per node, time flowing
  down) — the format protocol papers draw by hand, and
* per-kind / per-link **summaries** for traffic analysis.

Because the records come off the same bus events that drive the stats
counters, ``len(records) == stats.total_messages`` holds exactly — including
COMBINED frames, which the old ``Network.send`` monkey-patch never saw.

Example::

    cl = Cluster(cfg, mem)
    tracer = MessageTracer(cl.ensure_bus(), cl.n_nodes,
                           kinds={MsgKind.READ_REQ, MsgKind.READ_RESP})
    cl.run(programs)
    print(tracer.sequence_chart())
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.obs.bus import EventBus

if TYPE_CHECKING:  # pragma: no cover - repro.obs imports nothing it observes
    from repro.tempest.stats import MsgKind

__all__ = ["MessageRecord", "MessageTracer"]


@dataclass(frozen=True)
class MessageRecord:
    """One message send event."""

    t_ns: int
    src: int
    dst: int
    kind: MsgKind
    size_bytes: int

    def __str__(self) -> str:
        return (
            f"{self.t_ns / 1000:10.1f}us  n{self.src} -> n{self.dst}  "
            f"{self.kind.value} ({self.size_bytes}B)"
        )


class MessageTracer:
    """Records a cluster's message traffic (subscribe before running)."""

    def __init__(
        self,
        bus: EventBus,
        n_nodes: int,
        kinds: Iterable[MsgKind] | None = None,
        max_records: int = 100_000,
    ) -> None:
        self.n_nodes = n_nodes
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.max_records = max_records
        self.records: list[MessageRecord] = []
        self.dropped = 0
        bus.subscribe(self._fold)

    # ------------------------------------------------------------------ #
    def _fold(self, records: list) -> None:
        for event, t_ns, _, _, _, args, _ in records:
            if event != "msg.send":
                continue
            kind = args["msg"]
            if self.kinds is not None and kind not in self.kinds:
                continue
            if len(self.records) < self.max_records:
                self.records.append(
                    MessageRecord(t_ns, args["src"], args["dst"], kind, args["size"])
                )
            else:
                self.dropped += 1

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def by_kind(self) -> Counter:
        return Counter(r.kind for r in self.records)

    def bytes_total(self) -> int:
        return sum(r.size_bytes for r in self.records)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def sequence_chart(self) -> str:
        """Render a text message-sequence chart (columns = nodes).

        Each row is one send: the message label sits in the source node's
        column with an arrow toward the destination.
        """
        max_rows, col_width = 60, 14
        n = self.n_nodes or (
            max((max(r.src, r.dst) for r in self.records), default=0) + 1
        )
        header = "time (us)".ljust(12) + "".join(
            f"n{i}".center(col_width) for i in range(n)
        )
        lines = [header, "-" * len(header)]
        for r in self.records[:max_rows]:
            cells = [" " * col_width] * n
            label = r.kind.value[: col_width - 2]
            if r.src == r.dst:
                cells[r.src] = f"({label})".center(col_width)
            else:
                arrow = ">" if r.dst > r.src else "<"
                cells[r.src] = f"{label}{arrow}".rjust(col_width) if r.dst > r.src else f"{arrow}{label}".ljust(col_width)
                lo, hi = sorted((r.src, r.dst))
                for mid in range(lo + 1, hi):
                    cells[mid] = ("-" * (col_width - 2)).center(col_width)
            lines.append(f"{r.t_ns / 1000:<12.1f}" + "".join(cells))
        if len(self.records) > max_rows:
            lines.append(f"... {len(self.records) - max_rows} more messages")
        if self.dropped:
            lines.append(f"... {self.dropped} messages dropped (max_records)")
        return "\n".join(lines)

    def summary(self) -> str:
        kinds = ", ".join(f"{k.value}:{c}" for k, c in self.by_kind().most_common())
        return (
            f"{len(self.records)} messages, {self.bytes_total()} bytes "
            f"[{kinds}]"
        )
