"""Time attribution: one recorded timeline, and the per-phase folding of it.

:class:`Timeline` is the only time-attribution consumer.  Per node it
records a chronological, gap-free list of spans ``(t0, t1, op, phase)``:
every replayed trace op is a contiguous span on its node's timeline (ops
run back-to-back from t=0), and the one thing that breaks the tiling — a
crash outage, from a node's last completed op to the common rollback
restart — is written into the ledger as an explicit ``OUTAGE`` span, so
no consumer has to rediscover the hole.  An op replayed after a rollback
whose trace index lies below the cursor its node had already reached is
recorded as ``REDO``.  Beside the spans sit the tables the consumers read:
phase labels, give-up→heal windows per node, checkpoint-write windows,
and (``lineage=True`` only) the miss/barrier sub-spans and message-chain
DAG the critical-path walk needs.

Two pure functions fold the ledger: :func:`phase_breakdown` below (the
paper's Figure 4: per phase, per node, seven buckets) and
:func:`repro.obs.critical.critical_path` (the exact causal path).

Buckets:

* ``compute``             — modelled computation (``compute`` ops);
* ``read_miss``           — read-fault detection + block fetch stalls;
* ``write_miss``          — write-fault detection + upgrade stalls;
* ``barrier_wait``        — drain + fence + barrier arrival/release;
* ``protocol_overhead``   — everything else the protocol charges the
  node inline: reductions, compiler-extension calls (mk_writable,
  flushes, prefetch issue), message-passing ops;
* ``transport_recovery``  — the part of any *waiting* bucket spent while
  one of the node's outgoing channels was given up (partition windows,
  from ``channel.giveup``/``channel.heal``), i.e. time attributable to
  riding out a fault rather than the protocol itself;
* ``recovery``            — fail-stop survival cost: barrier-checkpoint
  write windows (``ckpt.write``) carved out of the overlapped waits,
  every ``OUTAGE`` span and every ``REDO`` span.

Why folding after the run equals accumulating during it: an ``op`` event
is published when the op *ends*, and every window that can overlap the
op was published before that — ``channel.giveup`` and ``ckpt.write`` are
emitted at the instant their window starts, and bus order follows
simulated time.  A window published after the op's event therefore
starts at or after the op's end and overlaps nothing; a window still
open at the op's event closes at or after the op's end, so clipping it
to the op gives the same overlap either way.  The digests pinned in
``tests/obs/attribution_matrix.py`` were recorded from the streaming
implementation this replaced.

Because the spans tile every node's timeline, bucket sums equal
``node_total_ns``, and the slowest node's total is the instant the last
program finished — ``elapsed_ns``, unless the engine had trailing work
to drain — to the nanosecond, crashes included.
"""

from __future__ import annotations

from math import inf

from repro.obs.bus import EventBus

BUCKETS = (
    "compute",
    "read_miss",
    "write_miss",
    "barrier_wait",
    "protocol_overhead",
    "transport_recovery",
    "recovery",
)

#: Ledger-only span kinds (never trace ops): a crash outage, and an op
#: re-executed after a rollback.
OUTAGE = "outage"
REDO = "redo"

# Span kind -> bucket; unlisted op kinds charge protocol overhead.
OP_BUCKET = {
    "compute": "compute",
    "read": "read_miss",
    "write": "write_miss",
    "barrier": "barrier_wait",
    OUTAGE: "recovery",
    REDO: "recovery",
}

_KINDS = {
    "op", "phase", "channel.giveup", "channel.heal", "ckpt.write",
    "recover.rollback",
}
_LINEAGE_KINDS = {
    "barrier", "barrier.arrive", "barrier.release", "miss.read", "miss.join",
    "miss.write", "msg.send", "switch.traverse", "frame.send",
    "frame.retransmit",
}


class Timeline:
    """Bus consumer recording the per-node span ledger.

    Attach before the run; fold afterwards.  Recording never schedules
    engine events, so instrumented runs stay schedule-identical to plain
    ones.  ``lineage`` additionally records what only the critical-path
    walk reads.
    """

    def __init__(self, bus: EventBus, n_nodes: int, lineage: bool = False):
        self.n_nodes = n_nodes
        # Per-node spans (t0, t1, op, phase), chronological and abutting.
        self.spans: list[list[tuple]] = [[] for _ in range(n_nodes)]
        # Phase index -> label, for every phase a marker or a span named.
        self.labels: dict[int, str] = {}
        # Per-node [t0, t1] windows during which the node had at least one
        # given-up outgoing channel; t1 is ``inf`` while still open.
        self.cuts: list[list[list]] = [[] for _ in range(n_nodes)]
        # Checkpoint-write windows (global: every node waits the write out).
        self.ckpts: list[tuple[int, int]] = []
        self._cur: list = [None] * n_nodes  # current phase index per node
        self._open = [0] * n_nodes  # given-up channels per node
        # Per-node trace index below which ops are re-execution (set by
        # the latest rollback; ops in flight across one are cancelled, so
        # "latest published" and "latest before the op started" agree).
        self._reached: list[int] = [0] * n_nodes
        self._kinds = _KINDS
        if lineage:
            self._kinds = _KINDS | _LINEAGE_KINDS
            # Per-node barrier spans (t0, t1, gen, release_msg_seq|None).
            self.bars: list[list[tuple]] = [[] for _ in range(n_nodes)]
            # Per-node miss sub-spans (t0, t1, root_msg_seq|None).
            self.miss: list[list[tuple]] = [[] for _ in range(n_nodes)]
            # gen -> [(t_ns, last_arriver, sent_ns, arrival_msg_seq, manager)]
            # for all-arrived instants; gens repeat across rollbacks.
            self.arrive: dict[int, list[tuple]] = {}
            # gen -> [t_ns] of release broadcasts.
            self.release: dict[int, list[int]] = {}
            # msg.send seq -> wire_ns; seq -> children seqs (msg + frame).
            self.wire: dict[int, int] = {}
            self.children: dict[int, list[int]] = {}
            # seq -> summed switch wait_ns charged to that msg/frame.
            self.wait: dict[int, int] = {}
            # first-frame seqs referenced by at least one frame.retransmit.
            self.retrans: set[int] = set()
        # Not kept: see ChromeTraceExporter (no self-cycle through the bus).
        bus.subscribe(self._fold)

    def _phase(self, node: int) -> int:
        """The node's current phase; spans before any phase marker
        (programs replayed without markers) land in a synthetic phase 0."""
        index = self._cur[node]
        if index is None:
            index = self._cur[node] = 0
            self._label(0, "startup")
        return index

    def _label(self, index: int, label: str) -> None:
        if not self.labels.get(index):
            self.labels[index] = label

    def _fold(self, records: list) -> None:
        kinds = self._kinds
        for kind, t_ns, dur_ns, node, parent, args, seq in records:
            if kind not in kinds:
                continue
            if kind == "op":
                op = args["op"]
                idx = args.get("idx")
                if idx is not None and idx < self._reached[node]:
                    op = REDO
                self.spans[node].append((t_ns, t_ns + dur_ns, op, self._phase(node)))
            elif kind == "msg.send":
                self.wire[seq] = args["wire_ns"]
                if parent is not None:
                    self.children.setdefault(parent, []).append(seq)
            elif kind == "frame.send":
                if parent is not None:
                    self.children.setdefault(parent, []).append(seq)
            elif kind == "switch.traverse":
                if parent is not None and args["wait_ns"]:
                    self.wait[parent] = self.wait.get(parent, 0) + args["wait_ns"]
            elif kind == "frame.retransmit":
                if parent is not None:
                    self.retrans.add(parent)
            elif kind in ("miss.read", "miss.join", "miss.write"):
                self.miss[node].append((t_ns, t_ns + dur_ns, parent))
            elif kind == "barrier":
                self.bars[node].append(
                    (t_ns, t_ns + dur_ns, args["gen"], args.get("release_msg"))
                )
            elif kind == "barrier.arrive":
                if args["last"]:
                    self.arrive.setdefault(args["gen"], []).append(
                        (t_ns, args["src"], args["sent_ns"], parent, node)
                    )
            elif kind == "barrier.release":
                self.release.setdefault(args["gen"], []).append(t_ns)
            elif kind == "phase":
                self._cur[node] = args["index"]
                self._label(args["index"], args["label"])
            elif kind == "ckpt.write":
                if dur_ns:
                    self.ckpts.append((t_ns, t_ns + dur_ns))
            elif kind == "channel.giveup":
                if self._open[node] == 0:
                    self.cuts[node].append([t_ns, inf])
                self._open[node] += 1
            elif kind == "channel.heal":
                if self._open[node] > 0:
                    self._open[node] -= 1
                    if self._open[node] == 0:
                        self.cuts[node][-1][1] = t_ns
            elif kind == "recover.rollback":
                for n, spans in enumerate(self.spans):
                    # The transport reset heals every given-up channel
                    # without per-channel heal events: the open window
                    # ends here.
                    if self._open[n]:
                        self._open[n] = 0
                        self.cuts[n][-1][1] = t_ns
                    # The outage: last completed op -> common restart instant.
                    last_end = spans[-1][1] if spans else 0
                    if t_ns > last_end:
                        spans.append((last_end, t_ns, OUTAGE, self._phase(n)))
                self._reached = list(args["reached"])


def _overlap(windows, t0: int, t1: int) -> int:
    """Overlap of ``[t0, t1)`` with ``windows`` (chronological by start)."""
    total = 0
    for w0, w1 in windows:
        if w0 >= t1:
            break
        if w1 > t0:
            total += min(t1, w1) - max(t0, w0)
    return total


def phase_breakdown(timeline: Timeline) -> dict:
    """Fold the ledger into ``RunResult.phase_breakdown``: per phase, per
    node, nanoseconds per bucket."""
    n_nodes = timeline.n_nodes
    phases = {
        index: [dict.fromkeys(BUCKETS, 0) for _ in range(n_nodes)]
        for index in sorted(timeline.labels)
    }
    ckpts = timeline.ckpts
    node_total_ns = []
    for node, spans in enumerate(timeline.spans):
        cuts = timeline.cuts[node]  # disjoint: one window at a time per node
        node_total = 0
        for t0, t1, op, phase in spans:
            dur = t1 - t0
            node_total += dur
            buckets = phases[phase][node]
            bucket = OP_BUCKET.get(op, "protocol_overhead")
            if (cuts or ckpts) and bucket not in ("compute", "recovery"):
                # Only waiting can be carved: first the partition windows,
                # then checkpoint writes out of whatever is left.
                cut = _overlap(cuts, t0, t1)
                ckpt = min(_overlap(ckpts, t0, t1), dur - cut)
                buckets["transport_recovery"] += cut
                buckets["recovery"] += ckpt
                dur -= cut + ckpt
            buckets[bucket] += dur
        node_total_ns.append(node_total)
    return {
        "buckets": list(BUCKETS),
        "n_nodes": n_nodes,
        "node_total_ns": node_total_ns,
        "phases": [
            {
                "index": index,
                "label": timeline.labels[index],
                "node_ns": nodes,
                "total_ns": {b: sum(nb[b] for nb in nodes) for b in BUCKETS},
            }
            for index, nodes in phases.items()
        ],
    }


def breakdown_totals(breakdown: dict) -> dict:
    """Whole-run bucket totals (summed over phases and nodes)."""
    totals = dict.fromkeys(breakdown["buckets"], 0)
    for phase in breakdown["phases"]:
        for k, v in phase["total_ns"].items():
            totals[k] += v
    return totals


def render_breakdown(breakdown: dict, max_phases: int = 40) -> str:
    """Fixed-width per-phase table for terminal output."""
    buckets = breakdown["buckets"]

    def row(label: str, total_ns: dict) -> str:
        total = sum(total_ns.values())
        pcts = [100.0 * total_ns[b] / total if total else 0.0 for b in buckets]
        cells = "".join(f"{pct:12.1f}%" for pct in pcts)
        return f"{label.ljust(22)}{cells}{total / 1e6:10.3f}"

    lines = [
        "phase".ljust(22)
        + "".join(b[:12].rjust(13) for b in buckets)
        + "total_ms".rjust(10)
    ]
    phases = breakdown["phases"]
    for phase in phases[:max_phases]:
        lines.append(
            row(f"{phase['index']:>3} {phase['label'][:17]}", phase["total_ns"])
        )
    if len(phases) > max_phases:
        lines.append(f"... {len(phases) - max_phases} more phases")
    lines.append(row("all phases", breakdown_totals(breakdown)))
    return "\n".join(lines)
