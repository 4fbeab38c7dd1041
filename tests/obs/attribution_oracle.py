"""The parent's two time decompositions, kept as the differential reference.

``PhaseProfiler`` and ``CriticalPathAnalyzer`` are the streaming bus
subscribers ``repro.obs`` shipped before PR 16 replaced them with one
recorded :class:`repro.obs.Timeline` and two pure foldings of it
(:func:`repro.obs.phase_breakdown`, :func:`repro.obs.critical_path`).
Both classes — and the constant tables they read — are copied verbatim
from ``src/repro/obs/profile.py`` / ``src/repro/obs/critical.py`` at
commit 77a29f1; ``tests/obs/test_attribution.py`` attaches them to the
same bus as the new recorder and requires equal dicts on every matrix
cell.  Nothing under ``src/`` imports this module (the
``tests/heap_engine.py`` / ``tests/core/blocks_oracle.py`` pattern).

The bus has since stopped calling consumers per event: it hands them
chunks of record tuples.  :func:`_per_event` folds a chunk through the
kind filter the parent subscribed with and passes each record to the
unchanged callback as an :class:`Event`, the attribute view it was
written against.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.obs.bus import EventBus


class Event:
    """One record under the attribute names of the parent's ``Event``."""

    __slots__ = ("kind", "t_ns", "dur_ns", "node", "parent", "args", "seq")

    def __init__(self, record: tuple):
        (self.kind, self.t_ns, self.dur_ns, self.node, self.parent, self.args,
         self.seq) = record


def _per_event(callback, kinds):
    """A bus fold calling ``callback`` once per record of ``kinds``."""

    def fold(records: list) -> None:
        for record in records:
            if record[0] in kinds:
                callback(Event(record))

    return fold


# --------------------------------------------------------------------- #
# obs/profile.py @ 77a29f1
# --------------------------------------------------------------------- #
BUCKETS = (
    "compute",
    "read_miss",
    "write_miss",
    "barrier_wait",
    "protocol_overhead",
    "transport_recovery",
    "recovery",
)

# Trace-op kind -> bucket; unlisted op kinds charge protocol overhead.
OP_BUCKET = {
    "compute": "compute",
    "read": "read_miss",
    "write": "write_miss",
    "barrier": "barrier_wait",
}


class PhaseProfiler:
    """Bus subscriber accumulating per-phase, per-node bucket times."""

    def __init__(self, bus: EventBus, n_nodes: int):
        self.n_nodes = n_nodes
        self._phases: dict[int, dict] = {}
        self._cur = [None] * n_nodes  # current phase entry per node
        # Partition bookkeeping: a "recovery window" for node n is open
        # while n has at least one given-up outgoing channel.
        self._open_cuts = [0] * n_nodes
        self._cut_since = [0] * n_nodes
        self._windows: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
        self.node_total_ns = [0] * n_nodes
        # Fail-stop bookkeeping: end of each node's last completed op
        # (tiling frontier), checkpoint-write windows (global — every node
        # waits the write out together), and the per-node trace index below
        # which op events are re-execution after a rollback.
        self._last_end = [0] * n_nodes
        self._ckpt_windows: list[tuple[int, int]] = []
        self._reexec_until = [-1] * n_nodes
        bus.subscribe(_per_event(
            self._on_event,
            kinds={
                "op", "phase", "channel.giveup", "channel.heal",
                "ckpt.write", "recover.rollback",
            },
        ))

    def _entry(self, index: int, label: str = "") -> dict:
        e = self._phases.get(index)
        if e is None:
            e = self._phases[index] = {
                "index": index,
                "label": label,
                "nodes": [dict.fromkeys(BUCKETS, 0) for _ in range(self.n_nodes)],
            }
        elif label and not e["label"]:
            e["label"] = label
        return e

    def _on_event(self, ev: Event) -> None:
        kind = ev.kind
        if kind == "op":
            node = ev.node
            entry = self._cur[node]
            if entry is None:
                # Ops before any phase marker (programs replayed without
                # markers) land in a synthetic phase 0.
                entry = self._cur[node] = self._entry(0, "startup")
            dur = ev.dur_ns
            self.node_total_ns[node] += dur
            self._last_end[node] = ev.t_ns + dur
            buckets = entry["nodes"][node]
            idx = ev.args.get("idx")
            if idx is not None and idx < self._reexec_until[node]:
                # Re-executed work after a rollback: the node already did
                # this op once; the whole span is recovery cost.
                buckets["recovery"] += dur
                return
            bucket = OP_BUCKET.get(ev.args["op"], "protocol_overhead")
            if bucket != "compute":
                recovered = self._recovery_overlap(node, ev.t_ns, ev.t_ns + dur)
                if recovered:
                    buckets["transport_recovery"] += recovered
                    dur -= recovered
                ckpt = self._ckpt_overlap(ev.t_ns, ev.t_ns + ev.dur_ns)
                if ckpt:
                    ckpt = min(ckpt, dur)
                    buckets["recovery"] += ckpt
                    dur -= ckpt
            buckets[bucket] += dur
        elif kind == "phase":
            self._cur[ev.node] = self._entry(ev.args["index"], ev.args["label"])
        elif kind == "ckpt.write":
            if ev.dur_ns:
                self._ckpt_windows.append((ev.t_ns, ev.t_ns + ev.dur_ns))
        elif kind == "recover.rollback":
            # Fill each node's outage hole — last completed op to the
            # common restart instant — so the tiling invariant survives.
            restart = ev.t_ns
            for node in range(self.n_nodes):
                # The transport reset heals every given-up channel without
                # emitting per-channel heal events; close open partition
                # windows here so post-recovery time is not misattributed
                # to ``transport_recovery``.
                if self._open_cuts[node]:
                    self._open_cuts[node] = 0
                    self._windows[node].append((self._cut_since[node], restart))
            for node in range(self.n_nodes):
                gap = restart - self._last_end[node]
                if gap > 0:
                    entry = self._cur[node]
                    if entry is None:
                        entry = self._cur[node] = self._entry(0, "startup")
                    entry["nodes"][node]["recovery"] += gap
                    self.node_total_ns[node] += gap
                    self._last_end[node] = restart
            reached = ev.args.get("reached") or []
            for node, upto in enumerate(reached[: self.n_nodes]):
                self._reexec_until[node] = upto
        elif kind == "channel.giveup":
            node = ev.node
            if self._open_cuts[node] == 0:
                self._cut_since[node] = ev.t_ns
            self._open_cuts[node] += 1
        elif kind == "channel.heal":
            node = ev.node
            if self._open_cuts[node] > 0:
                self._open_cuts[node] -= 1
                if self._open_cuts[node] == 0:
                    self._windows[node].append((self._cut_since[node], ev.t_ns))

    def _recovery_overlap(self, node: int, t0: int, t1: int) -> int:
        """Overlap of ``[t0, t1)`` with the node's recovery windows."""
        total = 0
        for w0, w1 in self._windows[node]:
            lo = t0 if t0 > w0 else w0
            hi = t1 if t1 < w1 else w1
            if hi > lo:
                total += hi - lo
        if self._open_cuts[node]:  # window still open at op end
            lo = max(t0, self._cut_since[node])
            if t1 > lo:
                total += t1 - lo
        return total if total < t1 - t0 else t1 - t0

    def _ckpt_overlap(self, t0: int, t1: int) -> int:
        """Overlap of ``[t0, t1)`` with checkpoint-write windows."""
        total = 0
        for w0, w1 in self._ckpt_windows:
            lo = t0 if t0 > w0 else w0
            hi = t1 if t1 < w1 else w1
            if hi > lo:
                total += hi - lo
        return total

    def breakdown(self) -> dict:
        """Structured result stored as ``RunResult.phase_breakdown``."""
        phases = []
        for index in sorted(self._phases):
            e = self._phases[index]
            total = dict.fromkeys(BUCKETS, 0)
            for nb in e["nodes"]:
                for k, v in nb.items():
                    total[k] += v
            phases.append(
                {
                    "index": e["index"],
                    "label": e["label"],
                    "node_ns": [dict(nb) for nb in e["nodes"]],
                    "total_ns": total,
                }
            )
        return {
            "buckets": list(BUCKETS),
            "n_nodes": self.n_nodes,
            "node_total_ns": list(self.node_total_ns),
            "phases": phases,
        }


# --------------------------------------------------------------------- #
# obs/critical.py @ 77a29f1
# --------------------------------------------------------------------- #
COST_CLASSES = (
    "compute",
    "wire",
    "port_queue",
    "protocol",
    "transport_recovery",
    "barrier_slack",
)

#: op kinds that are pure synchronization waits on the critical path
_WAIT_OPS = frozenset({"reduce", "recv", "mp_recv"})

_KINDS = {
    "op",
    "barrier",
    "barrier.arrive",
    "barrier.release",
    "miss.read",
    "miss.join",
    "miss.write",
    "msg.send",
    "switch.traverse",
    "frame.send",
    "frame.retransmit",
    "recover.rollback",
}


class CriticalPathAnalyzer:
    """Bus subscriber that records the lineage DAG and extracts the path.

    Attach before the run (like :class:`~repro.obs.PhaseProfiler`), then
    call :meth:`result` with the finished run's ``elapsed_ns``.  Recording
    never schedules engine events, so instrumented runs stay
    schedule-identical to plain ones.
    """

    def __init__(self, bus: EventBus, n_nodes: int):
        self.n_nodes = n_nodes
        # Per-node replayed-op spans (t0, t1, op_kind, trace_idx|None),
        # chronological (ops tile each node's timeline back-to-back).
        self._ops: list[list[tuple]] = [[] for _ in range(n_nodes)]
        # Per-node barrier spans (t0, t1, gen, release_msg_seq|None).
        self._bars: list[list[tuple]] = [[] for _ in range(n_nodes)]
        # Per-node miss sub-spans (t0, t1, root_msg_seq|None).
        self._miss: list[list[tuple]] = [[] for _ in range(n_nodes)]
        # gen -> [(t_ns, last_arriver, sent_ns, arrival_msg_seq, manager)]
        # for all-arrived instants; gens repeat across rollbacks, so lists.
        self._arrive: dict[int, list[tuple]] = {}
        # gen -> [t_ns] of release broadcasts.
        self._release: dict[int, list[int]] = {}
        # msg.send seq -> wire_ns; seq -> children seqs (msg + frame).
        self._wire: dict[int, int] = {}
        self._children: dict[int, list[int]] = {}
        # seq -> summed switch wait_ns charged to that msg/frame.
        self._wait: dict[int, int] = {}
        # first-frame seqs referenced by at least one frame.retransmit.
        self._retrans: set[int] = set()
        # (restart_t_ns, reached_cursors) per rollback, chronological.
        self._rollbacks: list[tuple[int, list]] = []
        bus.subscribe(_per_event(self._on_event, _KINDS))

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _on_event(self, ev: Event) -> None:
        kind = ev.kind
        if kind == "op":
            self._ops[ev.node].append(
                (ev.t_ns, ev.t_ns + ev.dur_ns, ev.args["op"], ev.args.get("idx"))
            )
        elif kind == "msg.send":
            self._wire[ev.seq] = ev.args["wire_ns"]
            if ev.parent is not None:
                self._children.setdefault(ev.parent, []).append(ev.seq)
        elif kind == "frame.send":
            if ev.parent is not None:
                self._children.setdefault(ev.parent, []).append(ev.seq)
        elif kind == "switch.traverse":
            if ev.parent is not None and ev.args["wait_ns"]:
                self._wait[ev.parent] = (
                    self._wait.get(ev.parent, 0) + ev.args["wait_ns"]
                )
        elif kind == "frame.retransmit":
            if ev.parent is not None:
                self._retrans.add(ev.parent)
        elif kind in ("miss.read", "miss.join", "miss.write"):
            self._miss[ev.node].append(
                (ev.t_ns, ev.t_ns + ev.dur_ns, ev.parent)
            )
        elif kind == "barrier":
            self._bars[ev.node].append(
                (ev.t_ns, ev.t_ns + ev.dur_ns, ev.args["gen"],
                 ev.args.get("release_msg"))
            )
        elif kind == "barrier.arrive":
            if ev.args["last"]:
                self._arrive.setdefault(ev.args["gen"], []).append(
                    (ev.t_ns, ev.args["src"], ev.args["sent_ns"],
                     ev.parent, ev.node)
                )
        elif kind == "barrier.release":
            self._release.setdefault(ev.args["gen"], []).append(ev.t_ns)
        elif kind == "recover.rollback":
            self._rollbacks.append((ev.t_ns, list(ev.args.get("reached") or [])))

    # ------------------------------------------------------------------ #
    # causal-chain cost lookup
    # ------------------------------------------------------------------ #
    def _chain_costs(self, root: int) -> tuple[int, int, bool]:
        """(wire_ns, port_wait_ns, any_retransmit) over ``root``'s DAG."""
        wire = port = 0
        retrans = False
        stack = [root]
        seen: set[int] = set()
        while stack:
            seq = stack.pop()
            if seq in seen:
                continue
            seen.add(seq)
            wire += self._wire.get(seq, 0)
            port += self._wait.get(seq, 0)
            if seq in self._retrans:
                retrans = True
            kids = self._children.get(seq)
            if kids:
                stack.extend(kids)
        return wire, port, retrans

    def _reexec(self, node: int, t0: int, idx) -> bool:
        """Is the op at ``t0`` (trace index ``idx``) post-rollback redo?"""
        if idx is None or not self._rollbacks:
            return False
        reached = None
        for restart_t, r in self._rollbacks:
            if restart_t <= t0:
                reached = r
            else:
                break
        return (
            reached is not None
            and node < len(reached)
            and idx < reached[node]
        )

    # ------------------------------------------------------------------ #
    # the backward walk
    # ------------------------------------------------------------------ #
    def result(self, elapsed_ns: int) -> dict:
        """Extract the critical path of a completed run.

        Partitions ``[0, elapsed_ns)`` into labeled segments and returns
        per-class totals plus what-if bounds.  Raises ``AssertionError``
        if the segment lengths do not sum to ``elapsed_ns`` exactly —
        the tiling invariant every lineage publisher upholds.
        """
        classes = dict.fromkeys(COST_CLASSES, 0)
        by_node = [dict.fromkeys(COST_CLASSES, 0) for _ in range(self.n_nodes)]
        n_segments = 0
        # Outage holes exist only on rollback runs; elsewhere a gap means
        # residual active work (e.g. trailing handler time) -> protocol.
        gap_class = "transport_recovery" if self._rollbacks else "protocol"

        def out(node: int, a: int, b: int, cls: str) -> None:
            nonlocal n_segments
            d = b - a
            if d <= 0:
                return
            classes[cls] += d
            if 0 <= node < self.n_nodes:
                by_node[node][cls] += d
            n_segments += 1

        def chain_interval(node, a, b, root, rest_class) -> None:
            """Attribute a message-delivery wait [a, b) via its chain."""
            d = b - a
            if d <= 0:
                return
            if root is None:
                out(node, a, b, rest_class)
                return
            wire, port, retrans = self._chain_costs(root)
            wire = min(wire, d)
            port = min(port, d - wire)
            rest = d - wire - port
            if rest:
                out(node, a, a + rest,
                    "transport_recovery" if retrans else rest_class)
            if port:
                out(node, a + rest, a + rest + port, "port_queue")
            if wire:
                out(node, b - wire, b, "wire")

        starts = [[op[0] for op in ops] for ops in self._ops]
        ends = [ops[-1][1] if ops else 0 for ops in self._ops]
        # Bisect indices for the per-op decomposers (lists are
        # chronological by construction).
        self._miss_ends = [[m[1] for m in ms] for ms in self._miss]
        self._bar_starts = [[b[0] for b in bs] for bs in self._bars]
        if elapsed_ns <= 0 or not any(self._ops):
            out(0, 0, elapsed_ns, "protocol")
            return self._package(elapsed_ns, classes, by_node, n_segments)

        node = max(range(self.n_nodes), key=lambda n: ends[n])
        t = elapsed_ns
        while t > 0:
            ops = self._ops[node]
            i = bisect_right(starts[node], t - 1) - 1
            if i < 0:
                out(node, 0, t, gap_class)
                break
            t0, t1, op_kind, idx = ops[i]
            if t1 < t:
                # Hole in the tiling: crash outage (rollback runs) or
                # trailing non-op time.
                out(node, t1, t, gap_class)
                t = t1
                continue
            # The op span covers (t0, t]; decompose [t0, t).
            nxt_t, nxt_node = self._decompose(
                node, t0, t, op_kind, idx, out, chain_interval
            )
            if nxt_t >= t:  # defensive: force strict progress
                out(node, t0, t, "protocol")
                nxt_t, nxt_node = t0, node
            t, node = nxt_t, nxt_node

        total = sum(classes.values())
        assert total == elapsed_ns, (
            f"critical-path tiling broke: segments sum to {total} ns "
            f"but the run took {elapsed_ns} ns"
        )
        return self._package(elapsed_ns, classes, by_node, n_segments)

    def _decompose(
        self, node, t0, t, op_kind, idx, out, chain_interval
    ) -> tuple[int, int]:
        """Attribute one op span [t0, t); return the continuation point."""
        if self._reexec(node, t0, idx):
            out(node, t0, t, "transport_recovery")
            return t0, node
        if op_kind == "compute":
            out(node, t0, t, "compute")
            return t0, node
        if op_kind == "barrier":
            return self._decompose_barrier(node, t0, t, out, chain_interval)
        if op_kind in ("read", "write"):
            self._decompose_miss(node, t0, t, out, chain_interval)
            return t0, node
        if op_kind in _WAIT_OPS:
            out(node, t0, t, "barrier_slack")
            return t0, node
        out(node, t0, t, "protocol")
        return t0, node

    def _decompose_miss(self, node, t0, t, out, chain_interval) -> None:
        """read/write op: miss sub-spans via their chains, gaps protocol."""
        cur = t
        misses = self._miss[node]
        i = bisect_right(self._miss_ends[node], t) - 1
        while i >= 0:
            m0, m1, root = misses[i]
            i -= 1
            if m1 > cur:
                continue
            if m0 < t0 or m1 <= t0:
                break
            out(node, m1, cur, "protocol")
            chain_interval(node, m0, m1, root, "protocol")
            cur = m0
        out(node, t0, cur, "protocol")

    def _decompose_barrier(self, node, t0, t, out, chain_interval):
        """Barrier span: release delivery <- broadcast <- [checkpoint]
        <- last arrival delivery <- the last arriver's own entry; the walk
        then jumps to the last arriver.  Any missing link degrades the
        remaining interval to ``barrier_slack`` without a jump."""
        span = None
        i = bisect_right(self._bar_starts[node], t0) - 1
        if i >= 0:
            _b0, _b1, gen, release_msg = self._bars[node][i]
            span = (gen, release_msg)
        if span is None:
            out(node, t0, t, "barrier_slack")
            return t0, node
        gen, release_msg = span
        rel_t = None
        for cand in reversed(self._release.get(gen, ())):
            if cand <= t:
                rel_t = cand
                break
        if rel_t is None or rel_t < t0:
            out(node, t0, t, "barrier_slack")
            return t0, node
        chain_interval(node, rel_t, t, release_msg, "barrier_slack")
        arr = None
        for cand in reversed(self._arrive.get(gen, ())):
            if cand[0] <= rel_t:
                arr = cand
                break
        if arr is None:
            out(node, t0, rel_t, "barrier_slack")
            return t0, node
        arr_t, last_src, sent_ns, arr_msg, manager = arr
        arr_t = max(arr_t, t0)
        sent_ns = min(max(sent_ns, t0), arr_t)
        # All-arrived to release: nonzero only when a barrier checkpoint
        # deferred the broadcast — fault-tolerance cost.
        out(manager, arr_t, rel_t, "transport_recovery")
        chain_interval(manager, sent_ns, arr_t, arr_msg, "barrier_slack")
        # Jump to the last arriver: its fence + send overhead precede the
        # arrival departure; the path continues on its timeline.
        if 0 <= last_src < self.n_nodes:
            i = bisect_right(self._bar_starts[last_src], sent_ns) - 1
            while i >= 0:
                b0, _b1, g, _rm = self._bars[last_src][i]
                i -= 1
                if g != gen:
                    continue
                if b0 < t:
                    out(last_src, b0, sent_ns, "barrier_slack")
                    return b0, last_src
                break
        out(node, t0, sent_ns, "barrier_slack")
        return t0, node

    # ------------------------------------------------------------------ #
    @staticmethod
    def _package(elapsed_ns, classes, by_node, n_segments) -> dict:
        return {
            "elapsed_ns": elapsed_ns,
            "classes": dict(classes),
            "classes_by_node": [dict(nb) for nb in by_node],
            "n_segments": n_segments,
            "whatif": {
                "barrier": elapsed_ns - classes["barrier_slack"],
                "wire": elapsed_ns - classes["wire"],
                "retransmit": elapsed_ns - classes["transport_recovery"],
            },
        }
