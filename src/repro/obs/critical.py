"""The exact causal critical path: the second folding of the timeline.

Every publisher threads a ``parent`` seq through its events (op -> miss
-> ``msg.send`` -> ``frame.*`` -> switch traverse -> delivery -> handler
-> barrier arrive/release, plus retransmit/give-up/heal and
checkpoint/rollback chains), so the run's events form a dependency DAG,
which a ``lineage=True`` :class:`~repro.obs.profile.Timeline` records
beside its per-node span ledger.  :func:`critical_path` walks the ledger
*backward* from the instant the run finished, partitioning simulated
time ``[0, elapsed_ns)`` into consecutive labeled segments — the run's
exact critical path.  The ledger's spans abut on every node (a crash
outage is a span, not a hole) and every decomposer below tiles the span
it is given, so the segment lengths sum to ``elapsed_ns`` to the
nanosecond; :func:`critical_path` asserts it — the one tiling assertion
time attribution has.

Cost classes
------------

* ``compute``            — modeled computation on the path;
* ``wire``               — serialization + propagation of messages the
  path waited on (``wire_ns`` of each ``msg.send`` in the causal chain);
* ``port_queue``         — switch output-port queueing (``wait_ns`` of
  ``switch.traverse`` events in the chain);
* ``protocol``           — fault detection, handler occupancy, directory
  work, and every other active protocol cost on the path;
* ``transport_recovery`` — retransmission stalls, partition outage
  windows, checkpoint-write deferrals, crash outages, rollback
  re-execution;
* ``barrier_slack``      — time the path spent *waiting for another
  node* (barrier fences and releases, reductions, receive waits).  All
  data-dependence synchronization lands here, so the ``barrier`` what-if
  below is the bound for perfectly overlapped (data-driven) execution.

What-if bounds
--------------

``critical_path(...)["whatif"]`` reports, per knob, the elapsed time a
run would need if one cost class were free::

    barrier     -> elapsed - barrier_slack     (perfect overlap bound)
    wire        -> elapsed - wire              (infinite-bandwidth bound)
    retransmit  -> elapsed - transport_recovery (fault-free-wire bound)

These are *lower bounds* on the improved runtime (zeroing a class can
shift the critical path onto a different chain, never below this).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.obs.profile import OUTAGE, REDO, Timeline

__all__ = ["COST_CLASSES", "critical_path", "render_critical_path"]

COST_CLASSES = (
    "compute",
    "wire",
    "port_queue",
    "protocol",
    "transport_recovery",
    "barrier_slack",
)

# Span kind -> class, for spans that are one segment; barriers and misses
# decompose further, every other op kind is active protocol work.
_SPAN_CLASS = {
    "compute": "compute",
    OUTAGE: "transport_recovery",
    REDO: "transport_recovery",
    # pure synchronization waits
    "reduce": "barrier_slack",
    "recv": "barrier_slack",
    "mp_recv": "barrier_slack",
}


def critical_path(timeline: Timeline, elapsed_ns: int) -> dict:
    """Fold the ledger of a completed run into ``RunResult.critical_path``.

    Partitions ``[0, elapsed_ns)`` into labeled segments and returns
    per-class totals plus what-if bounds.  Raises ``AssertionError`` if
    the segment lengths do not sum to ``elapsed_ns`` exactly.
    """
    walk = _Walk(timeline)
    spans = timeline.spans

    def last_op_end(node: int) -> int:
        # A rollback at the very end leaves every ledger ending in an
        # outage at the same instant; the node that worked longest is
        # the one the others were waiting for.
        return next((s[1] for s in reversed(spans[node]) if s[2] != OUTAGE), 0)

    node = max(range(timeline.n_nodes), key=last_op_end)
    t = elapsed_ns
    while t > 0:
        i = bisect_right(walk.starts[node], t - 1) - 1
        t0, t1, op, _phase = spans[node][i] if i >= 0 else (0, 0, None, None)
        if t1 < t:
            # Past the node's last span (or before its first): residual
            # active work such as trailing handler time.
            walk.out(node, t1, t, "protocol")
            t = t1
            continue
        # The span covers (t0, t]; decompose [t0, t).
        if op == "barrier":
            t, node = walk.barrier(node, t0, t)
            continue
        if op in ("read", "write"):
            walk.miss(node, t0, t)
        else:
            walk.out(node, t0, t, _SPAN_CLASS.get(op, "protocol"))
        t = t0

    classes = walk.classes
    total = sum(classes.values())
    assert total == elapsed_ns, (
        f"critical-path tiling broke: segments sum to {total} ns "
        f"but the run took {elapsed_ns} ns"
    )
    return {
        "elapsed_ns": elapsed_ns,
        "classes": classes,
        "classes_by_node": walk.by_node,
        "n_segments": walk.n_segments,
        "whatif": {
            "barrier": elapsed_ns - classes["barrier_slack"],
            "wire": elapsed_ns - classes["wire"],
            "retransmit": elapsed_ns - classes["transport_recovery"],
        },
    }


class _Walk:
    """Accumulators and span decomposers of one backward walk."""

    def __init__(self, timeline: Timeline):
        self.tl = timeline
        self.classes = dict.fromkeys(COST_CLASSES, 0)
        self.by_node = [
            dict.fromkeys(COST_CLASSES, 0) for _ in range(timeline.n_nodes)
        ]
        self.n_segments = 0
        # Bisect indices (every list is chronological by construction).
        self.starts = [[s[0] for s in spans] for spans in timeline.spans]
        self.miss_ends = [[m[1] for m in ms] for ms in timeline.miss]
        self.bar_starts = [[b[0] for b in bs] for bs in timeline.bars]

    def out(self, node: int, a: int, b: int, cls: str) -> None:
        """Emit segment ``[a, b)`` of class ``cls`` on ``node``."""
        d = b - a
        if d <= 0:
            return
        self.classes[cls] += d
        self.by_node[node][cls] += d
        self.n_segments += 1

    def chain(self, node, a, b, root, rest_class) -> None:
        """Attribute a message-delivery wait ``[a, b)`` via the wire time,
        port waits and retransmits of the DAG under its ``root`` seq."""
        d = b - a
        if d <= 0 or root is None:
            self.out(node, a, b, rest_class)
            return
        tl = self.tl
        wire = port = 0
        retrans = False
        stack = [root]  # every event has one parent: the DAG below is a tree
        while stack:
            seq = stack.pop()
            wire += tl.wire.get(seq, 0)
            port += tl.wait.get(seq, 0)
            retrans = retrans or seq in tl.retrans
            stack.extend(tl.children.get(seq, ()))
        wire = min(wire, d)
        port = min(port, d - wire)
        rest = d - wire - port
        self.out(node, a, a + rest, "transport_recovery" if retrans else rest_class)
        self.out(node, a + rest, a + rest + port, "port_queue")
        self.out(node, b - wire, b, "wire")

    def miss(self, node, t0, t) -> None:
        """read/write op: miss sub-spans via their chains, gaps protocol."""
        cur = t
        misses = self.tl.miss[node]
        i = bisect_right(self.miss_ends[node], t) - 1
        while i >= 0:
            m0, m1, root = misses[i]
            i -= 1
            if m1 > cur:
                continue
            if m0 < t0 or m1 <= t0:
                break
            self.out(node, m1, cur, "protocol")
            self.chain(node, m0, m1, root, "protocol")
            cur = m0
        self.out(node, t0, cur, "protocol")

    def barrier(self, node, t0, t) -> tuple[int, int]:
        """Barrier span: release delivery <- broadcast <- [checkpoint]
        <- last arrival delivery <- the last arriver's own entry; returns
        the continuation ``(t, node)`` — the last arriver's barrier entry.
        Any missing link degrades the remaining interval to
        ``barrier_slack`` and the walk stays on ``node``."""
        tl = self.tl
        i = bisect_right(self.bar_starts[node], t0) - 1
        gen, release_msg = tl.bars[node][i][2:] if i >= 0 else (None, None)
        rel_t = next(
            (r for r in reversed(tl.release.get(gen, ())) if r <= t), None
        )
        if rel_t is None or rel_t < t0:
            self.out(node, t0, t, "barrier_slack")
            return t0, node
        self.chain(node, rel_t, t, release_msg, "barrier_slack")
        arr = next(
            (a for a in reversed(tl.arrive.get(gen, ())) if a[0] <= rel_t), None
        )
        if arr is None:
            self.out(node, t0, rel_t, "barrier_slack")
            return t0, node
        arr_t, last_src, sent_ns, arr_msg, manager = arr
        arr_t = max(arr_t, t0)
        sent_ns = min(max(sent_ns, t0), arr_t)
        # All-arrived to release: nonzero only when a barrier checkpoint
        # deferred the broadcast — fault-tolerance cost.
        self.out(manager, arr_t, rel_t, "transport_recovery")
        self.chain(manager, sent_ns, arr_t, arr_msg, "barrier_slack")
        # Jump to the last arriver: its fence + send overhead precede the
        # arrival departure; the path continues on its timeline.
        i = bisect_right(self.bar_starts[last_src], sent_ns) - 1
        while i >= 0:
            b0, _b1, g, _rm = tl.bars[last_src][i]
            i -= 1
            if g != gen:
                continue
            if b0 < t:
                self.out(last_src, b0, sent_ns, "barrier_slack")
                return b0, last_src
            break
        self.out(node, t0, sent_ns, "barrier_slack")
        return t0, node


def render_critical_path(cp: dict, whatif: str | None = None) -> str:
    """Terminal rendering of a critical-path decomposition."""
    elapsed = cp["elapsed_ns"]
    lines = ["critical path (exact, sums to elapsed):"]
    for cls in COST_CLASSES:
        ns = cp["classes"][cls]
        pct = 100.0 * ns / elapsed if elapsed else 0.0
        lines.append(f"  {cls:<18} {ns / 1e6:10.3f} ms  {pct:5.1f}%")
    lines.append(
        f"  {'total':<18} {elapsed / 1e6:10.3f} ms  "
        f"({cp['n_segments']} segments)"
    )
    knobs = [whatif] if whatif else sorted(cp["whatif"])
    for knob in knobs:
        bound = cp["whatif"][knob]
        gain = elapsed - bound
        pct = 100.0 * gain / elapsed if elapsed else 0.0
        lines.append(
            f"  what-if {knob:<10} >= {bound / 1e6:10.3f} ms "
            f"(saves at most {gain / 1e6:.3f} ms, {pct:.1f}%)"
        )
    return "\n".join(lines)
