"""Metrics registry: re-derive cluster counters from bus events.

The simulator's ``NodeStats``/``PortStats``/``ClusterStats`` counters are
bumped inline at dozens of sites; the same sites publish events.  Each
counter's declaration (``repro.tempest.stats.COUNTERS``) names the event
and payload argument it can be re-derived from, and this subscriber turns
every such declaration into one bus callback over one column of
independent values, subscribed to exactly its own kind — so tests can
assert the two bookkeeping systems agree: if an emit site drifts from its
counter (or vice versa) the fuzz-matrix coherence test fails loudly
instead of traces silently lying.  A counter declared tomorrow is folded
and diffed with no edit here.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.obs.bus import Event, EventBus
from repro.tempest.stats import COUNTERS, ClusterStats, NodeStats, PortStats


def _rule(col, arg, keyed):
    """The fold one declaration describes (see ``stats.counter``), as a bus
    callback over that counter's column."""
    if keyed:
        def fold(ev: Event) -> None:
            key = ev.args[arg]
            if type(key) is list:  # one entry per message in a combined frame
                col[ev.node].update(key)
            else:
                col[ev.node][key] += 1
    elif arg is None:
        def fold(ev: Event) -> None:
            col[ev.node] += 1
    else:
        def fold(ev: Event) -> None:
            col[ev.node] += ev.args[arg]
    return fold


class MetricsRegistry:
    def __init__(self, bus: EventBus, n_nodes: int):
        self.n_nodes = n_nodes
        #: (owning dataclass, counter name) -> column of event-derived
        #: values, keyed by whom the event is charged to: the node for a
        #: ``NodeStats`` counter, the output port for a ``PortStats`` one,
        #: ``None`` for a ``ClusterStats`` one (its events name no node)
        self.derived: dict[tuple, defaultdict] = {}
        per_port = []
        for cls, f in COUNTERS:
            m = f.metadata
            if m["event"] is None:
                continue  # not event-derived; the declaration says why
            col = self.derived[cls, f.name] = defaultdict(Counter if m["keyed"] else int)
            if cls is PortStats:
                per_port.append((f.name, col, m["arg"]))
            elif f.name != "recovery_ns":  # (hand-written below)
                bus.subscribe(_rule(col, m["arg"], m["keyed"]), kinds=(m["event"],))

        # The three rules that need more than a declaration can say.
        def on_abort(ev: Event) -> None:
            # A rollback orphaned an in-flight transaction: credit the
            # counters it had bumped (the payload names them), since no
            # completion event will come.
            for name, n in ev.args.items():
                if (NodeStats, name) in self.derived:
                    self.derived[NodeStats, name][ev.node] += n

        crashed_at: dict[int, int] = {}
        outage = self.derived[ClusterStats, "recovery_ns"]

        def on_crash(ev: Event) -> None:
            crashed_at[ev.node] = ev.t_ns

        def on_resume(ev: Event) -> None:
            outage[None] += ev.args["restart_t_ns"] - crashed_at.pop(ev.node)

        def on_traverse(ev: Event) -> None:
            # PortStats are charged to the payload's output port, not to
            # the sending node, and max_depth is a high-water mark.
            args = ev.args
            port = args["port"]
            for name, col, arg in per_port:
                value = 1 if arg is None else args[arg]
                if name != "max_depth":
                    col[port] += value
                elif value > col[port]:
                    col[port] = value

        bus.subscribe(on_abort, kinds=("miss.abort",))
        bus.subscribe(on_crash, kinds=("crash.node",))
        bus.subscribe(on_resume, kinds=("recover.resume",))
        bus.subscribe(on_traverse, kinds=("switch.traverse",))

    def diff(self, stats) -> list[str]:
        """Mismatches between event-derived counters and ``stats``."""
        owners = {
            NodeStats: [(f"node {n}", s, n) for n, s in enumerate(stats.nodes)],
            PortStats: [(f"port {p.port}", p, p.port) for p in stats.ports],
            ClusterStats: [("cluster", stats, None)],
        }
        out: list[str] = []
        for (cls, name), col in self.derived.items():
            for label, owner, slot in owners[cls]:
                # unary plus drops a Counter's zero entries (a no-op on ints)
                want = +getattr(owner, name)
                got = +col.get(slot, col.default_factory())
                if want != got:
                    out.append(f"{label} {name}: stats={want!r} events={got!r}")
        return out

    def assert_matches(self, stats) -> None:
        mismatches = self.diff(stats)
        if mismatches:
            raise AssertionError(
                "event-derived metrics disagree with ClusterStats:\n  "
                + "\n  ".join(mismatches)
            )
