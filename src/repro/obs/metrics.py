"""Metrics registry: re-derive cluster counters from bus events.

The simulator's ``NodeStats``/``PortStats``/``ClusterStats`` counters are
bumped inline at dozens of sites; the same sites publish events.  Each
counter's declaration (``repro.tempest.stats.COUNTERS``) names the event
and payload argument it can be re-derived from, and this consumer turns
every such declaration into one rule over one column of independent
values, filed under its event kind; one fold runs the bus's records
through that table — so tests can assert the two bookkeeping systems
agree: if an emit site drifts from its counter (or vice versa) the
fuzz-matrix coherence test fails loudly instead of traces silently
lying.  A counter declared tomorrow is folded and diffed with no edit
here.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.obs.bus import EventBus
from repro.tempest.stats import COUNTERS, ClusterStats, NodeStats, PortStats


class MetricsRegistry:
    def __init__(self, bus: EventBus, n_nodes: int):
        self.n_nodes = n_nodes
        #: (owning dataclass, counter name) -> column of event-derived
        #: values, keyed by whom the event is charged to: the node for a
        #: ``NodeStats`` counter, the output port for a ``PortStats`` one,
        #: ``None`` for a ``ClusterStats`` one (its events name no node)
        self.derived: dict[tuple, defaultdict] = {}
        #: event kind -> its rules ``(how, column, payload arg)``; ``how``
        #: is the fold the declaration describes (see ``stats.counter``)
        self._rules: dict[str, list[tuple]] = {}
        for cls, f in COUNTERS:
            m = f.metadata
            if m["event"] is None:
                continue  # not event-derived; the declaration says why
            col = self.derived[cls, f.name] = defaultdict(Counter if m["keyed"] else int)
            if cls is PortStats:
                # Charged to the payload's output port, not to the
                # sending node; max_depth is a high-water mark.
                how = "max" if f.name == "max_depth" else "port"
            elif f.name == "recovery_ns":
                how = "outage"
            elif m["keyed"]:
                how = "keyed"
            else:
                how = "count" if m["arg"] is None else "add"
            self._rules.setdefault(m["event"], []).append((how, col, m["arg"]))
        # The rules that need more than a declaration can say: a rollback
        # orphaned an in-flight transaction (credit the counters its
        # payload names, since no completion event will come), and an
        # outage starts at its node's crash.
        self._rules.setdefault("miss.abort", []).append(("abort", None, None))
        self._rules.setdefault("crash.node", []).append(("crash", None, None))
        self._crashed_at: dict[int, int] = {}
        # Not kept: see ChromeTraceExporter (no self-cycle through the bus).
        bus.subscribe(self._fold)

    def _fold(self, records: list) -> None:
        rules = self._rules
        for kind, t_ns, _, node, _, args, _ in records:
            for how, col, arg in rules.get(kind, ()):
                if how == "count":
                    col[node] += 1
                elif how == "add":
                    col[node] += args[arg]
                elif how == "keyed":
                    key = args[arg]
                    if type(key) is list:  # one entry per message in a combined frame
                        col[node].update(key)
                    else:
                        col[node][key] += 1
                elif how == "port":
                    col[args["port"]] += 1 if arg is None else args[arg]
                elif how == "max":
                    port = args["port"]
                    if args[arg] > col[port]:
                        col[port] = args[arg]
                elif how == "abort":
                    for name, n in args.items():
                        if (NodeStats, name) in self.derived:
                            self.derived[NodeStats, name][node] += n
                elif how == "crash":
                    self._crashed_at[node] = t_ns
                else:  # "outage"
                    col[None] += args[arg] - self._crashed_at.pop(node)

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
