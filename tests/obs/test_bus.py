"""EventBus mechanics: fan-out, filtering, counting, zero-cost-off."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.obs import Event, EventBus


class TestEmit:
    def test_emit_returns_the_seq_and_delivers_the_payload(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        assert bus.emit("op", 0, 0, None, None, {}) == 0
        assert bus.emit("miss.read", 100, 50, 2, 0, {"block": 7, "home": 1}) == 1
        ev = seen[-1]
        assert isinstance(ev, Event)
        assert ev.kind == "miss.read" and ev.seq == 1 and ev.parent == 0
        assert ev.t_ns == 100 and ev.dur_ns == 50 and ev.node == 2
        assert ev.args == {"block": 7, "home": 1}

    def test_no_event_is_built_for_a_kind_nobody_wants(self, monkeypatch):
        from repro.obs import bus as bus_module

        built = []

        class CountingEvent(Event):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(bus_module, "Event", CountingEvent)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds={"op"})
        assert bus.emit("miss.read", 0, 0, 1, None, {"block": 1}) == 0
        assert bus.emit("op", 1, 5, 1, None, {"op": "compute"}) == 1
        assert built == ["op"] and [ev.seq for ev in seen] == [1]
        assert bus.events_published == 2

    def test_events_published_counts_all_emits(self):
        bus = EventBus()
        for i in range(5):
            bus.emit("op", i, 0, None, None, {})
        assert bus.events_published == 5

    def test_fan_out_is_synchronous_and_ordered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda ev: seen.append(("a", ev.kind)))
        bus.subscribe(lambda ev: seen.append(("b", ev.kind)))
        bus.emit("barrier", 0, 0, None, None, {})
        assert seen == [("a", "barrier"), ("b", "barrier")]


class TestSubscriptions:
    def test_kind_filter_is_exact(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds={"miss.read"})
        bus.emit("miss.read", 0, 0, None, None, {})
        bus.emit("miss.write", 0, 0, None, None, {})
        bus.emit("miss", 0, 0, None, None, {})  # a prefix of a subscribed kind
        assert [ev.kind for ev in seen] == ["miss.read"]

    def test_no_filter_receives_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("a", 0, 0, None, None, {})
        bus.emit("b.c", 0, 0, None, None, {})
        assert len(seen) == 2

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(seen.append)
        bus.emit("a", 0, 0, None, None, {})
        bus.unsubscribe(sub)
        bus.emit("b", 0, 0, None, None, {})
        assert [ev.kind for ev in seen] == ["a"]
        assert bus.n_subscribers == 0
        # Publishing still counts even with nobody listening.
        assert bus.events_published == 2

    def test_unsubscribe_unknown_raises(self):
        bus = EventBus()
        sub = bus.subscribe(lambda ev: None)
        bus.unsubscribe(sub)
        with pytest.raises(ValueError):
            bus.unsubscribe(sub)


class TestRouting:
    """emit routes through a per-kind callback table rebuilt on change."""

    def test_subscription_order_across_filtered_and_unfiltered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda ev: seen.append("all-1"))
        bus.subscribe(lambda ev: seen.append("miss"), kinds={"miss.read"})
        bus.subscribe(lambda ev: seen.append("all-2"))
        bus.subscribe(lambda ev: seen.append("op"), kinds={"op"})
        bus.emit("miss.read", 0, 0, None, None, {})
        assert seen == ["all-1", "miss", "all-2"]
        del seen[:]
        bus.emit("op", 0, 0, None, None, {})
        assert seen == ["all-1", "all-2", "op"]

    def test_subscribe_between_emits_of_one_kind(self):
        bus = EventBus()
        first, late = [], []
        bus.subscribe(first.append)
        bus.emit("op", 0, 0, None, None, {})
        bus.subscribe(late.append, kinds={"op"})
        bus.emit("op", 1, 0, None, None, {})
        assert [ev.t_ns for ev in first] == [0, 1]
        assert [ev.t_ns for ev in late] == [1]

    def test_unsubscribe_between_emits_of_one_kind(self):
        bus = EventBus()
        kept, gone = [], []
        bus.subscribe(kept.append)
        sub = bus.subscribe(gone.append, kinds={"op"})
        bus.emit("op", 0, 0, None, None, {})
        bus.unsubscribe(sub)
        bus.emit("op", 1, 0, None, None, {})
        assert [ev.t_ns for ev in kept] == [0, 1]
        assert [ev.t_ns for ev in gone] == [0]

    def test_unsubscribe_unknown_raises_after_routing(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        stranger = EventBus().subscribe(lambda ev: None)
        bus.emit("op", 0, 0, None, None, {})
        with pytest.raises(ValueError):
            bus.unsubscribe(stranger)
        bus.emit("op", 1, 0, None, None, {})
        assert len(seen) == 2


class TestZeroCostOff:
    def test_cluster_without_bus_publishes_nothing(self):
        from tests.tempest.conftest import make_cluster, run_programs

        cluster, arr = make_cluster()
        assert cluster.obs is None
        for comp in (
            cluster.network, cluster.protocol, cluster.ext,
            cluster.barrier_net, cluster.collectives,
        ):
            assert comp.obs is None

    def test_ensure_bus_attaches_everywhere(self):
        from tests.tempest.conftest import make_cluster

        cluster, _arr = make_cluster()
        bus = cluster.ensure_bus()
        assert isinstance(bus, EventBus)
        assert cluster.ensure_bus() is bus  # idempotent
        for comp in (
            cluster.network, cluster.protocol, cluster.ext,
            cluster.barrier_net, cluster.collectives,
        ):
            assert comp.obs is bus

    def test_attach_bus_reaches_transport_when_faulted(self):
        from repro.tempest import FaultConfig
        from tests.tempest.conftest import make_cluster

        cluster, _arr = make_cluster(faults=FaultConfig(drop_prob=0.05, seed=1))
        bus = cluster.ensure_bus()
        assert cluster.network.transport.obs is bus


def _is_obs(expr) -> bool:
    return (isinstance(expr, ast.Name) and expr.id == "obs") or (
        isinstance(expr, ast.Attribute) and expr.attr == "obs"
    )


def _tests_obs(test, op, receiver: str) -> bool:
    """``test`` is ``<receiver> <op> None``, or (for ``is not``) an
    ``and`` with such a term."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return op is ast.IsNot and any(
            _tests_obs(v, op, receiver) for v in test.values
        )
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], op)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
        and ast.dump(test.left) == receiver
    )


def unguarded_emits(source: str) -> list[int]:
    """Lines of ``.emit(`` calls that may run without a bus: on a receiver
    not named ``obs``, or neither inside ``if <obs> is not None`` nor
    after an earlier ``if <obs> is None: return`` in an enclosing block."""
    tree = ast.parse(source)
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    bad = []
    for call in ast.walk(tree):
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "emit"
        ):
            continue
        receiver = ast.dump(call.func.value)
        # only a receiver named ``obs`` can be matched to its guard
        node, guarded = (call, False) if _is_obs(call.func.value) else (None, False)
        while node in parents and not guarded:
            parent = parents[node]
            if isinstance(parent, ast.If) and node in parent.body:
                guarded = _tests_obs(parent.test, ast.IsNot, receiver)
            body = getattr(parent, "body", None)
            if isinstance(body, list) and node in body:
                guarded = guarded or any(
                    isinstance(stmt, ast.If)
                    and _tests_obs(stmt.test, ast.Is, receiver)
                    and isinstance(stmt.body[-1], ast.Return)
                    for stmt in body[: body.index(node)]
                )
            node = parent
        if not guarded:
            bad.append(call.lineno)
    return bad


class TestEveryPublishIsGuarded:
    """The payload dict is built at the call site, so a publish outside an
    ``obs`` guard would cost every unobserved run."""

    def test_src_publish_sites(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        sites = unguarded = 0
        for path in sorted(src.rglob("*.py")):
            if path.parent.name == "obs":
                continue
            text = path.read_text()
            sites += text.count(".emit(")
            bad = unguarded_emits(text)
            unguarded += len(bad)
            assert not bad, f"{path.relative_to(src)}: unguarded emit at {bad}"
        assert sites >= 30 and unguarded == 0

    def test_the_checker_sees_a_missing_guard(self):
        source = textwrap.dedent("""
            def guarded(self, obs):
                if obs is not None and self.on:
                    obs.emit("a", 0, 0, None, None, {})
                if self.obs is None:
                    return None
                return self.obs.emit("b", 0, 0, None, None, {})

            def unguarded(self, obs):
                obs.emit("c", 0, 0, None, None, {})
                if obs is not None:
                    pass
                else:
                    obs.emit("d", 0, 0, None, None, {})
                if self.obs is not None:
                    obs.emit("e", 0, 0, None, None, {})
                if bus is not None:
                    bus.emit("f", 0, 0, None, None, {})
        """)
        assert unguarded_emits(source) == [10, 14, 16, 18]
