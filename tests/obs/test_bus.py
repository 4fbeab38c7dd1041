"""EventBus mechanics: records, chunked folds, counting, zero-cost-off."""

import ast
import textwrap
from pathlib import Path

from repro.obs import EventBus
from repro.obs import bus as bus_module


class TestEmit:
    def test_emit_returns_the_seq_and_delivers_the_payload(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.extend)
        assert bus.emit("op", 0, 0, None, None, {}) == 0
        assert bus.emit("miss.read", 100, 50, 2, 0, {"block": 7, "home": 1}) == 1
        bus.flush()
        kind, t_ns, dur_ns, node, parent, args, seq = seen[-1]
        assert kind == "miss.read" and seq == 1 and parent == 0
        assert t_ns == 100 and dur_ns == 50 and node == 2
        assert args == {"block": 7, "home": 1}

    def test_events_published_counts_all_emits(self):
        bus = EventBus()
        for i in range(5):
            bus.emit("op", i, 0, None, None, {})
        assert bus.events_published == 5

    def test_fan_out_is_synchronous_and_ordered(self):
        """A flush hands the chunk to every fold before it returns, in
        registration order."""
        bus = EventBus()
        seen = []
        bus.subscribe(lambda records: seen.extend(("a", r[0]) for r in records))
        bus.subscribe(lambda records: seen.extend(("b", r[0]) for r in records))
        bus.emit("barrier", 0, 0, None, None, {})
        bus.flush()
        assert seen == [("a", "barrier"), ("b", "barrier")]

    def test_a_full_chunk_is_folded_without_a_flush(self, monkeypatch):
        monkeypatch.setattr(bus_module, "CHUNK", 3)
        bus = EventBus()
        chunks = []
        bus.subscribe(lambda records: chunks.append([r[6] for r in records]))
        for i in range(7):
            bus.emit("op", i, 0, None, None, {})
        assert chunks == [[0, 1, 2], [3, 4, 5]]
        bus.flush()
        bus.flush()  # nothing pending: no empty chunk
        assert chunks == [[0, 1, 2], [3, 4, 5], [6]]


class TestSubscriptions:
    def test_no_filter_receives_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.extend)
        bus.emit("a", 0, 0, None, None, {})
        bus.emit("b.c", 0, 0, None, None, {})
        bus.flush()
        assert len(seen) == 2


class TestRouting:
    """Folds run in registration order, each filtering for itself, and
    see exactly the events published after they subscribed."""

    def test_subscription_order_across_filtered_and_unfiltered(self):
        bus = EventBus()
        seen = []

        def fold(label, kind=None):
            return lambda records: seen.extend(
                label for r in records if kind is None or r[0] == kind
            )

        bus.subscribe(fold("all-1"))
        bus.subscribe(fold("miss", "miss.read"))
        bus.subscribe(fold("all-2"))
        bus.subscribe(fold("op", "op"))
        bus.emit("miss.read", 0, 0, None, None, {})
        bus.flush()
        assert seen == ["all-1", "miss", "all-2"]
        del seen[:]
        bus.emit("op", 0, 0, None, None, {})
        bus.flush()
        assert seen == ["all-1", "all-2", "op"]

    def test_subscribe_between_emits_of_one_kind(self):
        bus = EventBus()
        first, late = [], []
        bus.subscribe(first.extend)
        bus.emit("op", 0, 0, None, None, {})
        bus.subscribe(late.extend)
        bus.emit("op", 1, 0, None, None, {})
        bus.flush()
        assert [r[1] for r in first] == [0, 1]
        assert [r[1] for r in late] == [1]


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
