"""EventBus mechanics: fan-out, filtering, counting, zero-cost-off."""

import pytest

from repro.obs import Event, EventBus


class TestEmit:
    def test_emit_returns_event_with_payload(self):
        bus = EventBus()
        ev = bus.emit("miss.read", 100, 50, node=2, block=7, home=1)
        assert isinstance(ev, Event)
        assert ev.kind == "miss.read"
        assert ev.t_ns == 100 and ev.dur_ns == 50 and ev.node == 2
        assert ev.args == {"block": 7, "home": 1}

    def test_instant_defaults_to_zero_duration(self):
        ev = EventBus().emit("phase", 10, node=0, index=1, label="sweep")
        assert ev.dur_ns == 0

    def test_events_published_counts_all_emits(self):
        bus = EventBus()
        for i in range(5):
            bus.emit("op", i)
        assert bus.events_published == 5

    def test_fan_out_is_synchronous_and_ordered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda ev: seen.append(("a", ev.kind)))
        bus.subscribe(lambda ev: seen.append(("b", ev.kind)))
        bus.emit("barrier", 0)
        assert seen == [("a", "barrier"), ("b", "barrier")]


class TestSubscriptions:
    def test_kind_filter_is_exact(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds={"miss.read"})
        bus.emit("miss.read", 0)
        bus.emit("miss.write", 0)
        bus.emit("miss", 0)  # prefix of a subscribed kind: not a match
        assert [ev.kind for ev in seen] == ["miss.read"]

    def test_no_filter_receives_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("a", 0)
        bus.emit("b.c", 0)
        assert len(seen) == 2

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(seen.append)
        bus.emit("a", 0)
        bus.unsubscribe(sub)
        bus.emit("b", 0)
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
        bus.emit("miss.read", 0)
        assert seen == ["all-1", "miss", "all-2"]
        del seen[:]
        bus.emit("op", 0)
        assert seen == ["all-1", "all-2", "op"]

    def test_subscribe_between_emits_of_one_kind(self):
        bus = EventBus()
        first, late = [], []
        bus.subscribe(first.append)
        bus.emit("op", 0)
        bus.subscribe(late.append, kinds={"op"})
        bus.emit("op", 1)
        assert [ev.t_ns for ev in first] == [0, 1]
        assert [ev.t_ns for ev in late] == [1]

    def test_unsubscribe_between_emits_of_one_kind(self):
        bus = EventBus()
        kept, gone = [], []
        bus.subscribe(kept.append)
        sub = bus.subscribe(gone.append, kinds={"op"})
        bus.emit("op", 0)
        bus.unsubscribe(sub)
        bus.emit("op", 1)
        assert [ev.t_ns for ev in kept] == [0, 1]
        assert [ev.t_ns for ev in gone] == [0]

    def test_unsubscribe_unknown_raises_after_routing(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        stranger = EventBus().subscribe(lambda ev: None)
        bus.emit("op", 0)
        with pytest.raises(ValueError):
            bus.unsubscribe(stranger)
        bus.emit("op", 1)
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
