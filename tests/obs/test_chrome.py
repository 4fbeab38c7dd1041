"""Chrome trace exporter: schema validity, filters, ring cap, tracks."""

import gc
import json
import weakref

import pytest

from repro.obs import ChromeTraceExporter, EventBus, validate_chrome_trace
from repro.obs import chrome
from repro.obs.chrome import _PID_CLUSTER, _PID_FABRIC, _TID_SWITCH, _TID_TRANSPORT
from repro.tempest.stats import MsgKind


def make_bus_with_traffic():
    bus = EventBus()
    exp = ChromeTraceExporter(bus, n_nodes=2)
    bus.emit("op", 0, 500, 0, None, {"op": "compute"})
    bus.emit("miss.read", 100, 300, 1, None, {"block": 4, "home": 0, "remote": True})
    bus.emit(
        "msg.send", 120, 0, 1, None,
        {"src": 1, "dst": 0, "msg": MsgKind.READ_REQ, "size": 16},
    )
    bus.emit("frame.drop", 150, 0, 1, None, {"dst": 0, "seq": 3, "cause": "loss"})
    bus.emit(
        "switch.traverse", 200, 0, 0, None,
        {"dst": 1, "port": 1, "wait_ns": 40, "forward_ns": 10, "depth": 2, "size": 16},
    )
    bus.emit("phase", 600, 0, 0, None, {"index": 1, "label": "sweep"})
    bus.flush()
    return bus, exp


class TestExport:
    def test_output_is_schema_valid(self):
        _bus, exp = make_bus_with_traffic()
        assert validate_chrome_trace(exp.to_chrome()) == []

    def test_json_roundtrip(self, tmp_path):
        _bus, exp = make_bus_with_traffic()
        path = tmp_path / "t.json"
        retained = exp.write(path)
        assert retained == 6
        data = json.loads(path.read_text())
        assert validate_chrome_trace(data) == []
        assert data["otherData"]["retained_events"] == 6

    def test_spans_and_instants(self):
        _bus, exp = make_bus_with_traffic()
        recs = {r["name"]: r for r in exp.to_chrome()["traceEvents"]
                if r["ph"] != "M"}
        assert recs["op:compute"]["ph"] == "X"
        assert recs["op:compute"]["dur"] == 0.5  # 500 ns -> 0.5 us
        assert recs["phase"]["ph"] == "i"
        # Enum payloads are sanitized to their values.
        assert recs["send:read_req"]["args"]["msg"] == "read_req"

    def test_track_assignment(self):
        _bus, exp = make_bus_with_traffic()
        recs = {r["name"]: r for r in exp.to_chrome()["traceEvents"]
                if r["ph"] != "M"}
        # Node-charged events live on the cluster process, tid = node.
        assert (recs["miss.read"]["pid"], recs["miss.read"]["tid"]) == (_PID_CLUSTER, 1)
        # Frame/channel events live on the fabric transport track even
        # though they carry a node (the charged sender).
        assert (recs["frame.drop"]["pid"], recs["frame.drop"]["tid"]) == (
            _PID_FABRIC, _TID_TRANSPORT)
        assert recs["switch.traverse"]["tid"] == _TID_SWITCH

    def test_thread_metadata_covers_all_nodes(self):
        _bus, exp = make_bus_with_traffic()
        meta = [r for r in exp.to_chrome()["traceEvents"] if r["ph"] == "M"]
        names = {(r["pid"], r.get("tid")): r["args"]["name"] for r in meta
                 if r["name"] == "thread_name"}
        # n_nodes=2 fills both node tracks even if only some saw events.
        assert names[(_PID_CLUSTER, 0)] == "node 0"
        assert names[(_PID_CLUSTER, 1)] == "node 1"
        assert names[(_PID_FABRIC, _TID_TRANSPORT)] == "transport"


class TestFilters:
    def test_kind_prefix_filter(self):
        bus = EventBus()
        exp = ChromeTraceExporter(bus, kinds=["miss", "frame.drop"])
        bus.emit("miss.read", 0, 10, 0, None, {"block": 1, "home": 0, "remote": False})
        bus.emit("miss.write", 5, 10, 0, None, {"block": 1, "home": 0})
        bus.emit("frame.drop", 8, 0, 0, None, {"dst": 1, "seq": 1, "cause": "loss"})
        bus.emit(
            "frame.retransmit", 9, 0, 0, None,
            {"dst": 1, "seq": 1, "retries": 1, "spurious": False,
             "backoff": False, "timeout_ns": 100},
        )
        bus.emit("missile", 10, 0, 0, None, {})  # shares the prefix string, not a kind
        bus.flush()
        kinds = [rec[0] for rec in exp.events]
        assert kinds == ["miss.read", "miss.write", "frame.drop"]

    def test_ring_buffer_caps_and_counts(self):
        bus = EventBus()
        exp = ChromeTraceExporter(bus, max_events=3)
        for i in range(10):
            bus.emit("op", i, 1, 0, None, {"op": "compute"})
        bus.flush()
        assert len(exp.events) == 3
        assert exp.dropped == 7
        # The newest events survive.
        assert [rec[1] for rec in exp.events] == [7, 8, 9]
        assert exp.to_chrome()["otherData"]["dropped_events"] == 7

    def test_filtered_ring_counts_only_kept_events_past_the_cap(self):
        bus = EventBus()
        bus.emit("op", 0, 1, 0, None, {"op": "compute"})  # before subscribing
        full = ChromeTraceExporter(bus, max_events=2)
        ops = ChromeTraceExporter(bus, kinds=["op"], max_events=2)
        for i in range(1, 6):
            bus.emit("op", i, 1, 0, None, {"op": "compute"})
            bus.emit("barrier", i, 1, 0, None, {"gen": i})
        bus.flush()
        assert [rec[1] for rec in ops.events] == [4, 5] and ops.dropped == 3
        assert [rec[0] for rec in full.events] == ["op", "barrier"]
        assert full.dropped == 8

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_is_rejected(self, cap):
        with pytest.raises(ValueError, match="max_events"):
            ChromeTraceExporter(EventBus(), max_events=cap)


def lossy_exporter(**exporter_kwargs):
    """A small jacobi run over a dropping, duplicating wire."""
    from repro.apps import APPS
    from repro.runtime import run_shmem
    from repro.tempest import ClusterConfig, FaultConfig

    bus = EventBus()
    exp = ChromeTraceExporter(bus, n_nodes=4, **exporter_kwargs)
    cfg = ClusterConfig(
        n_nodes=4, faults=FaultConfig(drop_prob=0.05, dup_prob=0.02, seed=7)
    )
    run_shmem(APPS["jacobi"].program(n=32, iters=1), cfg, obs=bus)
    return exp


def test_observers_do_not_outlive_their_run():
    """Deleting the bus and the observers frees them by reference counting
    alone: neither holds its own subscription, whose bound callback would
    close a cycle back to it and keep every retained event alive until
    the next full GC pass."""
    from repro.apps import shallow
    from repro.obs import Timeline
    from repro.runtime import run_shmem
    from repro.tempest import ClusterConfig

    gc.collect()
    gc.disable()
    try:
        bus = EventBus()
        exp = ChromeTraceExporter(bus, n_nodes=4)
        timeline = Timeline(bus, 4, lineage=True)
        run_shmem(
            shallow.build(rows=33, cols=17, iters=1), ClusterConfig(n_nodes=4),
            obs=bus, critical_path=True,
        )
        assert exp.events
        refs = [weakref.ref(exp), weakref.ref(timeline)]
        del bus, exp, timeline
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


class TestWriteBytes:
    """``write`` renders the records a chunk at a time; the file must be
    exactly ``json.dumps(to_chrome())`` wherever the chunk seams fall."""

    @staticmethod
    def check(exp, tmp_path, schema_errors=()):
        path = tmp_path / "t.json"
        assert exp.write(path) == len(exp.events)
        data = exp.to_chrome()
        assert path.read_bytes() == json.dumps(data).encode()
        assert exp.to_json() == json.dumps(data)
        errors = validate_chrome_trace(json.loads(path.read_text()))
        assert errors == list(schema_errors)
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]
        return data

    def test_empty_bus(self, tmp_path):
        # The validator has always called a trace with no events suspect.
        data = self.check(
            ChromeTraceExporter(EventBus()), tmp_path,
            schema_errors=["trace contains only metadata events"],
        )
        assert {r["ph"] for r in data["traceEvents"]} == {"M"}
        assert data["otherData"]["retained_events"] == 0

    def test_fewer_events_than_one_chunk(self, tmp_path):
        _bus, exp = make_bus_with_traffic()
        assert len(self.check(exp, tmp_path)["traceEvents"]) < chrome._CHUNK

    @pytest.mark.parametrize("extra", [0, 1])
    def test_whole_chunks_and_one_more(self, tmp_path, extra):
        bus = EventBus()
        exp = ChromeTraceExporter(bus, n_nodes=2)
        n_meta = 4  # two process names, two node threads
        for i in range(2 * chrome._CHUNK - n_meta + extra):
            bus.emit("op", i, 1, 0, None, {"op": "compute"})
        bus.flush()
        data = self.check(exp, tmp_path)
        assert len(data["traceEvents"]) == 2 * chrome._CHUNK + extra

    def test_lossy_run_with_flow_pairs(self, tmp_path):
        data = self.check(lossy_exporter(), tmp_path)
        assert data["otherData"]["flow_pairs"] > 0
        assert data["otherData"]["dropped_events"] == 0

    def test_ring_eviction_with_kind_filter(self, tmp_path):
        full = lossy_exporter().to_chrome()["otherData"]
        exp = lossy_exporter(kinds=["frame", "miss"], max_events=200)
        other = self.check(exp, tmp_path)["otherData"]
        assert other["retained_events"] == 200 and other["dropped_events"] > 0
        assert {rec[0].split(".")[0] for rec in exp.events} <= {"frame", "miss"}
        # Sends evicted from the ring take their arrows with them.
        assert 0 < other["flow_pairs"] < full["flow_pairs"]

    def test_failed_write_keeps_the_published_trace(self, tmp_path, monkeypatch):
        _bus, exp = make_bus_with_traffic()
        path = tmp_path / "t.json"
        exp.write(path)
        before = path.read_bytes()

        def explode(*_args):
            raise RuntimeError("interrupted")

        # The metadata chunk reaches the file before the first event fails.
        monkeypatch.setattr(chrome, "_CHUNK", 2)
        monkeypatch.setattr(ChromeTraceExporter, "_head", explode)
        with pytest.raises(RuntimeError):
            exp.write(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


class TestSchemaValidator:
    def test_rejects_non_dict(self):
        assert validate_chrome_trace([]) != []

    def test_rejects_empty_trace(self):
        assert validate_chrome_trace({"traceEvents": []}) != []

    def test_rejects_bad_phase(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "Q", "pid": 1, "tid": 0, "ts": 0}
        ]}
        assert any("ph" in e for e in validate_chrome_trace(bad))

    def test_rejects_span_without_duration(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 0, "ts": 0}
        ]}
        assert validate_chrome_trace(bad) != []

    def test_cli_entrypoint(self, tmp_path, capsys):
        from repro.obs.schema import main

        _bus, exp = make_bus_with_traffic()
        good = tmp_path / "good.json"
        exp.write(good)
        assert main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": []}))
        assert main([str(bad)]) == 1
        assert main([]) == 2
