"""Unit tests for trace building/replay and run results."""

import inspect

import numpy as np
import pytest

from repro import APPS
from repro.runtime.results import RunResult
from repro.runtime.shmem import build_shmem_plan
from repro.runtime.traces import NodeTrace, _fragments, replay
from repro.tempest import Cluster, ClusterConfig, Distribution, SharedMemory
from repro.tempest.stats import ClusterStats


class TestNodeTrace:
    def test_emitters_append_ops(self):
        t = NodeTrace(0)
        t.compute(100)
        t.read(np.array([1, 2]), 1, "ctx")
        t.write(np.array([3]), 1)
        t.barrier()
        t.reduce(4)
        t.mkw((5,))
        t.iw((5,), ("memo",))
        t.send((5,), 1, True)
        t.recv(1)
        t.inv((5,))
        t.flush((5,), 1, False)
        t.mp_send(1, 64)
        t.mp_recv(2)
        t.prefetch((6,))
        t.selfinv((7,))
        t.phase(3, "loop")
        kinds = [op[0] for op in t.ops]
        assert kinds == [
            "compute", "read", "write", "barrier", "reduce", "mkw", "iw",
            "send", "recv", "inv", "flush", "mp_send", "mp_recv",
            "prefetch", "selfinv", "phase",
        ]

    def test_empty_payloads_skipped(self):
        t = NodeTrace(0)
        t.compute(0)
        t.read(np.array([], dtype=np.int64), 1)
        t.write(np.array([], dtype=np.int64), 1)
        t.mkw(())
        t.iw(())
        t.send((), 1, True)
        t.recv(0)
        t.inv(())
        t.flush((), 0, True)
        t.mp_send(1, 0)
        t.mp_recv(0)
        t.prefetch(np.array([], dtype=np.int64))
        t.selfinv(())
        assert len(t) == 0
        t.phase(0, "")
        assert t.ops == [("phase", 0, "")]  # a marker has no payload to skip

    def test_replay_unknown_op_raises(self):
        cfg = ClusterConfig(n_nodes=2)
        mem = SharedMemory(cfg)
        mem.alloc("a", (16, 2), Distribution.block(2))
        cl = Cluster(cfg, mem)

        def prog():
            yield from replay(cl, 0, [("warp", 1)])

        cl.engine.spawn(prog())
        with pytest.raises(ValueError, match="unknown trace op"):
            cl.engine.run()

    def test_replay_executes_full_vocabulary(self):
        cfg = ClusterConfig(n_nodes=2)
        mem = SharedMemory(cfg)
        arr = mem.alloc("a", (16, 2), Distribution.block(2))
        cl = Cluster(cfg, mem)
        b0 = arr.block_of_element((0, 0))
        b1 = arr.block_of_element((0, 1))

        t0 = NodeTrace(0)
        t0.compute(1000)
        t0.write(np.array([b0]), 1)
        t0.mkw((b0,))
        t0.barrier()
        t0.send((b0,), 1, True)
        t0.barrier()
        t0.reduce(1)

        t1 = NodeTrace(1)
        t1.iw((b0,))
        t1.barrier()
        t1.recv(1)
        t1.read(np.array([b0]), 1, "check")
        t1.inv((b0,))
        t1.barrier()
        t1.reduce(1)

        stats = cl.run({0: replay(cl, 0, t0.ops), 1: replay(cl, 1, t1.ops)})
        assert stats.elapsed_ns > 0
        assert stats[1].read_misses == 0  # the pushed block hits


def one_op_of_each_kind() -> NodeTrace:
    """Node 1's trace holding one op of every kind, each argument distinct."""
    t = NodeTrace(1)
    t.phase(2, "loop")
    t.compute(100)
    t.read((1, 2), 3, "ctx")
    t.write((3,), 4)
    t.barrier()
    t.reduce(2)
    t.mkw((5,))
    t.iw((6,), (7, 8))
    t.send((9,), 0, False)
    t.recv(3)
    t.inv((10,))
    t.flush((11,), 2, False)
    t.prefetch((12,))
    t.selfinv((13,))
    t.mp_send(0, 64)
    t.mp_recv(5)
    return t


class TestReplayDispatch:
    """Each op kind reaches its own fragment, with its arguments bound to
    the right parameters: read's op order (blocks, phase, context) is not
    ``read_blocks``' parameter order, so a table can silently swap them."""

    @pytest.fixture
    def cluster(self):
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg)
        mem.alloc("a", (16, 4), Distribution.block(4))
        return Cluster(cfg, mem)

    def test_each_op_reaches_its_fragment(self, cluster):
        calls = []

        def recorder(owner, name):
            signature = inspect.signature(getattr(owner, name))

            def fragment(*args, **kwargs):
                calls.append((name, dict(signature.bind(*args, **kwargs).arguments)))
                return iter(())
            setattr(owner, name, fragment)

        for owner, names in (
            (cluster, ("compute", "read_blocks", "write_blocks", "barrier", "reduce")),
            (cluster.ext, ("mk_writable", "implicit_writable", "send_blocks",
                           "ready_to_recv", "implicit_invalidate", "flush_and_invalidate",
                           "prefetch", "self_invalidate")),
            (cluster.collectives, ("mp_send", "mp_recv")),
        ):
            for name in names:
                recorder(owner, name)
        assert list(replay(cluster, 1, one_op_of_each_kind().ops)) == []
        assert calls == [
            ("compute", {"node_id": 1, "ns": 100}),
            ("read_blocks", {"node_id": 1, "blocks": (1, 2), "context": "ctx", "phase": 3}),
            ("write_blocks", {"node_id": 1, "blocks": (3,), "phase": 4}),
            ("barrier", {"node_id": 1}),
            ("reduce", {"node_id": 1, "n_values": 2}),
            ("mk_writable", {"node_id": 1, "blocks": (5,)}),
            ("implicit_writable", {"node_id": 1, "blocks": (6,), "memo_key": (7, 8)}),
            ("send_blocks", {"node_id": 1, "blocks": (9,), "dst": 0, "bulk": False}),
            ("ready_to_recv", {"node_id": 1, "n_blocks": 3}),
            ("implicit_invalidate", {"node_id": 1, "blocks": (10,)}),
            ("flush_and_invalidate",
             {"node_id": 1, "blocks": (11,), "owner": 2, "bulk": False}),
            ("prefetch", {"node_id": 1, "blocks": (12,)}),
            ("self_invalidate", {"node_id": 1, "blocks": (13,)}),
            ("mp_send", {"src": 1, "dst": 0, "nbytes": 64}),
            ("mp_recv", {"node_id": 1, "n_messages": 5}),
        ]

    def test_replay_knows_exactly_the_kinds_node_trace_emits(self, cluster):
        emitters = {
            name for name, member in vars(NodeTrace).items()
            if not name.startswith("_") and inspect.isfunction(member)
        }
        emitted = {op[0] for op in one_op_of_each_kind().ops}
        assert emitted == emitters  # the trace above calls every emitter
        assert {"phase", "read", *_fragments(cluster)} == emitted


class TestPlanBlockArrays:
    """The block arrays of a plan's read/write ops are each one node's own
    writable array, however many equal sections a phase mapped once."""

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_writable_and_never_shared_between_nodes(self, app, optimize):
        plan = build_shmem_plan(
            APPS[app].program("default"), ClusterConfig(n_nodes=4), optimize=optimize
        )
        node_of: dict[int, int] = {}
        for node, ops in enumerate(plan.traces):
            for op in ops:
                if op[0] in ("read", "write"):
                    assert op[1].flags.writeable, op
                    assert node_of.setdefault(id(op[1]), node) == node, op


class TestRunResult:
    def _result(self, backend="shmem", elapsed=1_000_000, arrays=None):
        stats = ClusterStats.for_nodes(2)
        stats.elapsed_ns = elapsed
        stats[0].compute_ns = 400_000
        stats[1].compute_ns = 600_000
        stats[0].stall_ns = 100_000
        return RunResult(
            "prog",
            backend,
            elapsed,
            stats,
            arrays or {"a": np.arange(4.0)},
            {"s": 1.5},
        )

    def test_derived_metrics(self):
        r = self._result()
        assert r.elapsed_ms == 1.0
        assert r.compute_ms == pytest.approx(0.5)
        assert r.comm_ms == pytest.approx(0.05)

    def test_speedup(self):
        uni = self._result("uniproc", elapsed=4_000_000)
        par = self._result("shmem", elapsed=1_000_000)
        assert par.speedup_over(uni) == 4.0

    def test_checksums_stable(self):
        r = self._result()
        assert r.checksums() == {"a": 6.0}

    def test_assert_same_numerics_passes_on_equal(self):
        self._result().assert_same_numerics(self._result("msgpass"))

    def test_assert_same_numerics_catches_array_diff(self):
        other = self._result(arrays={"a": np.arange(4.0) + 1e-3})
        with pytest.raises(AssertionError):
            self._result().assert_same_numerics(other)

    def test_assert_same_numerics_catches_missing_array(self):
        other = self._result(arrays={"b": np.arange(4.0)})
        with pytest.raises(AssertionError, match="array sets differ"):
            self._result().assert_same_numerics(other)

    def test_assert_same_numerics_passes_within_rtol(self):
        other = self._result(arrays={"a": np.arange(4.0) * (1 + 1e-12)})
        self._result().assert_same_numerics(other)

    def test_assert_same_numerics_passes_on_nans_at_the_same_positions(self):
        nans = np.array([0.0, np.nan, 2.0, np.nan])
        self._result(arrays={"a": nans}).assert_same_numerics(
            self._result(arrays={"a": nans.copy()})
        )

    def test_assert_same_numerics_catches_shape_mismatch(self):
        other = self._result(arrays={"a": np.arange(4.0).reshape(2, 2)})
        with pytest.raises(AssertionError, match="shape"):
            self._result().assert_same_numerics(other)

    def test_assert_same_numerics_checks_arrays_after_an_equal_one(self):
        same = {"a": np.arange(4.0), "b": np.ones(3)}
        differs = {"a": np.arange(4.0), "b": np.array([1.0, 1.0, 1.5])}
        with pytest.raises(AssertionError, match="array 'b'"):
            self._result(arrays=same).assert_same_numerics(self._result(arrays=differs))

    def test_assert_same_numerics_catches_scalar_diff(self):
        other = self._result()
        other.scalars["s"] = 2.0
        with pytest.raises(AssertionError, match="scalar"):
            self._result().assert_same_numerics(other)

    def test_summary_flat_dict(self):
        s = self._result().summary()
        assert s["backend"] == "shmem" and s["elapsed_ms"] == 1.0
