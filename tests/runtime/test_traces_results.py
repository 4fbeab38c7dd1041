"""Unit tests for trace building/replay and run results."""

import numpy as np
import pytest

from repro import APPS
from repro.runtime.results import RunResult
from repro.runtime.shmem import build_shmem_plan
from repro.runtime.traces import NodeTrace, replay
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
        kinds = [op[0] for op in t.ops]
        assert kinds == [
            "compute", "read", "write", "barrier", "reduce", "mkw", "iw",
            "send", "recv", "inv", "flush", "mp_send", "mp_recv",
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
        assert len(t) == 0

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

    def test_assert_same_numerics_catches_scalar_diff(self):
        other = self._result()
        other.scalars["s"] = 2.0
        with pytest.raises(AssertionError, match="scalar"):
            self._result().assert_same_numerics(other)

    def test_summary_flat_dict(self):
        s = self._result().summary()
        assert s["backend"] == "shmem" and s["elapsed_ms"] == 1.0
