"""Tests for the message tracer."""

import pytest

from repro.obs import MessageTracer
from repro.tempest import Cluster, ClusterConfig, Distribution, HomePolicy, SharedMemory
from repro.tempest.stats import MsgKind
from tests.tempest.conftest import run_programs


def build():
    cfg = ClusterConfig(n_nodes=3)
    mem = SharedMemory(cfg, home_policy=HomePolicy.NODE0)
    a = mem.alloc("a", (16, 3), Distribution.block(3))
    return Cluster(cfg, mem), a


def run_one_transfer(cl, a):
    b = a.block_of_element((0, 1))

    def writer():
        yield from cl.write_blocks(1, [b], phase=1)
        yield from cl.barrier(1)
        yield from cl.barrier(1)

    def reader():
        yield from cl.barrier(2)
        yield from cl.read_blocks(2, [b])
        yield from cl.barrier(2)

    def home():
        yield from cl.barrier(0)
        yield from cl.barrier(0)

    run_programs(cl, n0=home(), n1=writer(), n2=reader())


class TestMessageTracer:
    def test_records_all_messages(self):
        cl, a = build()
        tracer = MessageTracer(cl.ensure_bus(), cl.n_nodes)
        run_one_transfer(cl, a)
        assert len(tracer.records) == cl.stats.total_messages
        assert tracer.bytes_total() == cl.stats.total_bytes

    def test_records_are_time_ordered(self):
        cl, a = build()
        tracer = MessageTracer(cl.ensure_bus(), cl.n_nodes)
        run_one_transfer(cl, a)
        times = [r.t_ns for r in tracer.records]
        assert times == sorted(times)

    def test_kind_filter(self):
        cl, a = build()
        tracer = MessageTracer(cl.ensure_bus(), cl.n_nodes, kinds={MsgKind.READ_REQ, MsgKind.READ_RESP})
        run_one_transfer(cl, a)
        assert tracer.by_kind() == {MsgKind.READ_REQ: 1, MsgKind.READ_RESP: 1}
        # The untraced messages still flowed (the run completed).
        assert cl.stats.total_messages > 2

    def test_by_link_and_involving(self):
        cl, a = build()
        tracer = MessageTracer(cl.ensure_bus(), cl.n_nodes, kinds={MsgKind.READ_REQ})
        run_one_transfer(cl, a)
        # the reader asks the block's home (node 0); the writer is not involved
        assert [(r.src, r.dst) for r in tracer.records] == [(2, 0)]
        assert not [r for r in tracer.records if 1 in (r.src, r.dst)]

    def test_max_records_drops_and_reports(self):
        cl, a = build()
        tracer = MessageTracer(cl.ensure_bus(), cl.n_nodes, max_records=3)
        run_one_transfer(cl, a)
        assert len(tracer.records) == 3
        assert tracer.dropped == cl.stats.total_messages - 3
        assert "dropped" in tracer.sequence_chart()

    def test_sequence_chart_renders(self):
        cl, a = build()
        tracer = MessageTracer(cl.ensure_bus(), cl.n_nodes, kinds={
            MsgKind.READ_REQ, MsgKind.READ_RESP, MsgKind.PUT_REQ, MsgKind.PUT_RESP})
        run_one_transfer(cl, a)
        chart = tracer.sequence_chart()
        assert "n0" in chart and "n2" in chart
        assert "read_req" in chart
        # One line per traced message plus two header lines.
        assert len(chart.splitlines()) == 2 + len(tracer.records)

    def test_summary_readable(self):
        cl, a = build()
        tracer = MessageTracer(cl.ensure_bus(), cl.n_nodes)
        run_one_transfer(cl, a)
        s = tracer.summary()
        assert "messages" in s and "read_req:1" in s
