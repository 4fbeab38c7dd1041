"""Unit tests for the statistics accounting."""

import pytest

from repro.tempest.network import HEADER_BYTES
from repro.tempest.stats import COHERENCE_KINDS, ClusterStats, MsgKind, NodeStats
from tests.tempest.test_network_node import make_net


class TestNodeStats:
    def test_count_message(self):
        # Network._count is the one counting site, on every send
        eng, _cfg, stats, _nodes, net = make_net()
        for kind, size in ((MsgKind.READ_REQ, 0), (MsgKind.READ_REQ, 0), (MsgKind.DATA, 128)):
            net.send(0, 1, kind, lambda _seq: None, (), 0, payload_bytes=size)
        eng.run()
        assert stats[0].messages[MsgKind.READ_REQ] == 2
        assert stats[0].bytes_sent == 3 * HEADER_BYTES + 128

    def test_misses_combines_reads_and_writes(self):
        s = NodeStats(0, read_misses=3, write_faults=4)
        assert s.misses == 7

    def test_comm_ns_is_the_papers_definition(self):
        s = NodeStats(0, stall_ns=10, barrier_ns=20, call_ns=30, reduce_ns=40)
        s.compute_ns = 1000  # not part of comm
        assert s.comm_ns == 100


class TestClusterStats:
    def _stats(self):
        cs = ClusterStats.for_nodes(3)
        for i, node in enumerate(cs.nodes):
            node.read_misses = i
            node.compute_ns = 100 * (i + 1)
            node.stall_ns = 10 * i
            node.messages[MsgKind.INV] += 1
            node.bytes_sent += 16
        return cs

    def test_for_nodes_indexing(self):
        cs = ClusterStats.for_nodes(3)
        assert cs[2].node == 2

    def test_aggregates(self):
        cs = self._stats()
        assert cs.total_misses == 3
        assert cs.avg_misses_per_node == 1.0
        assert cs.total_messages == 3
        assert cs.messages_by_kind()[MsgKind.INV] == 3
        assert cs.total_bytes == 48
        assert cs.avg_compute_ns == 200
        assert cs.avg_comm_ns == 10

    def test_summary_keys(self):
        cs = self._stats()
        cs.elapsed_ns = 5_000_000
        s = cs.summary()
        assert s["elapsed_ms"] == 5.0
        for key in ("compute_ms", "comm_ms", "misses", "messages", "mbytes"):
            assert key in s

    def test_coherence_kinds_cover_protocol_messages(self):
        for kind in (MsgKind.READ_REQ, MsgKind.GRANT, MsgKind.UPDATE_ACK):
            assert kind in COHERENCE_KINDS
        for kind in (MsgKind.DATA, MsgKind.MP_DATA, MsgKind.BARRIER_ARRIVE,
                     MsgKind.SELF_INV):
            assert kind not in COHERENCE_KINDS
