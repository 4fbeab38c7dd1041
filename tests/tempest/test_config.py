"""Unit tests for cluster configuration and calibration arithmetic."""

import dataclasses

import pytest

from repro.tempest.config import US, ClusterConfig, small_config


def test_defaults_match_paper_platform():
    cfg = ClusterConfig()
    assert cfg.n_nodes == 8
    assert cfg.block_size == 128
    assert cfg.dual_cpu
    assert cfg.bandwidth_bytes_per_us == 20.0  # 20 MB/s


def test_blocks_per_page():
    cfg = ClusterConfig()
    assert cfg.blocks_per_page == 4096 // 128


def test_transfer_time_tracks_bandwidth():
    cfg = ClusterConfig()
    # 20 bytes/us -> 128 bytes = 6.4 us
    assert cfg.transfer_ns(128) == 6400
    assert cfg.transfer_ns(0) == 0


def test_short_message_roundtrip_near_40us():
    cfg = ClusterConfig()
    wire = cfg.wire_latency_ns + cfg.transfer_ns(20)
    one_way = cfg.send_overhead_ns + wire + cfg.dispatch_overhead_ns
    assert 2 * one_way == pytest.approx(40 * US, rel=0.10)


def test_single_cpu_copy():
    cfg = ClusterConfig()
    single = cfg.scaled(dual_cpu=False)
    assert not single.dual_cpu
    assert cfg.dual_cpu  # original untouched (frozen)


def test_scaled_replaces_fields():
    cfg = ClusterConfig().scaled(block_size=64, n_nodes=3)
    assert cfg.block_size == 64 and cfg.n_nodes == 3


def test_frozen():
    cfg = ClusterConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_nodes = 2


@pytest.mark.parametrize(
    "bad",
    [
        dict(n_nodes=0),
        dict(block_size=0),
        dict(block_size=33),  # not a multiple of 8
        dict(page_size=100),  # not a multiple of block_size
        dict(max_payload_blocks=0),
    ],
)
def test_validation_rejects(bad):
    with pytest.raises(ValueError):
        ClusterConfig(**bad)


def test_small_config_is_valid_and_tiny():
    cfg = small_config()
    assert cfg.n_nodes == 4
    assert cfg.block_size == 32
    assert cfg.blocks_per_page == 4
    assert small_config(n_nodes=2).n_nodes == 2
