"""Shared fixtures for the Tempest substrate tests."""

import pytest

from repro.tempest import Cluster, ClusterConfig, Distribution, HomePolicy, SharedMemory


@pytest.fixture
def cfg():
    """Paper-parameter config with a small node count for cheap tests."""
    return ClusterConfig(n_nodes=4)


def make_cluster(
    n_nodes=4,
    shape=(32, 16),
    dist="block",
    home_policy=HomePolicy.ALIGNED,
    config=None,
    **config_overrides,
):
    """Build a cluster with one distributed array named 'a'."""
    config = config or ClusterConfig(n_nodes=n_nodes, **config_overrides)
    mem = SharedMemory(config, home_policy=home_policy)
    d = {
        "block": Distribution.block,
        "cyclic": Distribution.cyclic,
    }[dist](config.n_nodes)
    arr = mem.alloc("a", shape, d)
    cluster = Cluster(config, mem)
    return cluster, arr


def sharers_of(directory, block):
    """The nodes in ``block``'s directory sharer bitmask, ascending."""
    mask = int(directory.sharers[block])
    return [n for n in range(directory.n_nodes) if mask >> n & 1]


def run_programs(cluster, **programs):
    """Run programs given as node_id=generator kwargs; idle others."""

    def idle():
        return
        yield  # pragma: no cover

    full = {n: idle() for n in range(cluster.n_nodes)}
    for key, gen in programs.items():
        full[int(key.lstrip("n"))] = gen
    return cluster.run(full)
