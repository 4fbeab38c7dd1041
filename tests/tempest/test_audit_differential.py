"""The streamed coherence audit equals the dense scan it replaced.

``repro.tempest.audit`` evaluates its invariants one chunk of blocks at a
time; ``tests/tempest/audit_oracle.py`` keeps the seed's scan over dense
``n_nodes x n_blocks`` arrays.  Hypothesis corrupts healthy post-run
cluster states (tags, implicit bits, owners, sharer bits, directory states
and versions, one site or a whole block range at a time) and the two must
return the identical violation list: the same lines, in the same order,
under the same caps — with and without ``skip_nodes``, and with chunks that
do not divide the block count.
"""

import functools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tempest import AccessTag, HomePolicy
from repro.tempest import audit
from repro.tempest.audit import audit_violations
from tests.tempest.audit_oracle import dense_scan
from tests.tempest.conftest import make_cluster

#: (n_nodes, array shape, distribution, home policy) of the healthy states
CELLS = (
    (4, (64, 32), "block", HomePolicy.ALIGNED),
    (3, (48, 20), "cyclic", HomePolicy.ROUND_ROBIN),
    (5, (40, 16), "block", HomePolicy.NODE0),
)


@functools.cache
def healthy(cell: int):
    """A cluster after writes, shared reads, exclusive re-writes and a few
    compiler grants, with the cut that puts it back."""
    n_nodes, shape, dist, policy = CELLS[cell]
    cluster, _ = make_cluster(n_nodes=n_nodes, shape=shape, dist=dist,
                              home_policy=policy)
    n_blocks = cluster.directory.n_blocks

    def program(n):
        yield from cluster.write_blocks(n, range(n, n_blocks, n_nodes), phase=1)
        yield from cluster.barrier(n)
        yield from cluster.read_blocks(n, range(n % 3, n_blocks, 3), phase=2)
        yield from cluster.barrier(n)
        yield from cluster.write_blocks(n, range(n, n_blocks, 2 * n_nodes), phase=3)
        yield from cluster.barrier(n)

    cluster.run({n: program(n) for n in range(n_nodes)})
    for b in range(0, n_blocks, 7):
        outsiders = [n for n in range(n_nodes)
                     if cluster.access.get(n, b) is AccessTag.INVALID]
        if outsiders:
            cluster.access.set(outsiders[0], b, AccessTag.READONLY, implicit=True)
    assert dense_scan(cluster.directory, cluster.access, frozenset()) == []
    cut = (cluster.directory.snapshot(), cluster.access.snapshot())
    return cluster, cut


@st.composite
def corruption(draw, n_nodes: int, n_blocks: int):
    """One edit of the post-run state: (field, node, block range, value)."""
    field = draw(st.sampled_from(
        ["tag", "implicit", "owner", "sharers", "state", "global", "copy"]))
    node = draw(st.integers(0, n_nodes - 1))
    lo = draw(st.integers(0, n_blocks - 1))
    # most edits hit one block; some sweep a range, so an invariant can
    # pass its cap and print its "... (N sites ...)" line
    width = draw(st.one_of(st.just(1), st.integers(1, n_blocks - lo)))
    value = draw({
        "tag": st.integers(0, 2),
        "implicit": st.booleans(),
        "owner": st.integers(-2, n_nodes + 1),
        "sharers": st.integers(0, 2 ** (n_nodes + 1) - 1),
        "state": st.integers(0, 2),
        "global": st.integers(0, 2**31 - 1) | st.integers(0, 5),
        "copy": st.integers(0, 2**31 - 1) | st.integers(0, 5),
    }[field])
    return field, node, range(lo, lo + width), value


def apply(cluster, edit) -> None:
    field, node, blocks, value = edit
    d, a = cluster.directory, cluster.access
    rows = slice(None) if len(blocks) > 1 and field in ("tag", "copy") else node
    cols = slice(blocks.start, blocks.stop)
    if field == "tag":
        a._tags[rows, cols] = value
    elif field == "implicit":
        a._implicit[node, cols] = value
    elif field == "global":
        d.global_version[cols] = value
    elif field == "copy":
        d.copy_version[rows, cols] = value
    else:
        store = {"owner": d.owner, "sharers": d.sharers, "state": d.state}[field]
        for b in blocks:
            store[b] = value


@st.composite
def case(draw):
    cell = draw(st.integers(0, len(CELLS) - 1))
    n_nodes = CELLS[cell][0]
    cluster, _ = healthy(cell)
    edits = draw(st.lists(corruption(n_nodes, cluster.directory.n_blocks),
                          max_size=6))
    skip = draw(st.frozensets(st.integers(0, n_nodes - 1), max_size=n_nodes - 1))
    # chunks of 1 to 23 blocks: the block counts (128, 64, 64; a segment
    # is whole pages) are multiples of only the powers of two among them
    chunk_cells = draw(st.integers(1, 23)) * n_nodes + draw(st.integers(0, n_nodes - 1))
    return cell, edits, skip, chunk_cells


@settings(max_examples=150, deadline=None)
@given(case())
def test_streamed_audit_equals_the_dense_scan(case):
    cell, edits, skip, chunk_cells = case
    cluster, (dir_cut, access_cut) = healthy(cell)
    cluster.directory.restore(dir_cut)
    cluster.access.restore(access_cut)
    for edit in edits:
        apply(cluster, edit)
    want = dense_scan(cluster.directory, cluster.access, skip)
    with mock.patch.object(audit, "_CHUNK_CELLS", chunk_cells):
        got = audit_violations(cluster.directory, cluster.access, skip)
    assert got == want


@pytest.mark.parametrize("chunk_cells", [audit._CHUNK_CELLS, 4 * 7 + 1])
def test_a_capped_invariant_reports_its_count_in_both(chunk_cells):
    cluster, (dir_cut, access_cut) = healthy(0)
    cluster.directory.restore(dir_cut)
    cluster.access.restore(access_cut)
    cluster.directory.global_version[:] += 1  # every copy is stale
    want = dense_scan(cluster.directory, cluster.access, frozenset())
    assert any(line.startswith("... (") for line in want)
    with mock.patch.object(audit, "_CHUNK_CELLS", chunk_cells):
        assert audit_violations(cluster.directory, cluster.access) == want


@pytest.mark.parametrize("scan", [dense_scan, audit_violations])
def test_out_of_range_skip_nodes_are_refused_by_both(scan):
    cluster, _ = healthy(0)
    with pytest.raises(ValueError, match=r"skip_nodes out of range: \[9\]"):
        scan(cluster.directory, cluster.access, frozenset({9}))
