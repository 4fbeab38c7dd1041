"""Figure 2, panel by panel: the run-time calls and their effect on block
states.

The paper's figure walks one non-owner-read optimization through six
snapshots (A-F).  This test executes the same call sequence on the
simulated cluster and asserts the access tags and directory state at every
panel boundary — the executable version of the figure.

Setup mirrors the figure: an owner processor, a reader processor, and
pages homed elsewhere (the figure's "home for page i" row), with a section
spanning two pages whose edges stay under the default protocol.
"""

import pytest

from repro.core.blocks import shmem_limits
from repro.core.sections import Section, StridedInterval
from repro.tempest import (
    AccessTag,
    Cluster,
    ClusterConfig,
    DirState,
    Distribution,
    HomePolicy,
    SharedMemory,
)

OWNER, READER, HOME = 1, 2, 0


@pytest.fixture
def world():
    cfg = ClusterConfig(n_nodes=3)
    mem = SharedMemory(cfg, home_policy=HomePolicy.NODE0)  # home != owner
    # One distributed 1-D array; the owner's section a(m:n) is trimmed to
    # block boundaries by shmem_limits, exactly the figure's m_l:n_l.
    arr = mem.alloc("a", (128, 3), Distribution.block(3))
    cl = Cluster(cfg, mem)
    sec = Section(((5, 120),), StridedInterval(1, 1))  # owner's column, unaligned rows
    inner, boundary = shmem_limits(arr, sec)
    assert len(inner) > 0 and len(boundary) == 2  # the figure's edge blocks
    return cl, inner.tolist(), boundary.tolist()


def snapshot(cl, blocks):
    return {
        "tags": {n: [cl.access.get(n, b) for b in blocks] for n in range(3)},
        "dir": [cl.directory.state_of(b) for b in blocks],
        "owner": [cl.directory.owner_of(b) for b in blocks],
    }


def test_figure2_panels(world):
    cl, inner, boundary = world
    panels = {}

    def owner_prog():
        # Panel A: after shmem_limits — initial state, home holds data.
        panels["A"] = snapshot(cl, inner)
        yield from cl.ext.mk_writable(OWNER, inner)
        panels["B"] = snapshot(cl, inner)          # after mk_writable
        yield from cl.barrier(OWNER)
        yield from cl.barrier(OWNER)
        yield from cl.write_blocks(OWNER, inner, phase=1)
        yield from cl.ext.send_blocks(OWNER, inner, READER)
        yield from cl.barrier(OWNER)
        yield from cl.barrier(OWNER)

    def reader_prog():
        yield from cl.barrier(READER)
        yield from cl.ext.implicit_writable(READER, inner)
        panels["C"] = snapshot(cl, inner)          # after implicit_writable
        yield from cl.barrier(READER)
        yield from cl.ext.ready_to_recv(READER, len(inner))
        panels["D"] = snapshot(cl, inner)          # after send + ready_recv
        yield from cl.read_blocks(READER, inner)
        panels["E"] = snapshot(cl, inner)          # after the loop reads
        yield from cl.barrier(READER)
        yield from cl.ext.implicit_invalidate(READER, inner)
        panels["F"] = snapshot(cl, inner)          # after implicit_invalidate
        yield from cl.barrier(READER)

    def home_prog():
        for _ in range(4):
            yield from cl.barrier(HOME)

    cl.run({HOME: home_prog(), OWNER: owner_prog(), READER: reader_prog()})

    # Panel A: home holds the only (writable) copy; everyone else invalid.
    assert all(t is AccessTag.READWRITE for t in panels["A"]["tags"][HOME])
    assert all(t is AccessTag.INVALID for t in panels["A"]["tags"][OWNER])
    assert all(s is DirState.IDLE for s in panels["A"]["dir"])

    # Panel B: mk_writable made the owner exclusive; the directory knows it
    # ("the directory information reflects that the owner has the current
    # and only valid copy, relieving the actual home").
    assert all(t is AccessTag.READWRITE for t in panels["B"]["tags"][OWNER])
    assert all(t is AccessTag.INVALID for t in panels["B"]["tags"][HOME])
    assert all(s is DirState.EXCLUSIVE for s in panels["B"]["dir"])
    assert all(o == OWNER for o in panels["B"]["owner"])

    # Panel C: the reader holds readwrite tags "even though no data resides
    # in them"; the directory still believes exclusive-at-owner.
    assert all(t is AccessTag.READWRITE for t in panels["C"]["tags"][READER])
    assert all(s is DirState.EXCLUSIVE for s in panels["C"]["dir"])
    assert all(o == OWNER for o in panels["C"]["owner"])

    # Panel D: data has arrived; tags unchanged, directory still incoherent
    # with reality (that's the compiler's controlled incoherence).
    assert all(t is AccessTag.READWRITE for t in panels["D"]["tags"][READER])
    assert all(o == OWNER for o in panels["D"]["owner"])
    for b in inner:
        assert cl.directory.copy_is_current(READER, b)

    # Panel E: loop reads hit — no faults were taken on controlled blocks.
    assert cl.stats[READER].read_misses == 0

    # Panel F: consistency restored — reader invalid again, the directory's
    # belief (exclusive at owner) is true once more.
    assert all(t is AccessTag.INVALID for t in panels["F"]["tags"][READER])
    assert all(s is DirState.EXCLUSIVE for s in panels["F"]["dir"])
    assert all(o == OWNER for o in panels["F"]["owner"])


def test_boundary_blocks_stay_with_default_protocol(world):
    cl, inner, boundary = world

    def owner_prog():
        yield from cl.ext.mk_writable(OWNER, inner)
        yield from cl.barrier(OWNER)
        yield from cl.barrier(OWNER)
        yield from cl.ext.send_blocks(OWNER, inner, READER)
        yield from cl.barrier(OWNER)

    def reader_prog():
        yield from cl.barrier(READER)
        yield from cl.ext.implicit_writable(READER, inner)
        yield from cl.barrier(READER)
        yield from cl.ext.ready_to_recv(READER, len(inner))
        # The loop also touches the two edge blocks: they demand-miss.
        yield from cl.read_blocks(READER, inner + boundary)
        yield from cl.barrier(READER)

    def home_prog():
        for _ in range(3):
            yield from cl.barrier(HOME)

    stats = cl.run({HOME: home_prog(), OWNER: owner_prog(), READER: reader_prog()})
    assert stats[READER].read_misses == len(boundary)  # edges only
