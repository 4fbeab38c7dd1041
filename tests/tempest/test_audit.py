"""The coherence auditor: clean states pass, seeded corruptions are named.

Each corruption test takes a healthy post-run cluster, breaks exactly one
invariant by hand (simulating a protocol bug or an undetected transport
failure), and asserts the auditor raises :class:`CoherenceAuditError`
mentioning the right site.
"""

import numpy as np
import pytest

from repro.tempest import AccessTag, CoherenceAuditError, audit_coherence
from tests.tempest.conftest import make_cluster, sharers_of


def run_small_workload(read_all=True, **overrides):
    """All nodes write their own block, then read (everybody's | their own).

    ``read_all=False`` leaves most (node, block) pairs untouched, so tests
    that need an *outsider* — a node with no directory standing for some
    block — can find one.
    """
    cluster, _arr = make_cluster(n_nodes=4, **overrides)

    def program(n):
        yield from cluster.write_blocks(n, [n], phase=1)
        yield from cluster.barrier(n)
        reads = list(range(4)) if read_all else [n]
        yield from cluster.read_blocks(n, reads, phase=2)
        yield from cluster.barrier(n)

    cluster.run({n: program(n) for n in range(4)})
    return cluster


class TestCleanStatesPass:
    def test_fresh_cluster_audits_clean(self):
        cluster, _ = make_cluster(n_nodes=4)
        assert cluster.audit() > 0

    def test_post_run_cluster_audits_clean(self):
        cluster = run_small_workload()
        cluster.audit()

    def test_audit_during_run_at_barriers(self):
        cluster, _arr = make_cluster(n_nodes=2)

        def program(n):
            yield from cluster.write_blocks(n, [n], phase=1)
            yield from cluster.barrier(n)
            yield from cluster.read_blocks(n, [1 - n], phase=2)
            yield from cluster.barrier(n)

        cluster.run(
            {n: program(n) for n in range(2)}, audit=True, audit_each_barrier=True
        )


class TestWideClusters:
    """Sharer sets wider than one 64-bit word: nodes numbered 64 and up."""

    N_NODES = 70

    def run_wide(self):
        """Every node writes its own rows; then nodes 64.. read block 0."""
        cluster, _arr = make_cluster(n_nodes=self.N_NODES, shape=(140, 16))
        readers = range(64, self.N_NODES)

        def program(n):
            yield from cluster.write_blocks(n, [n], phase=1)
            yield from cluster.barrier(n)
            yield from cluster.read_blocks(n, [0] if n in readers else [], phase=2)
            yield from cluster.barrier(n)

        cluster.run({n: program(n) for n in range(self.N_NODES)})
        assert set(readers) <= set(sharers_of(cluster.directory, 0))
        return cluster

    def test_a_sharer_numbered_past_63_audits_clean(self):
        assert self.run_wide().audit() > 0

    def test_a_stale_sharer_numbered_past_63_is_named(self):
        cluster = self.run_wide()
        cluster.directory.copy_version[self.N_NODES - 1, 0] -= 1
        with pytest.raises(CoherenceAuditError) as err:
            cluster.audit()
        assert err.value.violations == [
            f"block 0: sharer {self.N_NODES - 1} is stale (copy v0 < global v1)"
        ]


class TestCorruptionsCaught:
    def test_unexplained_readable_tag(self):
        cluster = run_small_workload(read_all=False)
        # Give a random non-holder a readable tag behind the directory's back.
        b = 0
        outsider = next(
            n for n in range(4)
            if n not in sharers_of(cluster.directory, b)
            and n != cluster.directory.home_of(b)
            and cluster.access.get(n, b) is AccessTag.INVALID
        )
        cluster.access._tags[outsider, b] = int(AccessTag.READONLY)
        with pytest.raises(CoherenceAuditError, match="unexplained"):
            cluster.audit()

    def test_exclusive_owner_without_readwrite_tag(self):
        cluster = run_small_workload()
        b = 0
        cluster.directory.set_exclusive(b, 2)
        cluster.access._tags[:, b] = int(AccessTag.INVALID)
        with pytest.raises(CoherenceAuditError, match="not READWRITE"):
            cluster.audit()

    def test_exclusive_with_sharer_residue(self):
        cluster = run_small_workload()
        b = 1
        cluster.directory.set_exclusive(b, 2)
        cluster.access._tags[:, b] = int(AccessTag.INVALID)
        cluster.access._tags[2, b] = int(AccessTag.READWRITE)
        cluster.directory.copy_version[2, b] = cluster.directory.global_version[b]
        cluster.audit()  # healthy exclusive
        cluster.directory.sharers[b] = np.uint64(0b1000)  # stale sharer bit
        with pytest.raises(CoherenceAuditError, match="sharer bitmask"):
            cluster.audit()

    def test_stale_sharer_copy(self):
        cluster = run_small_workload()
        # Pick a genuinely shared block and silently bump its version, as a
        # lost invalidation would: every sharer is now stale.
        b = next(
            b for b in range(4) if sharers_of(cluster.directory, b)
        )
        cluster.directory.global_version[b] += 1
        with pytest.raises(CoherenceAuditError, match="stale"):
            cluster.audit()

    def test_shared_with_empty_sharer_set(self):
        cluster = run_small_workload()
        b = next(b for b in range(4) if sharers_of(cluster.directory, b))
        cluster.directory.sharers[b] = np.uint64(0)
        with pytest.raises(CoherenceAuditError, match="empty sharer set"):
            cluster.audit()

    def test_idle_home_memory_stale(self):
        cluster, _ = make_cluster(n_nodes=4)
        b = 0
        home = cluster.directory.home_of(b)
        cluster.directory.global_version[b] += 1  # write nobody holds
        assert cluster.directory.state_of(b).name == "IDLE"
        with pytest.raises(CoherenceAuditError, match="stale"):
            cluster.audit()
        # Repairing the home's copy restores a clean audit.
        cluster.directory.copy_version[home, b] = cluster.directory.global_version[b]
        cluster.audit()

    def test_implicit_flag_on_invalid_tag(self):
        cluster = run_small_workload()
        cluster.access._implicit[3, 0] = True
        cluster.access._tags[3, 0] = int(AccessTag.INVALID)
        with pytest.raises(CoherenceAuditError, match="compiler-controlled"):
            cluster.audit()


class TestImplicitTagsExempt:
    def test_compiler_granted_tag_is_explained(self):
        cluster = run_small_workload(read_all=False)
        b = 0
        outsider = next(
            n for n in range(4)
            if n not in sharers_of(cluster.directory, b)
            and n != cluster.directory.home_of(b)
            and cluster.access.get(n, b) is AccessTag.INVALID
        )
        # The same foreign tag as in the corruption test, but marked as
        # compiler-granted: the auditor must accept it (its freshness is
        # the contract checker's responsibility).
        cluster.access.set(outsider, b, AccessTag.READWRITE, implicit=True)
        cluster.audit()


class TestErrorStructure:
    def test_violations_listed_and_context_kept(self):
        cluster = run_small_workload(read_all=False)
        cluster.access._tags[3, 0] = int(AccessTag.READWRITE)
        cluster.access._tags[3, 1] = int(AccessTag.READWRITE)
        cluster.access._implicit[3, 0:2] = False
        with pytest.raises(CoherenceAuditError) as exc:
            audit_coherence(cluster.directory, cluster.access, context="t99")
        err = exc.value
        assert len(err.violations) >= 2
        assert err.context == "t99"
        assert "t99" in str(err)

    def test_is_an_assertion_error(self):
        # Like StaleReadError, audit failures are assertion-class: test
        # harnesses and validators treat them as correctness failures.
        assert issubclass(CoherenceAuditError, AssertionError)
