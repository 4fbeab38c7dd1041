"""The coherence auditor: clean states pass, seeded corruptions are named.

Each corruption test takes a healthy post-run cluster, breaks exactly one
invariant by hand (simulating a protocol bug or an undetected transport
failure), and asserts the auditor raises :class:`CoherenceAuditError`
mentioning the right site.
"""

import numpy as np
import pytest

from repro.tempest import AccessTag, CoherenceAuditError, audit_coherence, audit_violations
from tests.tempest.conftest import make_cluster


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


class TestCorruptionsCaught:
    def test_unexplained_readable_tag(self):
        cluster = run_small_workload(read_all=False)
        # Give a random non-holder a readable tag behind the directory's back.
        b = 0
        outsider = next(
            n for n in range(4)
            if n not in cluster.directory.sharers_of(b)
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
            b for b in range(4) if cluster.directory.sharers_of(b)
        )
        cluster.directory.global_version[b] += 1
        with pytest.raises(CoherenceAuditError, match="stale"):
            cluster.audit()

    def test_shared_with_empty_sharer_set(self):
        cluster = run_small_workload()
        b = next(b for b in range(4) if cluster.directory.sharers_of(b))
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
            if n not in cluster.directory.sharers_of(b)
            and n != cluster.directory.home_of(b)
            and cluster.access.get(n, b) is AccessTag.INVALID
        )
        # The same foreign tag as in the corruption test, but marked as
        # compiler-granted: the auditor must accept it (its freshness is
        # the contract checker's responsibility).
        cluster.access.set(outsider, b, AccessTag.READWRITE, implicit=True)
        cluster.audit()


class TestSampledAudit:
    """``sample_prob < 1`` audits a seeded random subset of blocks."""

    @pytest.mark.parametrize("prob", [0.0, -0.5, 1.5])
    def test_bad_sample_prob_rejected(self, prob):
        cluster = run_small_workload()
        with pytest.raises(ValueError, match="sample_prob"):
            cluster.audit(sample_prob=prob)

    def test_full_probability_is_the_full_audit(self):
        cluster = run_small_workload()
        assert cluster.audit(sample_prob=1.0) == cluster.audit()

    def test_sampled_audit_checks_fewer_blocks_deterministically(self):
        cluster = run_small_workload()
        total = cluster.audit()
        rng = np.random.default_rng(3)
        checked = cluster.audit(sample_prob=0.5, rng=rng)
        assert 0 < checked < total
        # The selection is exactly the seeded generator's draw.
        expect = np.flatnonzero(
            np.random.default_rng(3).random(cluster.directory.n_blocks) < 0.5
        )
        assert checked == expect.size

    def test_empty_sample_checks_nothing(self):
        cluster = run_small_workload()
        assert cluster.audit(sample_prob=1e-9) == 0
        assert audit_violations(
            cluster.directory, cluster.access, sample_prob=1e-9
        ) == []

    def test_default_rng_is_seeded(self):
        cluster = run_small_workload()
        assert (cluster.audit(sample_prob=0.5)
                == cluster.audit(sample_prob=0.5))

    def test_sampled_violations_name_real_block_ids(self):
        # Corrupt exactly the blocks a known seed selects; the sampled
        # audit must report them under their true ids, and only them.
        cluster = run_small_workload(read_all=False)
        n_blocks = cluster.directory.n_blocks
        seed = next(
            s for s in range(100)
            if {0, 1} & set(
                np.flatnonzero(np.random.default_rng(s).random(n_blocks) < 0.5)
            ) == {0}
        )
        cluster.access._tags[3, 0] = int(AccessTag.READWRITE)
        cluster.access._tags[3, 1] = int(AccessTag.READWRITE)
        cluster.access._implicit[3, 0:2] = False
        with pytest.raises(CoherenceAuditError) as exc:
            audit_coherence(
                cluster.directory, cluster.access,
                sample_prob=0.5, rng=np.random.default_rng(seed),
            )
        messages = "\n".join(exc.value.violations)
        assert "block 0:" in messages      # sampled, real id reported
        assert "block 1:" not in messages  # corrupted but not sampled

    def test_sampled_miss_passes_full_audit_catches(self):
        # A corruption outside the sample goes unseen -- that is the
        # bargain -- but the full audit still raises.
        cluster = run_small_workload(read_all=False)
        n_blocks = cluster.directory.n_blocks
        seed = next(
            s for s in range(100)
            if 0 not in np.flatnonzero(
                np.random.default_rng(s).random(n_blocks) < 0.5
            )
        )
        cluster.access._tags[3, 0] = int(AccessTag.READWRITE)
        cluster.access._implicit[3, 0] = False
        audit_coherence(
            cluster.directory, cluster.access,
            sample_prob=0.5, rng=np.random.default_rng(seed),
        )
        with pytest.raises(CoherenceAuditError):
            cluster.audit()

    def test_run_with_sampled_barrier_audits(self):
        cluster, _arr = make_cluster(n_nodes=2)

        def program(n):
            yield from cluster.write_blocks(n, [n], phase=1)
            yield from cluster.barrier(n)
            yield from cluster.read_blocks(n, [1 - n], phase=2)
            yield from cluster.barrier(n)

        cluster.run(
            {n: program(n) for n in range(2)},
            audit=True, audit_each_barrier=True, audit_sample_prob=0.5,
        )


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
