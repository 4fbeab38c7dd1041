"""End-of-run coherence auditor: prove, don't assume, that coherence held.

After a run (or at any global synchronization point where the protocol is
quiescent) the directory, the per-node access tags and the block version
tracker must tell one mutually consistent story.  The auditor cross-checks
all three and raises a structured :class:`CoherenceAuditError` listing every
violated invariant — so a faulty network, a protocol bug or a broken
compiler schedule is caught as a named invariant violation rather than as
silently wrong numbers.

Invariants
----------
For every block ``b`` (home ``h``, directory state ``s``):

* ``EXCLUSIVE``: the owner is a valid node, the sharer set is empty, the
  owner's tag is ReadWrite and its copy is version-current.
* ``SHARED``: the sharer set is non-empty, no owner is recorded, and every
  sharer that still holds a readable tag is version-current.  (A sharer
  whose tag was dropped locally — e.g. by ``implicit_invalidate`` — is
  safe: its next access faults and refetches; the directory merely sends
  one useless invalidation later.)
* ``IDLE``: no owner, no sharers, and the home's own memory is readable
  and version-current.
* Universally: a node holding a readable tag is either *directory-known*
  for that block (the exclusive owner, a listed sharer, or the home while
  the block is not exclusive elsewhere) or the tag is *implicit* —
  granted by a compiler-control primitive and tracked as such by
  :class:`~repro.tempest.access.AccessControl`.  An unexplained readable
  tag means some node could read data the protocol no longer guarantees.
* Universally: every directory-known readable copy is version-current —
  "no stale version survived".  Implicit copies are exempt here (their
  freshness is the compiler's contract, enforced separately by the
  contract checker and the per-read validators, and e.g. run-time
  overhead elimination legally retains them beyond their last use).

These are exactly the invariants the protocol fuzzer asserts inline; the
auditor packages them as a reusable pass so every integration test — and
every faulty-network run — ends with a proof of coherence.

Degraded runs
-------------
A run that survives a network partition (see
:class:`~repro.tempest.faults.PartitionScenario`) finishes with some nodes
torn mid-transaction.  :func:`audit_violations` is the non-raising
variant — it returns the violation list so a degraded run can *report*
residual inconsistency among the survivors instead of raising
mid-teardown — and its ``skip_nodes`` masks those nodes out of the scan:
their own tag rows are ignored, and so is every block they home or
exclusively own (state for such a block is unknowable from the surviving
side).
"""

from __future__ import annotations

import numpy as np

from repro.tempest.access import AccessControl, AccessTag
from repro.tempest.directory import Directory, DirState

__all__ = ["CoherenceAuditError", "audit_coherence", "audit_violations"]

#: cap on individual violations detailed in one error message
_MAX_REPORTED = 12


class CoherenceAuditError(AssertionError):
    """The directory, tags and versions disagree — coherence was broken.

    ``violations`` holds every failed invariant as a human-readable string;
    the exception message shows the first few.
    """

    def __init__(self, violations: list[str], context: str = "") -> None:
        self.violations = violations
        self.context = context
        shown = violations[:_MAX_REPORTED]
        more = len(violations) - len(shown)
        head = f"coherence audit failed ({len(violations)} violations"
        head += f", {context})" if context else ")"
        body = "\n  - ".join([""] + shown)
        if more > 0:
            body += f"\n  ... and {more} more"
        super().__init__(head + body)


def audit_coherence(
    directory: Directory,
    access: AccessControl,
    context: str = "",
) -> int:
    """Cross-check directory state, access tags and block versions.

    Returns the number of blocks checked; raises
    :class:`CoherenceAuditError` on any violation.  Cheap enough to run
    after every test: the common case is a handful of vectorized scans.
    """
    violations = _scan(directory, access, frozenset())
    if violations:
        raise CoherenceAuditError(violations, context)
    return directory.n_blocks


def audit_violations(
    directory: Directory,
    access: AccessControl,
    skip_nodes: frozenset[int] = frozenset(),
) -> list[str]:
    """Like :func:`audit_coherence` but *collects* instead of raising.

    Used by degraded runs to report residual inconsistency among the
    surviving nodes without turning the failure report into a traceback:
    ``skip_nodes`` exempts unreachable nodes (and the blocks they home or
    exclusively own) from every invariant.
    """
    return _scan(directory, access, skip_nodes)


def _scan(
    directory: Directory, access: AccessControl, skip_nodes: frozenset[int]
) -> list[str]:
    n_nodes = directory.n_nodes
    # The directory keeps these as plain Python containers for the
    # protocol's scalar hot path; the auditor converts once per scan and
    # runs its invariants vectorized.
    state = np.frombuffer(bytes(directory.state), dtype=np.uint8)
    owner = np.asarray(directory.owner, dtype=np.int64)
    sharers = np.array(directory.sharers, dtype=np.uint64)
    home = directory.home
    tags = access._tags
    implicit = access._implicit
    copy_version = directory.copy_version
    global_version = directory.global_version
    n_blocks = directory.n_blocks
    current = copy_version >= global_version[None, :]
    readable = tags >= int(AccessTag.READONLY)

    node_bit = (np.uint64(1) << np.arange(n_nodes, dtype=np.uint64))[:, None]
    is_sharer = (sharers[None, :] & node_bit) != 0
    is_owner = owner[None, :] == np.arange(n_nodes)[:, None]
    is_home = home[None, :] == np.arange(n_nodes)[:, None]

    excl = state == int(DirState.EXCLUSIVE)
    shared = state == int(DirState.SHARED)
    idle = state == int(DirState.IDLE)

    # Unreachable-node masking (degraded runs): a skipped node's tag rows
    # are exempt, and so is every block it homes or exclusively owns — the
    # surviving side cannot know that block's true state.
    if skip_nodes:
        bad_ids = [n for n in skip_nodes if not 0 <= n < n_nodes]
        if bad_ids:
            raise ValueError(f"skip_nodes out of range: {sorted(bad_ids)}")
        live = np.ones(n_nodes, dtype=bool)
        live[sorted(skip_nodes)] = False
        block_live = live[home].copy()
        owned = np.flatnonzero(excl & (owner >= 0) & (owner < n_nodes))
        block_live[owned] &= live[owner[owned]]
    else:
        live = None
        block_live = None

    violations: list[str] = []

    def _report(mask: np.ndarray, fmt) -> None:
        """mask is (n_nodes, n_blocks) or (n_blocks,); fmt builds a line."""
        if block_live is not None:
            if mask.ndim == 2:
                mask = mask & live[:, None] & block_live[None, :]
            else:
                mask = mask & block_live
        bad = np.argwhere(mask)
        for entry in bad[: _MAX_REPORTED * 4]:
            violations.append(fmt(*entry.tolist()))
        if len(bad) > _MAX_REPORTED * 4:
            violations.append(f"... ({len(bad)} sites for this invariant)")

    # --- structural sanity -------------------------------------------- #
    _report(
        excl & ((owner < 0) | (owner >= n_nodes)),
        lambda b: f"block {b}: EXCLUSIVE with invalid owner {int(owner[b])}",
    )
    _report(
        excl & (sharers != 0),
        lambda b: f"block {b}: EXCLUSIVE but sharer bitmask 0x{int(sharers[b]):x}",
    )
    _report(
        shared & (sharers == 0),
        lambda b: f"block {b}: SHARED with empty sharer set",
    )
    _report(
        (shared | idle) & (owner != -1),
        lambda b: f"block {b}: non-exclusive state records owner {int(owner[b])}",
    )
    _report(
        idle & (sharers != 0),
        lambda b: f"block {b}: IDLE but sharer bitmask 0x{int(sharers[b]):x}",
    )

    # --- the exclusive owner really is the sole writer ----------------- #
    valid_owner = excl & (owner >= 0) & (owner < n_nodes)
    owner_rw = np.zeros_like(valid_owner)
    if valid_owner.any():
        idx = np.flatnonzero(valid_owner)
        owner_rw[idx] = tags[owner[idx], idx] == int(AccessTag.READWRITE)
        owner_cur = np.zeros_like(valid_owner)
        owner_cur[idx] = current[owner[idx], idx]
        _report(
            valid_owner & ~owner_rw,
            lambda b: (
                f"block {b}: exclusive owner {int(owner[b])} holds tag "
                f"{AccessTag(int(tags[owner[b], b])).name}, not READWRITE"
            ),
        )
        _report(
            valid_owner & owner_rw & ~owner_cur,
            lambda b: (
                f"block {b}: exclusive owner {int(owner[b])} is stale "
                f"(copy v{int(copy_version[owner[b], b])} < "
                f"global v{int(global_version[b])})"
            ),
        )

    # --- sharers really readable and current --------------------------- #
    _report(
        is_sharer & shared[None, :] & readable & ~current,
        lambda n, b: (
            f"block {b}: sharer {n} is stale "
            f"(copy v{int(copy_version[n, b])} < "
            f"global v{int(global_version[b])})"
        ),
    )

    # --- the home backs every non-exclusive block ----------------------- #
    home_tags = tags[home, np.arange(n_blocks)]
    home_cur = current[home, np.arange(n_blocks)]
    _report(
        idle & (home_tags < int(AccessTag.READONLY)),
        lambda b: (
            f"block {b}: IDLE but home {int(home[b])} tag is "
            f"{AccessTag(int(home_tags[b])).name}"
        ),
    )
    _report(
        idle & ~home_cur,
        lambda b: (
            f"block {b}: IDLE but home {int(home[b])} memory is stale "
            f"(copy v{int(copy_version[home[b], b])} < "
            f"global v{int(global_version[b])})"
        ),
    )

    # --- every readable tag is explained ------------------------------- #
    # Directory-known holders: the exclusive owner, listed sharers, or the
    # home itself while the block is not exclusive elsewhere.
    known = (is_owner & excl[None, :]) | is_sharer | (is_home & ~excl[None, :])
    _report(
        readable & ~known & ~implicit,
        lambda n, b: (
            f"block {b}: node {n} holds unexplained tag "
            f"{AccessTag(int(tags[n, b])).name} (state "
            f"{DirState(int(state[b])).name}, not a directory holder, "
            "not compiler-granted)"
        ),
    )

    # --- no stale directory-known copy survived ------------------------- #
    _report(
        readable & known & ~implicit & ~current
        & ~(is_home & idle[None, :])      # home-idle staleness reported above
        & ~(is_sharer & shared[None, :])  # sharer staleness reported above
        & ~(is_owner & excl[None, :]),    # owner staleness reported above
        lambda n, b: (
            f"block {b}: node {n} survived with stale readable copy "
            f"(copy v{int(copy_version[n, b])} < "
            f"global v{int(global_version[b])}, state "
            f"{DirState(int(state[b])).name})"
        ),
    )

    # --- the implicit bit itself stays consistent ----------------------- #
    _report(
        implicit & ~readable,
        lambda n, b: (
            f"block {b}: node {n} flagged compiler-controlled but tag is "
            f"{AccessTag(int(tags[n, b])).name}"
        ),
    )

    return violations
