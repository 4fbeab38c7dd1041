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
#: sites detailed per invariant before its "... (N sites ...)" line
_MAX_SITES = _MAX_REPORTED * 4
#: (node, block) cells one scan step covers: the scan's temporaries stay
#: this size however large the segment (see :func:`_scan`)
_CHUNK_CELLS = 1 << 16


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
    after every test: the common case is a handful of vectorized scans
    per chunk of blocks, with memory bounded by the chunk.
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
    if skip_nodes:
        bad_ids = [n for n in skip_nodes if not 0 <= n < n_nodes]
        if bad_ids:
            raise ValueError(f"skip_nodes out of range: {sorted(bad_ids)}")
        live = np.ones(n_nodes, dtype=bool)
        live[sorted(skip_nodes)] = False
    else:
        live = None
    # The invariants run over a chunk of blocks at a time, every node's
    # row at once, so no temporary outgrows _CHUNK_CELLS elements however
    # large the segment; each invariant's tally keeps its first sites in
    # (node, block) order and counts the rest.
    step = max(1, _CHUNK_CELLS // n_nodes)
    tallies: list[_Tally] = []
    for lo in range(0, directory.n_blocks, step):
        hi = min(lo + step, directory.n_blocks)
        checks = _checks(directory, access, lo, hi, live)
        for i, (mask, line) in enumerate(checks):
            if i == len(tallies):
                tallies.append(_Tally(line, n_nodes))
            tallies[i].add(mask, lo)
    violations: list[str] = []
    for tally in tallies:
        tally.report(violations)
    return violations


class _Tally:
    """One invariant's sites: the first ``_MAX_SITES`` of each node row
    (a per-block invariant has one row), and how many there were."""

    def __init__(self, line, n_nodes: int) -> None:
        self.line = line
        self.rows: list[list[tuple[int, ...]]] = [[] for _ in range(n_nodes)]
        self.count = 0

    def add(self, mask: np.ndarray, lo: int) -> None:
        """Tally ``mask`` — (n_nodes, chunk) or (chunk,) — of the chunk
        starting at block ``lo``."""
        hits = int(np.count_nonzero(mask))
        if not hits:
            return
        self.count += hits
        per_node = mask.ndim == 2
        for n, row in enumerate(mask if per_node else mask[None, :]):
            room = _MAX_SITES - len(self.rows[n])
            if room > 0 and row.any():
                blocks = (lo + np.flatnonzero(row)[:room]).tolist()
                self.rows[n].extend((n, b) if per_node else (b,) for b in blocks)

    def report(self, violations: list[str]) -> None:
        sites = [site for row in self.rows for site in row][:_MAX_SITES]
        violations.extend(self.line(*site) for site in sites)
        if self.count > _MAX_SITES:
            violations.append(f"... ({self.count} sites for this invariant)")


def _checks(
    directory: Directory,
    access: AccessControl,
    lo: int,
    hi: int,
    live: np.ndarray | None,
):
    """Every invariant over blocks ``lo:hi``, in report order: a mask of
    its violating sites and the line that names one site."""
    n_nodes = directory.n_nodes
    # The directory keeps state/owner/sharers as plain Python containers
    # for the protocol's scalar hot path; the scan converts one chunk at a
    # time.  Every 2-D operand is a view of the chunk's columns.
    state = np.frombuffer(directory.state, dtype=np.uint8, count=hi - lo, offset=lo)
    owner = np.array(directory.owner[lo:hi], dtype=np.int64)
    sharers = np.array(directory.sharers[lo:hi], dtype=np.uint64)
    home = directory.home[lo:hi]
    tags = access._tags[:, lo:hi]
    implicit = access._implicit[:, lo:hi]
    global_version = directory.global_version[lo:hi]
    current = directory.copy_version[:, lo:hi] >= global_version[None, :]
    readable = tags >= int(AccessTag.READONLY)
    cols = np.arange(hi - lo)

    node_bit = (np.uint64(1) << np.arange(n_nodes, dtype=np.uint64))[:, None]
    is_sharer = (sharers[None, :] & node_bit) != 0
    is_owner = owner[None, :] == np.arange(n_nodes)[:, None]
    is_home = home[None, :] == np.arange(n_nodes)[:, None]

    excl = state == int(DirState.EXCLUSIVE)
    shared = state == int(DirState.SHARED)
    idle = state == int(DirState.IDLE)
    valid_owner = excl & (owner >= 0) & (owner < n_nodes)

    # Unreachable-node masking (degraded runs): a skipped node's tag rows
    # are exempt, and so is every block it homes or exclusively owns — the
    # surviving side cannot know that block's true state.
    if live is not None:
        block_live = live[home]
        owned = np.flatnonzero(valid_owner)
        block_live[owned] &= live[owner[owned]]
        node_live = live[:, None] & block_live[None, :]

    def check(mask: np.ndarray, line):
        if live is not None:
            mask = mask & (node_live if mask.ndim == 2 else block_live)
        return mask, line

    # Lines name a site by its global index and read the full structures.
    owner_of, sharers_of = directory.owner, directory.sharers
    all_tags, copy_version = access._tags, directory.copy_version
    versions = directory.global_version

    def tag(n: int, b: int) -> str:
        return AccessTag(int(all_tags[n, b])).name

    def stale(n: int, b: int) -> str:
        return f"copy v{int(copy_version[n, b])} < global v{int(versions[b])}"

    # --- structural sanity -------------------------------------------- #
    yield check(
        excl & ((owner < 0) | (owner >= n_nodes)),
        lambda b: f"block {b}: EXCLUSIVE with invalid owner {int(owner_of[b])}",
    )
    yield check(
        excl & (sharers != 0),
        lambda b: f"block {b}: EXCLUSIVE but sharer bitmask 0x{int(sharers_of[b]):x}",
    )
    yield check(
        shared & (sharers == 0),
        lambda b: f"block {b}: SHARED with empty sharer set",
    )
    yield check(
        (shared | idle) & (owner != -1),
        lambda b: f"block {b}: non-exclusive state records owner {int(owner_of[b])}",
    )
    yield check(
        idle & (sharers != 0),
        lambda b: f"block {b}: IDLE but sharer bitmask 0x{int(sharers_of[b]):x}",
    )

    # --- the exclusive owner really is the sole writer ----------------- #
    owner_row = np.where(valid_owner, owner, 0)
    owner_rw = valid_owner & (tags[owner_row, cols] == int(AccessTag.READWRITE))
    yield check(
        valid_owner & ~owner_rw,
        lambda b: (
            f"block {b}: exclusive owner {int(owner_of[b])} holds tag "
            f"{tag(owner_of[b], b)}, not READWRITE"
        ),
    )
    yield check(
        owner_rw & ~current[owner_row, cols],
        lambda b: (
            f"block {b}: exclusive owner {int(owner_of[b])} is stale "
            f"({stale(owner_of[b], b)})"
        ),
    )

    # --- sharers really readable and current --------------------------- #
    yield check(
        is_sharer & shared[None, :] & readable & ~current,
        lambda n, b: f"block {b}: sharer {n} is stale ({stale(n, b)})",
    )

    # --- the home backs every non-exclusive block ----------------------- #
    home_of = directory.home
    yield check(
        idle & (tags[home, cols] < int(AccessTag.READONLY)),
        lambda b: f"block {b}: IDLE but home {int(home_of[b])} tag is {tag(home_of[b], b)}",
    )
    yield check(
        idle & ~current[home, cols],
        lambda b: (
            f"block {b}: IDLE but home {int(home_of[b])} memory is stale "
            f"({stale(home_of[b], b)})"
        ),
    )

    # --- every readable tag is explained ------------------------------- #
    # Directory-known holders: the exclusive owner, listed sharers, or the
    # home itself while the block is not exclusive elsewhere.
    known = (is_owner & excl[None, :]) | is_sharer | (is_home & ~excl[None, :])
    yield check(
        readable & ~known & ~implicit,
        lambda n, b: (
            f"block {b}: node {n} holds unexplained tag {tag(n, b)} (state "
            f"{DirState(directory.state[b]).name}, not a directory holder, "
            "not compiler-granted)"
        ),
    )

    # --- no stale directory-known copy survived ------------------------- #
    yield check(
        readable & known & ~implicit & ~current
        & ~(is_home & idle[None, :])      # home-idle staleness reported above
        & ~(is_sharer & shared[None, :])  # sharer staleness reported above
        & ~(is_owner & excl[None, :]),    # owner staleness reported above
        lambda n, b: (
            f"block {b}: node {n} survived with stale readable copy "
            f"({stale(n, b)}, state {DirState(directory.state[b]).name})"
        ),
    )

    # --- the implicit bit itself stays consistent ----------------------- #
    yield check(
        implicit & ~readable,
        lambda n, b: (
            f"block {b}: node {n} flagged compiler-controlled but tag is {tag(n, b)}"
        ),
    )
