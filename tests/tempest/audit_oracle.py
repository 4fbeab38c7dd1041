"""The seed's coherence scan — every invariant evaluated over dense
``n_nodes x n_blocks`` arrays at once — kept as the oracle the streamed
:func:`repro.tempest.audit.audit_violations` is tested against
(``tests/tempest/test_audit_differential.py``).

Not an option of the simulator: ``dense_scan(directory, access,
skip_nodes)`` returns the violation list the streamed scan must equal,
line for line and in order.
"""

from __future__ import annotations

import numpy as np

from repro.tempest.access import AccessControl, AccessTag
from repro.tempest.directory import Directory, DirState

#: sites detailed per invariant before its "... (N sites ...)" line
_MAX_SITES = 12 * 4


def dense_scan(
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
        for entry in bad[:_MAX_SITES]:
            violations.append(fmt(*entry.tolist()))
        if len(bad) > _MAX_SITES:
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
