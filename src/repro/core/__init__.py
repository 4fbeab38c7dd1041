"""The paper's contribution: compiler-orchestrated incoherence.

Pipeline (paper Section 4):

1. ``access``    — read/write/non-owner access-set analysis per parallel
                   loop per processor (Section 4.1), on top of
2. ``symbolic``  — linear expressions in named symbols, and
3. ``sections``  — a regular-section-descriptor algebra (the role Omega
                   played for the authors);
4. ``blocks``    — mapping sections to cache-block ranges and the
                   ``shmem_limits`` block-boundary subsetting (Section 4.2);
5. ``calls``     — the run-time call IR (mk_writable, implicit_writable,
                   send/ready_to_recv, implicit_invalidate, flush);
6. ``planner``   — building the Figure 2 call schedule per loop;
7. ``optimizer`` — bulk transfer + run-time overhead elimination
                   (Section 4.3) and
8. ``pre``       — partial-redundancy elimination of communication
                   (Section 4.3's stated future work, built here as a
                   run-time availability tracker);
9. ``contract``  — a static checker that a schedule honours the
                   compiler/protocol contract.
"""

# Only the dependency-free layers are re-exported here: the analysis and
# planning modules import repro.hpf (which itself uses repro.core.symbolic),
# so exposing them from this __init__ would create an import cycle.  Import
# them directly: ``from repro.core.access import analyze_loop`` etc.
from repro.core.sections import Section, StridedInterval
from repro.core.symbolic import Env, Lin, Sym

__all__ = [
    "Env",
    "Lin",
    "Section",
    "StridedInterval",
    "Sym",
]
