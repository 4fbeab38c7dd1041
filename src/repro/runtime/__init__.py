"""SPMD runtimes that execute mini-HPF programs on the simulated cluster.

Four backends, matching the paper's evaluation matrix:

``run_shmem(optimize=False)``  transparent shared memory — every remote
    access goes through the default coherence protocol (the *unoptimized*
    bars of Figure 3);
``run_shmem(optimize=True)``   compiler-orchestrated incoherence — the
    planner's call schedules bypass the protocol for analyzed sections,
    with the ``bulk`` / ``rt_elim`` / ``pre`` knobs of Sections 4.2-4.3;
``run_msgpass``                owner-computes message passing (the
    ``pghpf``-MP comparator): exact sections move as point-to-point
    messages, no coherence at all;
``run_uniproc``                single-workstation reference run — the
    speedup denominator.

Execution is two-pass: a *functional* pass walks the program in order,
emitting per-node access traces; a *timing* pass replays those traces as
node processes against the discrete-event cluster, where the protocol
state machines, version validators and contract checks run for real.
The real numerics (vectorized NumPy) are evaluated once per program, by
:func:`repro.runtime.phases.numerics`, into a read-only record that every
backend's result shares — traces never depend on them.
"""

from repro.runtime.results import RunResult
from repro.runtime.shmem import run_shmem
from repro.runtime.msgpass import run_msgpass
from repro.runtime.uniproc import run_uniproc

__all__ = ["RunResult", "run_msgpass", "run_shmem", "run_uniproc"]
