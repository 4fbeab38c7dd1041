"""RunRequest — one content-addressable simulation cell.

A request names a program either by registry spec (``app`` + ``scale`` +
``params``, picklable, rebuilt inside pool workers) or as an inline
:class:`~repro.hpf.ast.Program` (handy in tests; runs in-process because
initializer closures generally don't pickle).  Both spellings of the same
program produce the same cache key: the key hashes the *built* program's
content, never the registry name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.apps import get_app
from repro.hpf.ast import Program
from repro.runtime.shmem import (
    ADVISORY_MODES,
    BUILD_OPTIONS,
    EXECUTE_OPTIONS,
    OPTIMIZER_RULES,
)
from repro.serve.keys import program_fingerprint
from repro.spec import OptionError, Rule, changed, check, check_bounds, opt
from repro.tempest.cluster import Cluster
from repro.tempest.config import ClusterConfig
from repro.tempest.memory import HomePolicy

__all__ = ["BACKENDS", "SHMEM_OPTIONS", "RunRequest"]

BACKENDS = ("shmem", "uniproc", "msgpass")

#: The run options, each shmem-only: uniproc and msgpass take their defaults.
SHMEM_OPTIONS = BUILD_OPTIONS + EXECUTE_OPTIONS
#: What uniproc and msgpass ignore: they take (program, config) and write no checkpoints.
_SHMEM_ONLY = (*SHMEM_OPTIONS, "config.faults.checkpoint_every")


#: :meth:`RunRequest.registry_spec` -> program fingerprint, for the life
#: of the process.
_FINGERPRINTS: dict[tuple[str, str, str], str] = {}


@dataclass(frozen=True)
class RunRequest:
    """Everything needed to (re)produce one RunResult, anywhere."""

    # -- program: registry spec or inline AST ------------------------- #
    app: str | None = None
    scale: str = opt(
        "default", "--scale", "app parameter scale", axis="scale",
        choices=("default", "paper"))
    params: tuple[tuple[str, Any], ...] = ()
    program: Program | None = None

    # -- backend + config --------------------------------------------- #
    backend: str = opt("shmem", choices=BACKENDS)

    # -- shmem run options: the functional pass's BUILD_OPTIONS and the
    # -- timing pass's EXECUTE_OPTIONS (see repro.runtime.shmem) -------- #
    optimize: bool = opt(
        False, axis="optimize", label=("opt", "unopt"),
        help="compiler-optimized communication")
    bulk: bool = opt(True, axis="bulk", help="bulk payload coalescing")
    rt_elim: bool = opt(
        False, "--rt-elim", "run-time overhead elimination", axis="rt_elim")
    pre: bool = opt(
        False, "--pre", "PRE redundant-communication elimination", axis="pre")
    advisory: str | bool = opt(False, choices=ADVISORY_MODES)
    home_policy: HomePolicy = HomePolicy.ALIGNED
    protocol: str = opt(
        "invalidate", "--protocol", "coherence protocol", axis="protocol",
        choices=tuple(sorted(Cluster.PROTOCOLS)))
    audit_each_barrier: bool = opt(
        False, "--audit", "shmem: also audit coherence at every barrier "
        "(the end-of-run audit always runs)")
    profile_phases: bool = opt(
        False, "--profile-phases", "attribute each node's time to compute / "
        "read-miss / write-miss / barrier-wait / protocol-overhead / "
        "transport-recovery buckets per parallel phase and print the "
        "breakdown table", axis="profile")
    critical_path: bool = opt(
        False, "--critical-path", "thread causal lineage through the run, "
        "walk the event dependency DAG backward from the finish and print "
        "the critical path decomposed into cost classes (sums to elapsed "
        "time exactly)", axis="profile")

    # -- the cluster (declared last: cell labels list axes in declaration
    # -- order, and read best as "<options> n=<nodes> <wire settings>") -- #
    config: ClusterConfig = field(default_factory=ClusterConfig)

    #: The rules across options (``repro.spec`` rows; docs/serve.md lists
    #: them), off-shmem first: a run that ignores an option refuses it.
    RULES = (
        Rule(_SHMEM_ONLY, lambda r: r.backend == "shmem" or not changed(r, _SHMEM_ONLY),
             "shmem-backend options; backend={0.backend!r} does not take them"),
        *OPTIMIZER_RULES,
    )

    def __post_init__(self) -> None:
        if (self.app is None) == (self.program is None):
            raise OptionError(
                ("app", "program"), "RunRequest needs exactly one of app= or program=",
                RunRequest, lead=False,
            )
        check_bounds(self)
        check(self, self.RULES)
        if isinstance(self.params, dict):
            # Accept a dict at construction; store the hashable spelling.
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))
        else:
            object.__setattr__(self, "params", tuple(sorted(self.params)))

    # ------------------------------------------------------------------ #
    def build_program(self) -> Program:
        """Instantiate the program this request names."""
        if self.program is not None:
            return self.program
        return get_app(self.app).program(self.scale, **dict(self.params))

    @property
    def picklable(self) -> bool:
        """Registry-spec requests travel to pool workers; inline ones
        carry initializer closures and must run in the parent process."""
        return self.program is None

    def registry_spec(self) -> tuple[str, str, str]:
        """``(app, scale, repr(params))``: equal for two registry requests
        that build the same program; ``repr`` keeps ``2``, ``2.0`` and
        ``True`` apart where tuple equality would not."""
        return (self.app, self.scale, repr(self.params))

    def resolved_fingerprint(self) -> str:
        """Content fingerprint of the *built* program (spec-independent).

        A registry program is a pure function of ``(app, scale, params)``
        within a process, so its fingerprint is computed once per process;
        an inline program is a mutable object and is hashed on every call.
        """
        if self.program is not None:
            return program_fingerprint(self.program)
        spec = self.registry_spec()
        found = _FINGERPRINTS.get(spec)
        if found is None:
            found = _FINGERPRINTS[spec] = program_fingerprint(self.build_program())
        return found

    # ------------------------------------------------------------------ #
    def build_options(self) -> dict:
        """The options the *functional pass* depends on — these key the
        memoized ShmemPlan (see :func:`repro.serve.keys.plan_key`)."""
        return {name: getattr(self, name) for name in BUILD_OPTIONS}

    def execute_options(self) -> dict:
        """The options only the timing pass consumes."""
        return {name: getattr(self, name) for name in EXECUTE_OPTIONS}

    def run_options(self) -> dict:
        """Every option that can influence the result (keyed)."""
        if self.backend != "shmem":
            # uniproc/msgpass take only (program, config).
            return {}
        return {**self.build_options(), **self.execute_options()}

    # ------------------------------------------------------------------ #
    def label(self) -> str:
        """Short human-readable name for tables and logs."""
        name = self.app or (self.program.name if self.program else "?")
        bits = [name, self.backend]
        if self.optimize:
            bits.append("opt")
        return "/".join(bits)

