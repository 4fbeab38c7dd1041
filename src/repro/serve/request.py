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
from repro.tempest.cluster import Cluster
from repro.tempest.config import ClusterConfig
from repro.tempest.memory import HomePolicy

__all__ = ["BACKENDS", "RunRequest"]

BACKENDS = ("shmem", "uniproc", "msgpass")


@dataclass(frozen=True)
class RunRequest:
    """Everything needed to (re)produce one RunResult, anywhere."""

    # -- program: registry spec or inline AST ------------------------- #
    app: str | None = None
    scale: str = "default"
    params: tuple[tuple[str, Any], ...] = ()
    program: Program | None = None

    # -- backend + config --------------------------------------------- #
    backend: str = "shmem"
    config: ClusterConfig = field(default_factory=ClusterConfig)

    # -- shmem run options (mirrors run_shmem's signature) ------------- #
    optimize: bool = False
    bulk: bool = True
    rt_elim: bool = False
    pre: bool = False
    advisory: str | bool = False
    home_policy: HomePolicy = HomePolicy.ALIGNED
    check_contracts: bool = True
    protocol: str = "invalidate"
    audit: bool = True
    audit_each_barrier: bool = False
    audit_sample_prob: float = 1.0
    profile_phases: bool = False
    critical_path: bool = False

    def __post_init__(self) -> None:
        if (self.app is None) == (self.program is None):
            raise ValueError("RunRequest needs exactly one of app= or program=")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.protocol not in Cluster.PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(Cluster.PROTOCOLS)}"
            )
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

    def resolved_fingerprint(self) -> str:
        """Content fingerprint of the *built* program (spec-independent)."""
        from repro.serve.keys import program_fingerprint

        return program_fingerprint(self.build_program())

    # ------------------------------------------------------------------ #
    def run_options(self) -> dict:
        """Every option that can influence the result (keyed)."""
        if self.backend != "shmem":
            # uniproc/msgpass take only (program, config).
            return {}
        return {
            "optimize": self.optimize,
            "bulk": self.bulk,
            "rt_elim": self.rt_elim,
            "pre": self.pre,
            "advisory": self.advisory,
            "home_policy": self.home_policy,
            "check_contracts": self.check_contracts,
            "protocol": self.protocol,
            "audit": self.audit,
            "audit_each_barrier": self.audit_each_barrier,
            "audit_sample_prob": self.audit_sample_prob,
            "profile_phases": self.profile_phases,
            "critical_path": self.critical_path,
        }

    def build_options(self) -> dict:
        """The subset of options the *functional pass* depends on — these
        key the memoized ShmemPlan (see :func:`repro.serve.keys.plan_key`)."""
        return {
            "optimize": self.optimize,
            "bulk": self.bulk,
            "rt_elim": self.rt_elim,
            "pre": self.pre,
            "advisory": self.advisory,
            "home_policy": self.home_policy,
            "check_contracts": self.check_contracts,
        }

    # ------------------------------------------------------------------ #
    def label(self) -> str:
        """Short human-readable name for tables and logs."""
        name = self.app or (self.program.name if self.program else "?")
        bits = [name, self.backend]
        if self.optimize:
            bits.append("opt")
        return "/".join(bits)
