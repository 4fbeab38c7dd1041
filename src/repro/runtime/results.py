"""Run results: timing, stats, and final numerics for cross-checking."""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from repro.tempest.stats import ClusterStats

__all__ = ["RunResult"]


def _value_equal(a, b) -> bool:
    """Bitwise value equality, recursing through containers and ndarrays
    (``==`` on an ndarray yields an elementwise array, so dataclass
    equality cannot be used directly on a RunResult)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_value_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_value_equal(x, y) for x, y in zip(a, b))
        )
    return bool(a == b)


@dataclass
class RunResult:
    """Outcome of one backend run of one program.

    A result never copies its numerics.  ``arrays`` is what the run
    computed: the program's one read-only numerics record
    (:func:`repro.runtime.phases.numerics`), which a uniproc or msgpass
    result holds as is and a shmem result views through its plan (one
    plan serves many results).  Copy an array before mutating it.
    """

    program: str
    backend: str               # 'shmem' | 'shmem-opt' | 'msgpass' | 'uniproc'
    elapsed_ns: int
    stats: ClusterStats | None
    arrays: dict[str, np.ndarray]
    scalars: dict[str, float]
    #: numbers no other object holds (message-passing volume, barrier and
    #: planner counts); the run's outcome lives in ``stats``
    extra: dict = field(default_factory=dict)
    #: per-phase time-breakdown (see repro.obs.phase_breakdown);
    #: None unless the run was profiled (``run_shmem(profile_phases=True)``)
    phase_breakdown: dict | None = None
    #: exact critical-path decomposition + what-if bounds (see
    #: repro.obs.critical_path); None unless the run was analyzed
    #: (``run_shmem(critical_path=True)``) and completed
    critical_path: dict | None = None

    @property
    def completed(self) -> bool:
        """False for a *degraded* run: a channel gave up or a node died,
        and stats/arrays reflect the state at that point (see
        ``stats.failure``).  A uniproc run has no stats and cannot degrade."""
        return self.stats is None or self.stats.completed

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ns / 1e6

    @property
    def total_misses(self) -> int:
        return self.stats.total_misses if self.stats is not None else 0

    @property
    def misses_per_node(self) -> float:
        if self.stats is None:
            return 0.0
        return self.stats.avg_misses_per_node

    @property
    def comm_ms(self) -> float:
        """Average per-node communication time (paper's Table 3 metric)."""
        if self.stats is None:
            return 0.0
        return self.stats.avg_comm_ns / 1e6

    @property
    def compute_ms(self) -> float:
        if self.stats is None:
            return self.elapsed_ms
        return self.stats.avg_compute_ns / 1e6

    def speedup_over(self, uniproc: "RunResult") -> float:
        return uniproc.elapsed_ns / self.elapsed_ns

    @property
    def reliability(self) -> dict:
        """Reliable-transport repair counters; empty on a perfect wire."""
        if self.stats is None:
            return {}
        rel = self.stats.reliability_summary()
        return rel if any(rel.values()) else {}

    def exact_equal(self, other: "RunResult") -> bool:
        """True iff every field is exactly equal, ndarrays bit-for-bit.

        This is the serve layer's correctness yardstick: a result served
        from the content-addressed cache or computed in a worker process
        must be ``exact_equal`` to a direct in-process run — no
        tolerances, because the simulator is deterministic.
        """
        return all(
            _value_equal(getattr(self, f.name), getattr(other, f.name))
            for f in dataclass_fields(RunResult)
        )

    def checksums(self) -> dict[str, float]:
        """Stable per-array checksums for cross-backend comparison."""
        return {name: float(np.sum(arr)) for name, arr in sorted(self.arrays.items())}

    def assert_same_numerics(self, other: "RunResult") -> None:
        """Raise if two runs' final arrays/scalars diverge."""
        rtol = 1e-10
        if set(self.arrays) != set(other.arrays):
            raise AssertionError(
                f"array sets differ: {sorted(self.arrays)} vs {sorted(other.arrays)}"
            )
        for name in self.arrays:
            a, b = self.arrays[name], other.arrays[name]
            # Equal numerics are the norm; the tolerant check allocates
            # several full-size temporaries, so run it only on a mismatch.
            if np.array_equal(a, b, equal_nan=True):
                continue
            np.testing.assert_allclose(
                a, b, rtol=rtol,
                err_msg=f"array {name!r}: {self.backend} vs {other.backend}",
            )
        for name in self.scalars:
            a, b = self.scalars[name], other.scalars.get(name)
            if b is None or abs(a - b) > rtol * max(1.0, abs(a)):
                raise AssertionError(f"scalar {name!r}: {a} vs {b}")

    def summary(self) -> dict:
        out = {
            "program": self.program,
            "backend": self.backend,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "compute_ms": round(self.compute_ms, 3),
            "comm_ms": round(self.comm_ms, 3),
            "misses_per_node": round(self.misses_per_node, 1),
        }
        if not self.completed:
            out["completed"] = False
        out.update(self.reliability)
        out.update(self.extra)
        return out
