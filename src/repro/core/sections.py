"""Regular section descriptors: strided rectangular array sections.

The paper used the Omega library "to avoid the significant implementation
effort required to build a robust RSD package"; we build the RSD package.
The sections it must represent (paper Section 4.1) are:

* contiguous ranges of the distributed last dimension, possibly strided
  (CYCLIC ownership), and
* full or shifted rectangles over the inner (non-distributed) dimensions
  ("two-dimensional sections, represented as contiguous ranges separated by
  a fixed stride").

:class:`StridedInterval` is the 1-D building block — a finite arithmetic
progression ``{lo, lo+step, ..., <=hi}`` with exact intersection (via CRT)
and difference.  :class:`Section` combines one strided interval for the
last dimension with plain intervals for the inner dimensions.

Bounds here are **concrete integers**; parametric sections (symbolic bounds
in problem size / sequential loop variables) are
:meth:`repro.core.access.RefPattern.section`, which instantiates one once
the runtime knows the bindings — mirroring the paper's deferred evaluation
of Omega-generated code fragments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["Section", "StridedInterval"]


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with a*x + b*y == g."""
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


@dataclass(frozen=True)
class StridedInterval:
    """The arithmetic progression ``lo, lo+step, ..., last`` (inclusive).

    Normalized on construction: ``hi`` is snapped down to the last actual
    member; an empty progression is canonically ``(0, -1, 1)``.
    """

    lo: int
    hi: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.hi < self.lo:
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "hi", -1)
            object.__setattr__(self, "step", 1)
        else:
            # Snap hi to the last member of the progression.
            object.__setattr__(
                self, "hi", self.lo + (self.hi - self.lo) // self.step * self.step
            )
            if self.lo == self.hi:
                object.__setattr__(self, "step", 1)

    # ------------------------------------------------------------------ #
    @staticmethod
    def empty() -> "StridedInterval":
        return StridedInterval(0, -1, 1)

    @staticmethod
    def point(v: int) -> "StridedInterval":
        return StridedInterval(v, v, 1)

    @staticmethod
    def from_range(r: range) -> "StridedInterval":
        if len(r) == 0:
            return StridedInterval.empty()
        if r.step < 1:
            raise ValueError("only ascending ranges are supported")
        return StridedInterval(r.start, r[-1], r.step)

    @property
    def is_empty(self) -> bool:
        return self.hi < self.lo

    def __len__(self) -> int:
        if self.is_empty:
            return 0
        return (self.hi - self.lo) // self.step + 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1, self.step))

    def __contains__(self, v: int) -> bool:
        return (
            not self.is_empty
            and self.lo <= v <= self.hi
            and (v - self.lo) % self.step == 0
        )

    # ------------------------------------------------------------------ #
    def shift(self, delta: int) -> "StridedInterval":
        if self.is_empty:
            return self
        return StridedInterval(self.lo + delta, self.hi + delta, self.step)

    def intersect(self, other: "StridedInterval") -> "StridedInterval":
        """Exact intersection of two arithmetic progressions (CRT)."""
        if self.is_empty or other.is_empty:
            return StridedInterval.empty()
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if hi < lo:
            return StridedInterval.empty()
        a, s = self.lo, self.step
        b, t = other.lo, other.step
        if s == 1 and t == 1:
            return StridedInterval(lo, hi)
        g, x, _ = _egcd(s, t)
        if (b - a) % g != 0:
            return StridedInterval.empty()
        lcm = s // g * t
        # One solution: a + s * x * ((b - a) // g), then normalize mod lcm.
        sol = a + s * x * ((b - a) // g)
        sol = sol + ((lo - sol) + lcm - 1) // lcm * lcm if sol < lo else sol - (sol - lo) // lcm * lcm
        if sol > hi:
            return StridedInterval.empty()
        return StridedInterval(sol, hi, lcm)

    def difference(self, other: "StridedInterval") -> list["StridedInterval"]:
        """``self \\ other`` as a small list of strided intervals.

        Exact for the cases the analysis produces (contiguous minus
        contiguous; equal-stride congruent progressions); falls back to an
        element-wise decomposition into runs otherwise.
        """
        if self.is_empty:
            return []
        hit = self.intersect(other)
        if hit.is_empty:
            return [self]
        if self.step == hit.step:
            # Congruent: remove a contiguous (in progression space) chunk.
            out = []
            if hit.lo > self.lo:
                out.append(StridedInterval(self.lo, hit.lo - self.step, self.step))
            if hit.hi < self.hi:
                out.append(StridedInterval(hit.hi + self.step, self.hi, self.step))
            return out
        # General case: enumerate and re-coalesce into maximal runs.
        keep = [v for v in self if v not in hit]
        return coalesce_points(keep)

    def __repr__(self) -> str:
        if self.is_empty:
            return "SI[]"
        if self.step == 1:
            return f"SI[{self.lo}:{self.hi}]"
        return f"SI[{self.lo}:{self.hi}:{self.step}]"


def coalesce_points(points: Sequence[int]) -> list[StridedInterval]:
    """Pack sorted distinct integers into maximal equal-stride runs."""
    out: list[StridedInterval] = []
    i = 0
    n = len(points)
    while i < n:
        if i + 1 == n:
            out.append(StridedInterval.point(points[i]))
            break
        step = points[i + 1] - points[i]
        j = i + 1
        while j + 1 < n and points[j + 1] - points[j] == step:
            j += 1
        out.append(StridedInterval(points[i], points[j], step))
        i = j + 1
    return out


@dataclass(frozen=True)
class Section:
    """A rectangular array section: inner dims × a strided last dim.

    ``inner`` holds inclusive ``(lo, hi)`` pairs for every dimension except
    the last; ``last`` is the distributed dimension's strided interval.
    A 1-D array section has ``inner == ()``.
    """

    inner: tuple[tuple[int, int], ...]
    last: StridedInterval

    def __post_init__(self) -> None:
        for lo, hi in self.inner:
            if hi < lo:
                object.__setattr__(self, "last", StridedInterval.empty())
                break

    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        return len(self.inner) + 1

    @property
    def is_empty(self) -> bool:
        return self.last.is_empty or any(hi < lo for lo, hi in self.inner)

    def count(self) -> int:
        if self.is_empty:
            return 0
        total = len(self.last)
        for lo, hi in self.inner:
            total *= hi - lo + 1
        return total

    def intersect_last(self, interval: StridedInterval) -> "Section":
        return Section(self.inner, self.last.intersect(interval))

    def difference_last(self, interval: StridedInterval) -> list["Section"]:
        """``self`` minus the columns of ``interval`` (inner dims kept).

        This is the operation the access analysis needs: the non-owner set
        is the read/write section minus the *owned columns*.
        """
        return [
            Section(self.inner, piece)
            for piece in self.last.difference(interval)
            if not piece.is_empty
        ]

    def __repr__(self) -> str:
        dims = ", ".join(f"{lo}:{hi}" for lo, hi in self.inner)
        sep = ", " if dims else ""
        return f"Section({dims}{sep}{self.last!r})"

