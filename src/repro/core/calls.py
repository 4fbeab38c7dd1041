"""IR of the run-time calls the compiler inserts around parallel loops.

Each op names the node that executes it plus its operands; ops are grouped
into *stages*, with barrier synchronization between stages (the plan's
structure encodes the ordering requirements of paper Section 4.2).  Each
op states its own replay op in ``trace()`` (``None`` when it has nothing
to do), which replay runs on the corresponding
:class:`~repro.tempest.extensions.CompilerExtensions` primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "CallOp",
    "FlushBlocks",
    "ImplicitInvalidate",
    "ImplicitWritable",
    "MkWritable",
    "Prefetch",
    "ReadyToRecv",
    "SelfInvalidate",
    "SendBlocks",
]


@dataclass(frozen=True)
class MkWritable:
    """Bring ``blocks`` writable (pipelined upgrades) at ``node``."""

    node: int
    blocks: tuple[int, ...]

    def trace(self) -> tuple | None:
        return ("mkw", self.blocks) if self.blocks else None


@dataclass(frozen=True)
class ImplicitWritable:
    """Locally set ``blocks`` ReadWrite at ``node`` without telling the
    directory.  ``memo_key`` enables the rt-elim constant-time fast path."""

    node: int
    blocks: tuple[int, ...]
    memo_key: tuple[int, int] | None = None

    def trace(self) -> tuple | None:
        return ("iw", self.blocks, self.memo_key) if self.blocks else None


@dataclass(frozen=True)
class SendBlocks:
    """``node`` ships ``blocks`` to ``dst`` as tagged data messages.

    ``purpose`` distinguishes a producer→consumer push (``"read"``) from an
    owner→writer preload before a non-owner write (``"write"``); the PRE
    pass may elide only the former.
    """

    node: int
    blocks: tuple[int, ...]
    dst: int
    bulk: bool = True
    purpose: str = "read"

    def trace(self) -> tuple | None:
        return ("send", self.blocks, self.dst, self.bulk) if self.blocks else None


@dataclass(frozen=True)
class ReadyToRecv:
    """``node`` blocks until ``count`` pushed blocks have arrived."""

    node: int
    count: int

    def trace(self) -> tuple | None:
        return ("recv", self.count) if self.count else None


@dataclass(frozen=True)
class ImplicitInvalidate:
    """``node`` drops its compiler-controlled copies of ``blocks``."""

    node: int
    blocks: tuple[int, ...]

    def trace(self) -> tuple | None:
        return ("inv", self.blocks) if self.blocks else None


@dataclass(frozen=True)
class FlushBlocks:
    """Non-owner-write epilogue: ``node`` returns ``blocks`` to ``owner``
    and invalidates them locally."""

    node: int
    blocks: tuple[int, ...]
    owner: int
    bulk: bool = True

    def trace(self) -> tuple | None:
        return ("flush", self.blocks, self.owner, self.bulk) if self.blocks else None


@dataclass(frozen=True)
class Prefetch:
    """Advisory: ``node`` issues pipelined read transactions for boundary
    ``blocks`` it is about to demand-read (paper Section 4.2's suggested
    co-operative prefetch)."""

    node: int
    blocks: tuple[int, ...]

    def trace(self) -> tuple | None:
        return ("prefetch", self.blocks) if self.blocks else None


@dataclass(frozen=True)
class SelfInvalidate:
    """Advisory: ``node`` drops its read-only boundary copies and notifies
    the homes off the critical path, sparing the next writer the
    invalidation round trip."""

    node: int
    blocks: tuple[int, ...]

    def trace(self) -> tuple | None:
        return ("selfinv", self.blocks) if self.blocks else None


CallOp = Union[
    MkWritable,
    ImplicitWritable,
    SendBlocks,
    ReadyToRecv,
    ImplicitInvalidate,
    FlushBlocks,
    Prefetch,
    SelfInvalidate,
]
