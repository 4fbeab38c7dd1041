"""Crash-safe content-addressed on-disk store for results and plans.

Layout (under one root directory)::

    <root>/results/<k0k1>/<key>.bin     finished RunResults
    <root>/plans/<k0k1>/<key>.bin       memoized ShmemPlans (structure only)
    <root>/numerics/<k0k1>/<key>.bin    each program's numerics record
    <root>/blobs/<d0d1>/<sha256>.bin    array buffers, named by content
    <root>/quarantine/                  files that failed verification

Entry format — a self-verifying frame around a pickle whose large
buffers live in ``blobs/``::

    MAGIC (12 bytes)  b"REPROSERVE3\\n"
    LENGTH (8 bytes)  big-endian payload byte count
    PAYLOAD           NBLOBS (4 bytes, big-endian)
                      NBLOBS x (32-byte SHA-256 + 1 byte: 1 if read-only),
                      one per out-of-band buffer
                      BODY: pickle protocol 5 stream of the object
    DIGEST (32 bytes) sha256(PAYLOAD)

Every contiguous buffer of at least 64 KiB the pickler meets (in
practice: a program's arrays) is taken out of band and written once as a
blob named by its SHA-256; smaller and non-contiguous buffers stay in
the body.  A result's final arrays are byte-identical to its program's
numerics record, which every backend and plan of the program shares, so
an entry is a few KB and each distinct array is on disk once.
Blobs are therefore shared between entries: nothing may delete one
without knowing that no entry still names it.

Durability discipline:

* **Atomic publication.**  Entries and blobs are written to a uniquely
  named ``*.tmp`` file in the destination directory and ``os.replace``d
  into place — readers see either no file or a complete one, never a
  torn write.  A blob is published before the entry that names it, and
  is not rewritten when a file of its name exists.  Concurrent writers
  of the same key are harmless: both encode the same deterministic
  object and the last rename wins.
* **Verified reads.**  ``get`` checks the entry's magic, length and
  digest, then that every blob it names hashes to its own name, and only
  then unpickles.  *Any* failure — short file, bit rot, torn concurrent
  copy, an entry in an older format (``REPROSERVE1``/``2``), a missing or
  altered blob, an unpicklable body — is a cache miss: the offending
  entry (and blob) is moved to ``quarantine/`` for post-mortems and
  ``None`` is returned so the caller recomputes.  A poisoned cache can
  therefore slow a sweep down but can never change its output.
* **Lent read-only arrays, private writable ones.**  The table records
  whether each buffer was read-only when it was stored.  A read-only
  buffer is *lent* from one verified copy per process, whichever handle
  read it; a writable one is a fresh private ``bytearray``.  The rules
  are in docs/serve.md, "Read-only arrays are lent".
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["ResultStore", "StoreStats"]

_MAGIC = b"REPROSERVE3\n"
_LEN_BYTES = 8
_COUNT_BYTES = 4
_DIGEST_BYTES = 32
#: one blob-table row: the buffer's SHA-256, then 1 if it was read-only
_ROW_BYTES = _DIGEST_BYTES + 1
_HEADER = len(_MAGIC) + _LEN_BYTES
#: buffers at least this large leave the pickle body for ``blobs/``
_BLOB_MIN_BYTES = 64 * 1024

#: digest -> the verified read-only bytes every borrower in this process
#: shares, whichever handle (session, plan cache, pool worker) read them
_LENT: weakref.WeakValueDictionary[bytes, np.ndarray] = weakref.WeakValueDictionary()
#: guards ``_LENT`` and every handle's ``stats``: a session reads from its
#: pool's callback thread as well as its own
_LOCK = threading.Lock()


def _fresh_lock() -> None:
    """Give a forked child its own lock: a parent thread that held it at
    the fork does not exist in the child.  The inherited ``_LENT`` stays
    valid, since its bytes are immutable and named by their SHA-256."""
    global _LOCK
    _LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock)


class StoreStats:
    """Counters for one store handle (hits/misses/corruption/blob dedup,
    and blob references lent from memory instead of read from disk)."""

    __slots__ = (
        "hits", "misses", "writes", "corrupt", "blob_writes", "blob_reuses",
        "blob_lends",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class ResultStore:
    """Content-addressed store; safe under concurrent readers and writers
    (processes, and threads sharing one handle)."""

    RESULTS = "results"
    PLANS = "plans"
    NUMERICS = "numerics"
    BLOBS = "blobs"

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()

    # ------------------------------------------------------------------ #
    def _path(self, kind: str, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed store key {key!r}")
        return self.root / kind / key[:2] / f"{key}.bin"

    def contains(self, kind: str, key: str) -> bool:
        return self._path(kind, key).exists()

    # ------------------------------------------------------------------ #
    def put(self, kind: str, key: str, obj: Any) -> Path:
        """Serialize ``obj`` under ``key``; atomic against readers."""
        path = self._path(kind, key)
        blobs: list[bytes] = []

        def in_band(buffer: pickle.PickleBuffer) -> bool:
            raw = buffer.raw()
            if raw.nbytes < _BLOB_MIN_BYTES:
                return True
            blobs.append(self._put_blob(raw) + bytes([raw.readonly]))
            return False

        body = pickle.dumps(obj, protocol=5, buffer_callback=in_band)
        table = len(blobs).to_bytes(_COUNT_BYTES, "big") + b"".join(blobs)
        digest = hashlib.sha256(table)
        digest.update(body)
        length = (len(table) + len(body)).to_bytes(_LEN_BYTES, "big")
        self._publish(path, _MAGIC + length + table, body, digest.digest())
        self._count("writes")
        return path

    def _put_blob(self, raw: memoryview) -> bytes:
        """Publish one buffer under its SHA-256 unless a file of that
        name is already there; returns the digest."""
        digest = hashlib.sha256(raw).digest()
        path = self._path(self.BLOBS, digest.hex())
        if path.exists():
            self._count("blob_reuses")
        else:
            self._publish(path, raw)
            self._count("blob_writes")
        return digest

    def _count(self, *names: str) -> None:
        with _LOCK:
            for name in names:
                setattr(self.stats, name, getattr(self.stats, name) + 1)

    @staticmethod
    def _publish(path: Path, *pieces) -> None:
        """Write ``pieces`` to a temporary sibling and rename it to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{path.stem[:12]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                for piece in pieces:
                    fh.write(piece)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------ #
    def get(self, kind: str, key: str) -> Any | None:
        """Load and verify the entry for ``key``; ``None`` on any failure."""
        path = self._path(kind, key)
        try:
            data = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        payload = self._verify(data)
        if payload is None:
            return self._corrupt(path, "bad-frame")
        table, body = payload
        buffers = [self._get_blob(digest, readonly) for digest, readonly in table]
        if any(buffer is None for buffer in buffers):
            return self._corrupt(path, "bad-blob")
        try:
            obj = pickle.loads(body, buffers=buffers)
        except Exception:
            # Digests matched but the body will not unpickle — written by
            # an incompatible code version, or pickled classes changed shape.
            return self._corrupt(path, "bad-pickle")
        self._count("hits")
        return obj

    def _get_blob(self, digest: bytes, readonly: bool) -> np.ndarray | bytearray | None:
        """The blob named ``digest``: lent from the process's table if
        ``readonly``, else in a fresh buffer; ``None`` (and the file
        quarantined) unless its content hashes to its name."""
        with _LOCK:
            lent = _LENT.get(digest)
            if lent is not None and readonly:
                self.stats.blob_lends += 1
                return lent
        if lent is not None:
            return bytearray(lent)
        path = self._path(self.BLOBS, digest.hex())
        try:
            if readonly:
                # immutable ``bytes``: nothing reached through ``.base`` of
                # a lent array can write it
                buffer = path.read_bytes()
            else:
                with open(path, "rb", buffering=0) as fh:
                    buffer = bytearray(os.fstat(fh.fileno()).st_size)
                    fh.readinto(buffer)
        except OSError:
            return None
        if hashlib.sha256(buffer).digest() != digest:
            self._quarantine(path, "bad-blob")
            return None
        if not readonly:
            return buffer
        with _LOCK:
            return _LENT.setdefault(digest, np.frombuffer(buffer, np.uint8))

    # ------------------------------------------------------------------ #
    @staticmethod
    def _verify(data: bytes) -> tuple[list[tuple[bytes, bool]], memoryview] | None:
        """``(blob table, body)`` when the frame is intact, else ``None``;
        the table lists ``(digest, readonly)`` per out-of-band buffer."""
        if len(data) < _HEADER + _COUNT_BYTES + _DIGEST_BYTES:
            return None
        if data[: len(_MAGIC)] != _MAGIC:
            return None
        length = int.from_bytes(data[len(_MAGIC) : _HEADER], "big")
        if len(data) != _HEADER + length + _DIGEST_BYTES:
            return None
        payload = memoryview(data)[_HEADER : _HEADER + length]
        if hashlib.sha256(payload).digest() != data[_HEADER + length :]:
            return None
        count = int.from_bytes(payload[:_COUNT_BYTES], "big")
        table_end = _COUNT_BYTES + count * _ROW_BYTES
        if table_end > length:
            return None
        table = [
            (bytes(payload[at : at + _DIGEST_BYTES]), bool(payload[at + _DIGEST_BYTES]))
            for at in range(_COUNT_BYTES, table_end, _ROW_BYTES)
        ]
        return table, payload[table_end:]

    def _corrupt(self, path: Path, reason: str) -> None:
        """Account for an entry that failed verification: a counted miss."""
        self._quarantine(path, reason)
        self._count("corrupt", "misses")
        return None

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad file aside; never raises (recompute matters more)."""
        qdir = self.root / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            dest = qdir / f"{path.stem}.{reason}.{os.getpid()}"
            os.replace(path, dest)
        except OSError:
            # Lost a race with another process quarantining the same file,
            # or the filesystem is read-only; either way the caller still
            # just recomputes.
            try:
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    def quarantined(self) -> list[Path]:
        qdir = self.root / "quarantine"
        if not qdir.is_dir():
            return []
        return sorted(p for p in qdir.iterdir() if p.is_file())

    def entries(self, kind: str) -> list[Path]:
        kdir = self.root / kind
        if not kdir.is_dir():
            return []
        return sorted(kdir.glob("*/*.bin"))
