"""Crash-safety tests for the on-disk store.

The store's one inviolable property: a poisoned cache can cost time but
never correctness.  Every corruption mode — truncation (kill mid-write of
a non-atomic copy), bit rot, wrong magic, trailing garbage, a frame whose
digest checks but whose body won't unpickle, an entry in a previous
frame format, a blob that is short, altered, gone or holds other bytes —
must be detected on read, quarantined, and answered with ``None`` so the
caller recomputes.  A full disk or a killed writer must leave nothing a
reader takes for an entry, and lending a read-only blob to many gets must
never let a writable array share its memory.
"""

import errno
import gc
import hashlib
import itertools
import multiprocessing
import os
import pickle
import signal
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.serve.store as store_module
from repro.runtime.phases import _frozen
from repro.runtime.shmem import build_shmem_plan, execute_shmem_plan
from repro.serve import ResultStore, ServeSession
from repro.serve.runner import execute_request
from repro.serve.store import _BLOB_MIN_BYTES, _HEADER, _MAGIC
from repro.tempest.config import small_config

from tests.serve.conftest import jacobi_request


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


KEY = "ab" * 32
OTHER = "cd" * 32


def frame(payload: bytes, magic: bytes = _MAGIC) -> bytes:
    """A well-formed frame around ``payload``, built by hand."""
    return (
        magic
        + len(payload).to_bytes(8, "big")
        + payload
        + hashlib.sha256(payload).digest()
    )


def plant(store, key: str, data: bytes):
    path = store._path(ResultStore.RESULTS, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def big_array(fill: float = 0.0) -> np.ndarray:
    """Exactly the smallest buffer that leaves the entry for ``blobs/``."""
    return np.arange(_BLOB_MIN_BYTES // 8, dtype=np.float64) + fill


_FILLS = itertools.count(1000)


def unique_fill() -> float:
    """A fill no other array in the process holds.  Lending is per
    process, so a test that counts lends or reads the table must own
    its digests: another test's live borrower would otherwise move it."""
    return float(next(_FILLS))


UNPICKLED = []


def _trip():
    UNPICKLED.append("tripped")


class Tripwire:
    """Records in ``UNPICKLED`` if anything ever unpickles it."""

    def __reduce__(self):
        return (_trip, ())


class TestRoundtrip:
    def test_put_get(self, store):
        obj = {"stats": [1, 2, 3], "label": "x"}
        store.put(ResultStore.RESULTS, KEY, obj)
        assert store.get(ResultStore.RESULTS, KEY) == obj
        assert store.stats.writes == 1 and store.stats.hits == 1

    def test_missing_is_miss(self, store):
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert store.stats.misses == 1 and store.stats.corrupt == 0

    def test_kinds_are_separate_namespaces(self, store):
        store.put(ResultStore.RESULTS, KEY, "result")
        store.put(ResultStore.PLANS, KEY, "plan")
        assert store.get(ResultStore.RESULTS, KEY) == "result"
        assert store.get(ResultStore.PLANS, KEY) == "plan"

    def test_put_overwrites(self, store):
        store.put(ResultStore.RESULTS, KEY, "old")
        store.put(ResultStore.RESULTS, KEY, "new")
        assert store.get(ResultStore.RESULTS, KEY) == "new"

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ValueError, match="malformed"):
            store.get(ResultStore.RESULTS, "../../etc/passwd")
        with pytest.raises(ValueError):
            store.put(ResultStore.RESULTS, "", "x")

    def test_no_tmp_files_left_behind(self, store):
        store.put(ResultStore.RESULTS, KEY, list(range(1000)))
        leftovers = [
            p for p in store.root.rglob("*") if p.is_file() and p.suffix != ".bin"
        ]
        assert leftovers == []


class TestCorruption:
    def _entry(self, store, obj="payload"):
        path = store.put(ResultStore.RESULTS, KEY, obj)
        return path, path.read_bytes()

    @pytest.mark.parametrize("cut", [0, 5, _HEADER - 1, _HEADER + 3, -1])
    def test_truncated_entry_quarantined_and_recomputable(self, store, cut):
        path, data = self._entry(store)
        path.write_bytes(data[:cut] if cut >= 0 else data[:-1])
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert store.stats.corrupt == 1
        assert not path.exists()
        assert len(store.quarantined()) == 1
        # Recompute-and-republish works over the quarantined slot.
        store.put(ResultStore.RESULTS, KEY, "fresh")
        assert store.get(ResultStore.RESULTS, KEY) == "fresh"

    def test_bit_flip_in_payload_detected(self, store):
        path, data = self._entry(store)
        flipped = bytearray(data)
        flipped[_HEADER + 2] ^= 0x40
        path.write_bytes(bytes(flipped))
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert store.stats.corrupt == 1

    def test_bad_magic_detected(self, store):
        path, data = self._entry(store)
        path.write_bytes(b"NOTAMAGICXX\n" + data[len(_MAGIC):])
        assert store.get(ResultStore.RESULTS, KEY) is None

    def test_trailing_garbage_detected(self, store):
        path, data = self._entry(store)
        path.write_bytes(data + b"junk")
        assert store.get(ResultStore.RESULTS, KEY) is None

    def test_torn_concurrent_copy_detected(self, store):
        # Two interleaved half-frames — what a non-atomic concurrent write
        # would produce (the real writer can't, thanks to os.replace).
        path, data = self._entry(store)
        other = store.put(ResultStore.RESULTS, OTHER, "zzz").read_bytes()
        path.write_bytes(data[: len(data) // 2] + other[len(other) // 2 :])
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert store.stats.corrupt == 1

    def test_valid_frame_bad_pickle_quarantined(self, store):
        # an intact frame naming no blobs, whose body is not a pickle
        plant(store, KEY, frame((0).to_bytes(4, "big") + b"this is not a pickle"))
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert store.stats.corrupt == 1
        assert any("bad-pickle" in q.name for q in store.quarantined())

    def test_blob_table_longer_than_payload_detected(self, store):
        plant(store, KEY, frame((7).to_bytes(4, "big") + b"\x00" * 40))
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert any("bad-frame" in q.name for q in store.quarantined())

    def test_v1_frame_is_a_miss_and_never_unpickled(self, store):
        payload = pickle.dumps(Tripwire(), protocol=4)
        path = plant(store, KEY, frame(payload, magic=b"REPROSERVE1\n"))
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert UNPICKLED == []
        pickle.loads(payload)  # the wire is live: unpickling does trip it
        assert UNPICKLED.pop() == "tripped"
        assert store.stats.corrupt == 1 and store.stats.misses == 1
        assert not path.exists()
        assert [q.name.split(".")[1] for q in store.quarantined()] == ["bad-frame"]
        store.put(ResultStore.RESULTS, KEY, "fresh")
        assert store.get(ResultStore.RESULTS, KEY) == "fresh"

    def test_v2_frame_is_a_miss_and_never_unpickled(self, store):
        # an intact entry of the previous format: no read-only flags
        payload = (0).to_bytes(4, "big") + pickle.dumps(Tripwire(), protocol=5)
        path = plant(store, KEY, frame(payload, magic=b"REPROSERVE2\n"))
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert UNPICKLED == []
        assert store.stats.corrupt == 1 and not path.exists()
        assert [q.name.split(".")[1] for q in store.quarantined()] == ["bad-frame"]

    def test_empty_file_detected(self, store):
        path, _ = self._entry(store)
        path.write_bytes(b"")
        assert store.get(ResultStore.RESULTS, KEY) is None


def blob_truncated(path):
    path.write_bytes(path.read_bytes()[:-1])


def blob_bit_flipped(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def blob_missing(path):
    path.unlink()


def blob_under_wrong_name(path):
    # a well-formed blob of the right length: some other array's bytes
    path.write_bytes(big_array(fill=1.0).tobytes())


class TestBlobs:
    def test_large_buffer_leaves_the_entry(self, store):
        obj = {"c": big_array(), "f": np.asfortranarray(big_array(1.0).reshape(64, -1))}
        path = store.put(ResultStore.RESULTS, KEY, obj)
        blobs = store.entries(ResultStore.BLOBS)
        assert sorted(b.stem for b in blobs) == sorted(
            hashlib.sha256(a.tobytes(order="A")).hexdigest() for a in obj.values()
        )
        assert path.stat().st_size < 1024
        assert store.stats.blob_writes == 2 and store.stats.blob_reuses == 0
        back = store.get(ResultStore.RESULTS, KEY)
        for name, arr in obj.items():
            assert np.array_equal(back[name], arr)
            assert back[name].flags.f_contiguous == arr.flags.f_contiguous

    def test_small_and_strided_buffers_stay_in_band(self, store):
        small = big_array()[:-1]
        strided = np.concatenate([big_array(), big_array()])[::2]
        assert strided.nbytes >= _BLOB_MIN_BYTES and not strided.flags.contiguous
        obj = {"small": small.copy(), "strided": strided}
        store.put(ResultStore.RESULTS, KEY, obj)
        assert store.entries(ResultStore.BLOBS) == []
        assert store.stats.blob_writes == 0
        back = store.get(ResultStore.RESULTS, KEY)
        assert np.array_equal(back["small"], small)
        assert np.array_equal(back["strided"], strided)

    def test_equal_buffers_are_written_once(self, store):
        store.put(ResultStore.RESULTS, KEY, {"a": big_array(), "b": big_array()})
        store.put(ResultStore.PLANS, OTHER, [big_array()])
        assert len(store.entries(ResultStore.BLOBS)) == 1
        stats = store.stats.as_dict()
        assert (stats["blob_writes"], stats["blob_reuses"]) == (1, 2)
        back = store.get(ResultStore.RESULTS, KEY)
        assert not np.shares_memory(back["a"], back["b"])

    def test_each_get_returns_private_writable_arrays(self, store):
        store.put(ResultStore.RESULTS, KEY, {"a": big_array()})
        first = store.get(ResultStore.RESULTS, KEY)["a"]
        second = store.get(ResultStore.RESULTS, KEY)["a"]
        assert first.flags.writeable and second.flags.writeable
        assert not np.shares_memory(first, second)
        first[:] = -1.0
        assert np.array_equal(second, big_array())
        assert np.array_equal(store.get(ResultStore.RESULTS, KEY)["a"], big_array())

    @pytest.mark.parametrize(
        "damage",
        [blob_truncated, blob_bit_flipped, blob_missing, blob_under_wrong_name],
    )
    def test_damaged_blob_quarantined_and_recomputable(self, store, damage):
        obj = {"a": big_array(), "note": "x"}
        path = store.put(ResultStore.RESULTS, KEY, obj)
        [blob] = store.entries(ResultStore.BLOBS)
        damage(blob)
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert store.stats.corrupt == 1 and store.stats.misses == 1
        assert not path.exists() and not blob.exists()
        reasons = sorted(q.name.split(".")[1] for q in store.quarantined())
        assert reasons == ["bad-blob"] * (1 if damage is blob_missing else 2)
        # Recompute-and-republish writes the blob again.
        store.put(ResultStore.RESULTS, KEY, obj)
        assert store.stats.blob_writes == 2
        back = store.get(ResultStore.RESULTS, KEY)
        assert np.array_equal(back["a"], obj["a"]) and back["note"] == "x"

    def test_numerics_and_result_share_blobs_and_a_plan_names_none(self, store):
        cfg = small_config()
        program = jacobi_request(cfg, params={"n": 128, "iters": 1}).build_program()
        plan = build_shmem_plan(program, cfg)
        result = execute_shmem_plan(plan, cfg)
        store.put(ResultStore.PLANS, KEY, plan)
        assert store.entries(ResultStore.BLOBS) == []
        store.put(ResultStore.NUMERICS, KEY, plan.numerics)
        assert store.stats.blob_reuses == 0
        entry = store.put(ResultStore.RESULTS, OTHER, result)
        assert store.stats.blob_reuses == len(result.arrays) > 0
        distinct = {
            hashlib.sha256(a.tobytes(order="A")).hexdigest()
            for a in (*plan.numerics.arrays.values(), *result.arrays.values())
        }
        assert {b.stem for b in store.entries(ResultStore.BLOBS)} == distinct
        assert entry.stat().st_size < _BLOB_MIN_BYTES
        assert store.get(ResultStore.RESULTS, OTHER).exact_equal(result)


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@pytest.fixture
def served(store):
    """A jacobi numerics record under ``KEY`` and the shmem result replayed
    from its plan under ``OTHER``: the same digests, both stored read-only.
    The record is shifted by a :func:`unique_fill`, so no other test holds
    its digests."""
    cfg = small_config()
    program = jacobi_request(cfg, params={"n": 128, "iters": 1}).build_program()
    plan = build_shmem_plan(program, cfg)
    fill, record = unique_fill(), plan.numerics
    plan.numerics = _frozen(
        {name: arr + fill for name, arr in record.arrays.items()}, record.scalars
    )
    result = execute_shmem_plan(plan, cfg)
    store.put(ResultStore.NUMERICS, KEY, plan.numerics)
    store.put(ResultStore.RESULTS, OTHER, result)
    return plan.numerics, result


class TestLending:
    """Read-only arrays are lent from one verified copy per process,
    whichever handle reads them; writable arrays stay private to each
    ``get``."""

    def test_a_numerics_record_is_lent_with_its_result(self, store, served):
        record, result = served
        first = store.get(ResultStore.RESULTS, OTHER)
        second = store.get(ResultStore.RESULTS, OTHER)
        assert store.stats.blob_lends == len(result.arrays) > 0
        got = store.get(ResultStore.NUMERICS, KEY)
        # the record names the same read-only digests: lent, not read again
        assert store.stats.blob_lends == 2 * len(result.arrays)
        assert first.exact_equal(result) and second.exact_equal(result)
        assert dict(got.scalars) == dict(record.scalars)
        for name, arr in got.arrays.items():
            assert np.array_equal(arr, record.arrays[name])
            assert arr.flags.f_contiguous
            assert np.shares_memory(first.arrays[name], second.arrays[name])
            assert np.shares_memory(arr, first.arrays[name])
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flags.writeable = True
            assert not np.shares_memory(arr, record.arrays[name])

    def test_a_blob_damaged_while_lent_leaves_the_result_intact(self, store, served):
        _, result = served
        live = store.get(ResultStore.RESULTS, OTHER)
        for blob in store.entries(ResultStore.BLOBS):
            blob_bit_flipped(blob)
        assert live.exact_equal(result)
        # a borrower lives, so the next get is lent the verified copy
        assert store.get(ResultStore.RESULTS, OTHER).exact_equal(result)
        assert store.stats.corrupt == 0

    def test_the_table_dies_with_its_last_borrower(self, store):
        store.put(ResultStore.RESULTS, KEY, {"a": read_only(big_array(unique_fill()))})
        [blob] = store.entries(ResultStore.BLOBS)
        digest = bytes.fromhex(blob.stem)
        first = store.get(ResultStore.RESULTS, KEY)
        second = store.get(ResultStore.RESULTS, KEY)
        assert np.shares_memory(first["a"], second["a"])
        assert digest in store_module._LENT
        blob_bit_flipped(blob)
        del first, second
        gc.collect()
        assert digest not in store_module._LENT
        # nothing is lent any more, so the damage is read, and caught
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert store.stats.corrupt == 1
        assert sorted(q.name.split(".")[1] for q in store.quarantined()) == [
            "bad-blob", "bad-blob",
        ]

    def test_stores_over_different_directories_lend_one_copy(self, tmp_path):
        arr = read_only(big_array(unique_fill()))
        one, two = ResultStore(tmp_path / "one"), ResultStore(tmp_path / "two")
        for store in (one, two):
            store.put(ResultStore.RESULTS, KEY, {"a": arr})
        first = one.get(ResultStore.RESULTS, KEY)["a"]
        second = two.get(ResultStore.RESULTS, KEY)["a"]
        assert np.array_equal(second, arr) and np.shares_memory(first, second)
        assert (one.stats.blob_lends, two.stats.blob_lends) == (0, 1)

    def test_a_blob_damaged_while_another_store_lends_it(self, tmp_path):
        arr = read_only(big_array(unique_fill()))
        one, two = ResultStore(tmp_path / "one"), ResultStore(tmp_path / "two")
        for store in (one, two):
            store.put(ResultStore.RESULTS, KEY, {"a": arr})
        borrowed = one.get(ResultStore.RESULTS, KEY)["a"]
        [blob] = two.entries(ResultStore.BLOBS)
        blob_bit_flipped(blob)
        # the other store's borrower lives, so the damage goes unread
        lent = two.get(ResultStore.RESULTS, KEY)["a"]
        assert np.array_equal(lent, arr) and np.shares_memory(lent, borrowed)
        assert two.stats.corrupt == 0
        del borrowed, lent
        gc.collect()
        assert bytes.fromhex(blob.stem) not in store_module._LENT
        assert two.get(ResultStore.RESULTS, KEY) is None
        assert two.stats.corrupt == 1
        assert sorted(q.name.split(".")[1] for q in two.quarantined()) == [
            "bad-blob", "bad-blob",
        ]
        # the first store's copy of the blob was never damaged
        assert np.array_equal(one.get(ResultStore.RESULTS, KEY)["a"], arr)
        assert one.stats.corrupt == 0

    def test_a_second_session_is_lent_the_first_session_s_arrays(
        self, store_dir, monkeypatch
    ):
        cells = [
            jacobi_request(small_config(), params={"n": 128, "iters": 1}, optimize=opt)
            for opt in (False, True)
        ]
        # pooled: the session reads each result back through its handle
        with ServeSession(jobs=2, cache_dir=store_dir) as first:
            cold = first.run_batch(cells)
        read = []
        real_read_bytes, real_open = Path.read_bytes, open

        def read_bytes(path):
            read.append(path)
            return real_read_bytes(path)

        def opened(path, *args, **kwargs):
            read.append(Path(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        monkeypatch.setattr(store_module, "open", opened, raising=False)
        with ServeSession(cache_dir=store_dir) as second:
            warm = second.run_batch(cells)
            stats = second.store.stats.as_dict()
        monkeypatch.undo()
        assert [cell.source for cell in warm] == ["cache", "cache"]
        assert read and not [p for p in read if ResultStore.BLOBS in p.parts]
        entries = [second.store._path(ResultStore.RESULTS, cell.key) for cell in warm]
        lendable = sum(
            readonly
            for entry in entries
            for _, readonly in ResultStore._verify(entry.read_bytes())[0]
        )
        assert stats["blob_lends"] == lendable == 2 * len(cold[0].result.arrays) > 0
        assert stats["hits"] == 2 and stats["corrupt"] == 0
        for was, now in zip(cold, warm):
            assert now.result.exact_equal(was.result)
            for name, arr in now.result.arrays.items():
                assert np.shares_memory(arr, was.result.arrays[name])

    def test_a_worker_forked_while_the_lock_is_held_does_not_deadlock(self, store_dir):
        cells = [jacobi_request(small_config(), optimize=opt) for opt in (False, True)]
        held, release = threading.Event(), threading.Event()

        def holder():
            with store_module._LOCK:
                held.set()
                release.wait(timeout=60)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(timeout=60)
        with ServeSession(jobs=2, cache_dir=store_dir) as session:
            pool = session._ensure_pool()
            try:
                # the workers fork now, while another thread holds the lock
                pool.submit(os.getpid).result(timeout=60)
            finally:
                release.set()
                thread.join(timeout=60)
            futures = [session.submit(cell) for cell in cells]
            try:
                served = [f.result(timeout=60) for f in futures]
            except TimeoutError:
                for worker in pool._processes.values():
                    worker.kill()
                raise
        for cell in served:
            assert cell.where == "pool"
            assert cell.result.exact_equal(execute_request(cell.request))

    def test_threads_sharing_a_handle_get_exact_results(self, store):
        obj = {"lent": read_only(big_array(unique_fill())), "private": big_array(1.0)}
        store.put(ResultStore.RESULTS, KEY, obj)
        warm = store.get(ResultStore.RESULTS, KEY)
        # more threads than cores, switching as often as the interpreter
        # allows, so a lost counter update would show
        gets, threads = 20, (os.cpu_count() or 1) + 2
        start = threading.Barrier(threads)
        got = [[] for _ in range(threads)]

        def reader(out):
            start.wait(timeout=60)
            for _ in range(gets):
                out.append(store.get(ResultStore.RESULTS, KEY))

        workers = [threading.Thread(target=reader, args=(out,)) for out in got]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        served = [back for out in got for back in out]
        assert len(served) == threads * gets
        for back in served:
            assert np.array_equal(back["lent"], obj["lent"])
            assert np.array_equal(back["private"], obj["private"])
            assert np.shares_memory(back["lent"], warm["lent"])
            assert back["private"].flags.writeable
            assert not np.shares_memory(back["private"], warm["private"])
        stats = store.stats.as_dict()
        assert stats["hits"] == threads * gets + 1
        assert stats["blob_lends"] == threads * gets
        assert (stats["misses"], stats["corrupt"]) == (0, 0)

    def test_a_pool_result_that_misses_its_read_back_is_handed_back(
        self, store_dir, monkeypatch
    ):
        req = jacobi_request(small_config(), params={"n": 128, "iters": 1})
        direct = execute_request(req)
        with ServeSession(jobs=2, cache_dir=store_dir) as sess:
            real, dropped = sess.store.get, []

            def flaky(kind, key):
                # the first read of a published entry misses, as if it had
                # been damaged between the worker's publish and this read
                if not dropped and sess.store.contains(kind, key):
                    dropped.append(key)
                    return None
                return real(kind, key)

            monkeypatch.setattr(sess.store, "get", flaky)
            served = sess.run(req)
            stats = sess.stats()
        assert dropped == [served.key]
        assert (served.source, served.where) == ("computed", "pool")
        assert served.result.exact_equal(direct)
        assert stats["cache_hits"] == 0 and stats["hit_rate"] == 0.0
        # the session put the numerics entry, which the first worker read;
        # it published the plan and result entries, and the hand-back
        # worker found the result
        assert stats["store"]["writes"] == 3 and stats["store"]["hits"] == 2


class TestBoundaries:
    @pytest.mark.parametrize("failing", ["blob", "entry"])
    def test_a_full_disk_mid_publish_leaves_no_trace(self, store, monkeypatch, failing):
        store.put(ResultStore.RESULTS, OTHER, {"a": big_array(2.0), "note": "kept"})
        real, opened = os.fdopen, []

        def disk_full():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fdopen(fd, mode):
            opened.append(mode)
            fh = real(fd, mode)
            # the blob is published first, the entry second
            if len(opened) == ("blob", "entry").index(failing) + 1:
                return BrokenFile(fh, disk_full)
            return fh

        monkeypatch.setattr(store_module.os, "fdopen", fdopen)
        with pytest.raises(OSError) as e:
            store.put(ResultStore.RESULTS, KEY, {"a": big_array(), "note": "x"})
        monkeypatch.undo()
        assert e.value.errno == errno.ENOSPC
        assert list(store.root.rglob("*.tmp")) == []
        assert not store.contains(ResultStore.RESULTS, KEY)
        assert store.get(ResultStore.RESULTS, KEY) is None
        back = store.get(ResultStore.RESULTS, OTHER)
        assert np.array_equal(back["a"], big_array(2.0)) and back["note"] == "kept"
        assert store.stats.corrupt == 0

    def test_a_writer_killed_mid_blob_leaves_only_a_tmp_file(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        writer = ctx.Process(target=_die_mid_blob_write, args=(str(tmp_path),))
        writer.start()
        writer.join(timeout=120)
        assert writer.exitcode == -signal.SIGKILL
        [left] = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert left.suffix == ".tmp" and left.parent.parent.name == ResultStore.BLOBS
        store = ResultStore(tmp_path)
        assert store.get(ResultStore.RESULTS, KEY) is None
        assert store.stats.corrupt == 0
        obj = {"a": big_array(), "note": "x"}
        store.put(ResultStore.RESULTS, KEY, obj)
        back = store.get(ResultStore.RESULTS, KEY)
        assert np.array_equal(back["a"], obj["a"]) and back["note"] == "x"


class BrokenFile:
    """A file that takes half of its first write, then calls ``fail``."""

    def __init__(self, fh, fail):
        self.fh, self.fail = fh, fail

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, piece):
        self.fh.write(bytes(piece[: len(piece) // 2]))
        self.fh.flush()
        self.fail()


def _die_mid_blob_write(root: str) -> None:
    """Start a put, and SIGKILL this process halfway through its blob."""
    real = os.fdopen

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    store_module.os.fdopen = lambda fd, mode: BrokenFile(real(fd, mode), die)
    ResultStore(root).put(ResultStore.RESULTS, KEY, {"a": big_array(), "note": "x"})


def _put_repeatedly(root: str, start) -> None:
    store = ResultStore(root)
    start.wait(timeout=60)
    for _ in range(25):
        store.put(ResultStore.RESULTS, KEY, {"a": big_array(), "note": "x"})


def test_concurrent_puts_of_one_key_leave_one_verifiable_entry(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(3)
    writers = [
        ctx.Process(target=_put_repeatedly, args=(str(tmp_path), start))
        for _ in range(3)
    ]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=120)
    assert [w.exitcode for w in writers] == [0, 0, 0]
    store = ResultStore(tmp_path)
    assert len(store.entries(ResultStore.RESULTS)) == 1
    assert len(store.entries(ResultStore.BLOBS)) == 1
    assert [p for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".bin"] == []
    back = store.get(ResultStore.RESULTS, KEY)
    assert np.array_equal(back["a"], big_array()) and store.stats.corrupt == 0


class TestPoisonedCacheEndToEnd:
    def test_corrupt_entry_recomputed_with_identical_result(self, store_dir):
        """The satellite's headline property: poisoning the cache never
        alters output — the entry is quarantined and recomputed to an
        exactly-equal RunResult."""
        req = jacobi_request(small_config())
        with ServeSession(cache_dir=store_dir) as sess:
            first = sess.run(req)
            [entry] = sess.store.entries(ResultStore.RESULTS)
        # Kill-mid-write: chop the published entry in half.
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
        with ServeSession(cache_dir=store_dir) as sess2:
            second = sess2.run(req)
            assert second.source == "computed"  # not served from cache
            assert sess2.store.stats.corrupt == 1
            assert len(sess2.store.quarantined()) == 1
            # ...and the store healed: a third session gets a cache hit.
            with ServeSession(cache_dir=store_dir) as sess3:
                third = sess3.run(req)
        assert first.result.exact_equal(second.result)
        assert first.result.exact_equal(third.result)
        assert third.source == "cache"

    def test_corrupt_plan_entry_recomputed(self, store_dir):
        req = jacobi_request(small_config(), optimize=True)
        with ServeSession(cache_dir=store_dir) as sess:
            first = sess.run(req)
            [plan_entry] = sess.store.entries(ResultStore.PLANS)
        plan_entry.write_bytes(b"\x00" * 10)
        # Nuke the result entry too, so the run must rebuild the plan.
        for e in ServeSession(cache_dir=store_dir).store.entries(
            ResultStore.RESULTS
        ):
            e.unlink()
        with ServeSession(cache_dir=store_dir) as sess2:
            second = sess2.run(req)
            assert sess2.plans.built == 1
            assert sess2.store.stats.corrupt == 1
        assert first.result.exact_equal(second.result)

    @pytest.mark.parametrize("poison", ["blob", "v1-entry"])
    def test_poisoned_blob_or_old_format_recomputed(self, store_dir, poison):
        req = jacobi_request(small_config(), params={"n": 128, "iters": 1})
        with ServeSession(cache_dir=store_dir) as sess:
            first = sess.run(req)
            [entry] = sess.store.entries(ResultStore.RESULTS)
            blobs = sess.store.entries(ResultStore.BLOBS)
            assert blobs and sess.stats()["store"]["blob_reuses"] > 0
        if poison == "blob":
            blob_bit_flipped(blobs[0])
        else:
            v1 = pickle.dumps(first.result, protocol=4)
            entry.write_bytes(frame(v1, magic=b"REPROSERVE1\n"))
        with ServeSession(cache_dir=store_dir) as sess2:
            second = sess2.run(req)
            assert second.source == "computed"
            assert sess2.store.stats.corrupt >= 1
            with ServeSession(cache_dir=store_dir) as sess3:
                third = sess3.run(req)
        assert third.source == "cache"
        assert first.result.exact_equal(second.result)
        assert first.result.exact_equal(third.result)
