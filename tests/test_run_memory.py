"""No end-of-run pass over the block space or the arrays holds a full-size
temporary.

Measured with ``tracemalloc``, which sees NumPy's allocations, around each
pass on a jacobi 1024x1024 run over 8 nodes (131,072 blocks, two 8 MiB
arrays): the coherence audit stays under 2 MiB (13 MiB when it evaluated
dense node x block masks), the numerics check under 1 MiB (19 MiB when
``np.array_equal(..., equal_nan=True)`` copied both arrays) and a program
fingerprint under one initializer array (24 MiB when the data went through
a zeroed array, a C-order copy and ``tobytes``).  The version clocks are
int32, so they hold 4 bytes per node and block, and a phase they cannot
hold is refused by name.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import repro.tempest.cluster as cluster_module
from repro.apps import APPS
from repro.runtime import run_shmem
from repro.runtime.uniproc import run_uniproc
from repro.serve.keys import program_fingerprint
from repro.tempest import ClusterConfig
from repro.tempest.directory import MAX_PHASE, Directory, PhaseOverflowError

MB = 1 << 20
N = 1024


def traced_peak(fn, *args):
    """``fn(*args)`` and the most bytes it held at once."""
    assert not tracemalloc.is_tracing()  # a peak from a fresh start
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def jacobi():
    """The program, its shmem and uniproc results, the end-of-run audit's
    peak and the run's directory."""
    program = APPS["jacobi"].program(n=N, iters=1)
    seen = {}
    real_audit = cluster_module.audit_coherence

    def audit(directory, access, context=""):
        seen["directory"] = directory
        blocks, seen["audit"] = traced_peak(real_audit, directory, access, context)
        return blocks

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cluster_module, "audit_coherence", audit)
        shmem = run_shmem(program, ClusterConfig(n_nodes=8), optimize=True)
    return program, shmem, run_uniproc(program), seen


def test_the_end_of_run_audit_holds_under_2_mb(jacobi):
    *_, seen = jacobi
    assert seen["directory"].n_blocks == 2 * N * N * 8 // 128
    assert seen["audit"] <= 2 * MB


def test_the_numerics_check_holds_under_1_mb(jacobi):
    _, shmem, uni, _ = jacobi
    assert set(shmem.arrays) == {"a", "new"}
    # both results hold the record's own arrays, which NumPy would pass
    # as equal to themselves unread: compare against views of them
    views = dataclasses.replace(uni, arrays={n: a.view() for n, a in uni.arrays.items()})
    assert traced_peak(shmem.assert_same_numerics, views)[1] <= 1 * MB


def test_the_numerics_check_still_finds_a_difference(jacobi):
    _, shmem, uni, _ = jacobi
    arrays = dict(uni.arrays, new=uni.arrays["new"].copy(order="K"))
    arrays["new"][N - 1, N - 2] += 1.0  # the last chunk, in memory order
    other = dataclasses.replace(uni, arrays=arrays)
    with pytest.raises(AssertionError, match="array 'new'"):
        shmem.assert_same_numerics(other)
    arrays["new"][N - 1, N - 2] = np.nan  # NaN against a number differs too
    with pytest.raises(AssertionError, match="array 'new'"):
        shmem.assert_same_numerics(other)


def test_a_fingerprint_holds_one_initializer_array(jacobi):
    program, *_ = jacobi
    one_array = N * N * 8
    # plus 64 KiB for the program's canonical JSON
    assert traced_peak(program_fingerprint, program)[1] <= one_array + 64 * 1024


class TestVersionClocks:
    def test_they_hold_4_bytes_per_node_and_block(self, jacobi):
        *_, seen = jacobi
        d = seen["directory"]
        for clock in (d.global_version, d.prev_version, d.copy_version):
            assert clock.dtype == np.int32
        assert d.copy_version.nbytes == 4 * d.n_nodes * d.n_blocks

    def test_a_phase_past_the_clock_is_refused_by_name(self):
        d = Directory(2, 4, [0, 0, 1, 1])
        d.record_write(0, [1], phase=MAX_PHASE)
        assert d.global_version[1] == MAX_PHASE == 2**31 - 1
        with pytest.raises(PhaseOverflowError, match=f"phase {2**31} "):
            d.record_write(1, [2], phase=2**31)
        assert d.global_version[2] == 0  # nothing was written
