"""End-to-end fuzz: random mini-HPF programs through every backend.

Hypothesis generates small random programs — random array shapes, random
stencil offsets and coefficients, random loop bounds, optional reductions
and time-step loops — and asserts the system-level invariants:

* the program's numerics record (``repro.runtime.phases.numerics``) is
  byte-identical to a naive whole-program walk (``tests/hpf/eval_oracle``),
  and every backend (unopt, optimized with every knob, msgpass) reports
  the uniprocessor reference's numerics.  Every backend reads that one
  record, so the oracle is the check that the numerics are right; the
  cross-backend comparison only checks that each backend hands it over;
* no stale read, contract violation or deadlock occurs anywhere;
* the optimized run never takes more demand misses than the unoptimized.

This is the widest net over the whole pipeline: analysis, planning,
contract, protocol and executors all under one generator.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hpf.dsl import I, ProgramBuilder, S
from repro.runtime import run_msgpass, run_shmem, run_uniproc
from repro.runtime.phases import numerics
from repro.tempest.config import ClusterConfig
from tests.hpf import eval_oracle


@st.composite
def stencil_programs(draw):
    rows = draw(st.sampled_from([8, 20, 32]))        # 20 => unaligned columns
    cols = draw(st.sampled_from([16, 24, 33]))
    dist = draw(st.sampled_from(["block", "cyclic"]))
    n_sweeps = draw(st.integers(1, 2))
    timesteps = draw(st.integers(1, 3))
    max_off = draw(st.integers(1, 2))
    with_reduce = draw(st.booleans())

    b = ProgramBuilder("fuzz")
    seed = draw(st.integers(0, 2**16))

    def init(shape, seed=seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape)

    u = b.array("u", (rows, cols), dist=dist, init=init)
    v = b.array("v", (rows, cols), dist=dist)
    full = S(0, rows - 1)
    lo = max_off
    hi = cols - 1 - max_off

    with b.timesteps(timesteps):
        for s in range(n_sweeps):
            offsets = draw(
                st.lists(st.integers(-max_off, max_off), min_size=1, max_size=3)
            )
            coeffs = draw(
                st.lists(
                    st.floats(-2, 2, allow_nan=False, width=32),
                    min_size=len(offsets),
                    max_size=len(offsets),
                )
            )
            expr = None
            for off, c in zip(offsets, coeffs):
                term = u[full, I + off] * float(c)
                expr = term if expr is None else expr + term
            b.forall(lo, hi, v[full, I], expr, label=f"sweep{s}")
            b.forall(lo, hi, u[full, I], v[full, I] * 0.5 + u[full, I] * 0.5,
                     label=f"mix{s}")
        if with_reduce:
            b.reduce("norm", 0, cols - 1, u[full, I] * u[full, I])
    return b.build()


CFG = ClusterConfig(n_nodes=4)


def assert_matches_oracle(prog):
    arrays, scalars = eval_oracle.run_program(prog)
    record = numerics(prog)
    assert list(record.arrays) == list(arrays)
    for name, want in arrays.items():
        got = record.arrays[name]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert dict(record.scalars) == scalars


@given(prog=stencil_programs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_programs_all_backends_agree(prog):
    uni = run_uniproc(prog, CFG)
    assert_matches_oracle(prog)
    unopt = run_shmem(prog, CFG)
    opt = run_shmem(prog, CFG, optimize=True)
    rte = run_shmem(prog, CFG, optimize=True, rt_elim=True)
    pre = run_shmem(prog, CFG, optimize=True, pre=True)
    adv = run_shmem(prog, CFG, optimize=True, advisory="prefetch")
    mp = run_msgpass(prog, CFG)
    for r in (unopt, opt, rte, pre, adv, mp):
        r.assert_same_numerics(uni)
    assert opt.total_misses <= unopt.total_misses


@given(prog=stencil_programs())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_programs_update_protocol_agrees(prog):
    uni = run_uniproc(prog, CFG)
    assert_matches_oracle(prog)
    upd = run_shmem(prog, CFG, protocol="update")
    upd.assert_same_numerics(uni)
