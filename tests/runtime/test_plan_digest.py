"""``build_shmem_plan`` is pinned: digests recorded on the parent commit.

The functional pass was rewritten as array kernels (closed-form block
mapping, in-place numerics, bitmap availability); these digests were
recorded with ``python -m tests.plan_digest`` on the commit *before* that
rewrite, so any drift in traces, planner counters or numerics fails here.
``CODE_VERSION`` and the serve keys depend on plans staying put.

Also pinned: the timing pass allocates no program data, and the passes
that run numerics still get zeroed, writable, Fortran-ordered storage.
"""

import numpy as np
import pytest

from repro import APPS, ClusterConfig, run_msgpass
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.runtime import shmem
from repro.runtime.phases import allocate_segment
from repro.runtime.shmem import build_shmem_plan, execute_shmem_plan
from tests.plan_digest import CELLS, PARAMS, cell_digests

#: final arrays + scalars per app (every variant computes the same numerics)
NUMERICS = {
    "pde": "7a7847103a6dd9d93ecbef3a",
    "shallow": "617da17cf61d643ff74958ee",
    "grav": "5e7f91f2436d37562391a461",
    "lu": "ba0f6e44724c1a1c411ae3ad",
    "cg": "2f51b76168a04c510ba30510",
    "jacobi": "895e0552ca5149a5601c9df2",
}

#: traces + plans_built + controlled_blocks + tracker_stats per cell
STRUCTURE = {
    "pde/unopt": "58eea3f14b84a547af47111d",
    "pde/opt": "f8267876412c5de2f11e62b1",
    "pde/opt+rt_elim": "9c9d5fcf5e6fbd8e2101ba69",
    "pde/opt+pre": "e76e976e2c1af5ce23696f28",
    "pde/opt+rt_elim+pre": "f255e36887afde0168821ed4",
    "pde/opt+advisory": "83df0a51b1001953c7bf1880",
    "shallow/unopt": "59f6521adf338c3297704cc2",
    "shallow/opt": "8f7c21529edeeeafccebee0e",
    "shallow/opt+rt_elim": "21723c18902c4bccd2398f6f",
    "shallow/opt+pre": "17a55c3efe0daa844b9b72b6",
    "shallow/opt+rt_elim+pre": "f2454c962e66fa4ba7c6929b",
    "shallow/opt+advisory": "0f7d47aa5c9257b85348aa0c",
    "grav/unopt": "54afecf32dbfcd5fec3e32c4",
    "grav/opt": "09b2fee3091c7001b57dcd76",
    "grav/opt+rt_elim": "53ce69a01098331f7b388841",
    "grav/opt+pre": "d85cf8f2c74778a8b976856a",
    "grav/opt+rt_elim+pre": "e07d7595a929a1daf82e038c",
    "grav/opt+advisory": "174c0294303d8dfeddf397a6",
    "lu/unopt": "6cabbcf7ce860718728a2334",
    "lu/opt": "9f1671192ded9c959e77a6ed",
    "lu/opt+rt_elim": "ebcfdbece9489d8db6e8f73b",
    "lu/opt+pre": "9b87228fa7af8efe293cd6f8",
    "lu/opt+rt_elim+pre": "99e8b48eef93c82236bc4a67",
    "lu/opt+advisory": "dd5832cb97d2e4db2d284efa",
    "cg/unopt": "585cc965e2618c66e02b6e6b",
    "cg/opt": "208e2ef3976cef2c1d21d4df",
    "cg/opt+rt_elim": "8358ec38edb282c83cffd692",
    "cg/opt+pre": "284c128364d31c9b92009eb5",
    "cg/opt+rt_elim+pre": "0df0e8288beaab107caf89b6",
    "cg/opt+advisory": "cc5a61abe90459f62d6476e9",
    "jacobi/unopt": "7644e28cd8c75576d5f661aa",
    "jacobi/opt": "cc9dbda5a53df4bf954149f1",
    "jacobi/opt+rt_elim": "2343db3a40663e5d7ab9d5c4",
    "jacobi/opt+pre": "920f42a90ab31b1d1f3c7bbe",
    "jacobi/opt+rt_elim+pre": "13b96a7bb57b1903affc04b7",
    "jacobi/opt+advisory": "c895df26456d36ec1ec5bc26",
}


@pytest.mark.parametrize("app,variant", CELLS)
def test_plan_matches_parent_digest(app, variant):
    got = cell_digests(app, variant)
    assert got is not None, "the planner refused a cell it used to accept"
    assert got["structure"] == STRUCTURE[f"{app}/{variant}"]
    assert got["numerics"] == NUMERICS[app]


def test_timing_pass_allocates_no_program_data(monkeypatch):
    segments = []
    real = shmem.segment_geometry

    def spy(*args, **kwargs):
        segments.append(real(*args, **kwargs))
        return segments[-1]

    monkeypatch.setattr(shmem, "segment_geometry", spy)
    cfg = ClusterConfig(n_nodes=4)
    program = APPS["jacobi"].program(**PARAMS["jacobi"])
    plan = build_shmem_plan(program, cfg, optimize=True)
    result = execute_shmem_plan(plan, cfg)
    (mem,) = segments
    assert set(mem.arrays) == set(program.arrays)
    assert not any(arr.data_allocated for arr in mem.iter_arrays())
    # The run's numerics are the plan's, untouched by the replay.
    for name, data in plan.arrays.items():
        np.testing.assert_array_equal(result.arrays[name], data)


def coefficient_program():
    """A distributed array scaled by a replicated coefficient table."""
    b = ProgramBuilder("coeffs")
    x = b.array("x", (16, 16), init=lambda shape: np.ones(shape))
    c = b.array("c", (16, 16), dist="replicated", init=lambda shape: np.full(shape, 3.0))
    b.forall(0, 15, x[S(0, 15), I], x[S(0, 15), I] * c[S(0, 15), I])
    return b.build()


@pytest.mark.parametrize(
    "program",
    [APPS["jacobi"].program(**PARAMS["jacobi"]), coefficient_program()],
    ids=["jacobi", "replicated"],
)
def test_functional_passes_get_writable_fortran_storage(program):
    cfg = ClusterConfig(n_nodes=4)
    mem, arrays = allocate_segment(program.arrays.values(), cfg)
    assert list(arrays) == list(program.arrays)
    for name, decl in program.arrays.items():
        data = arrays[name]
        assert data.flags["F_CONTIGUOUS"] and data.flags["WRITEABLE"]
        assert data.dtype == np.float64 and not data.any()
        assert (name in mem.arrays) == (decl.dist != "replicated")
        if name in mem.arrays:  # distributed: the segment's own store
            assert mem.arrays[name].data is data
    plan = build_shmem_plan(program, cfg)
    ran = run_msgpass(program, cfg)
    for name, data in plan.arrays.items():
        assert data.flags["F_CONTIGUOUS"] and data.flags["WRITEABLE"]
        np.testing.assert_array_equal(ran.arrays[name], data)
