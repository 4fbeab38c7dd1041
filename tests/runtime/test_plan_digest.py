"""``build_shmem_plan`` is pinned: digests recorded on the parent commit.

The functional pass was rewritten as array kernels (closed-form block
mapping, in-place numerics, bitmap availability); these digests were
recorded with ``python -m tests.plan_digest`` on the commit *before* that
rewrite, so any drift in traces, planner counters or numerics fails here.
``CODE_VERSION`` and the serve keys depend on plans staying put.

Also pinned: the timing pass allocates no program data, and a program
is evaluated once, in zeroed, writable, Fortran-ordered storage, into one
read-only record that its plan and every result share.
"""

import dataclasses

import numpy as np
import pytest


from repro import APPS, ClusterConfig, run_msgpass, run_uniproc
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.runtime import phases, shmem
from repro.runtime.phases import numerics
from repro.runtime.shmem import build_shmem_plan, execute_shmem_plan, trace_geometry
from repro.tempest.config import CombineConfig, SwitchConfig
from repro.tempest.faults import FaultConfig
from repro.tempest.memory import GlobalArray
from tests.hpf import eval_oracle
from tests.plan_digest import (
    CELLS,
    N_NODES,
    PARAMS,
    VARIANTS,
    cell_digests,
    structure_digest,
)

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


@pytest.mark.parametrize("app", sorted(PARAMS))
def test_numerics_match_a_naive_whole_program_walk(app):
    """Every backend reads one record, so comparing backends compares it
    with itself: it is checked against the naive evaluator instead."""
    program = APPS[app].program(**PARAMS[app])
    arrays, scalars = eval_oracle.run_program(program)
    record = numerics(program)
    assert list(record.arrays) == list(arrays)
    for name, want in arrays.items():
        got = record.arrays[name]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert dict(record.scalars) == scalars


def test_a_program_edited_between_runs_is_evaluated_again():
    """A record is reused while its program is unchanged; serve lets a
    caller edit an inline program between calls."""
    program = APPS["jacobi"].program(**PARAMS["jacobi"])
    first = numerics(program)
    assert numerics(program) is first
    name = next(iter(program.initializers))
    program.initializers[name] = lambda shape: np.ones(shape)
    arrays, _ = eval_oracle.run_program(program)
    again = run_uniproc(program).arrays
    assert not np.array_equal(again[name], first.arrays[name])
    for n, want in arrays.items():
        assert again[n].tobytes() == want.tobytes(), n


#: a value off the default for every ClusterConfig field the functional
#: pass does not read (the others are :func:`trace_geometry`'s)
TIMING_ONLY = {
    "dual_cpu": False,
    "wire_latency_ns": 20_000,
    "bandwidth_bytes_per_us": 10.0,
    "send_overhead_ns": 6_000,
    "dispatch_overhead_ns": 5_000,
    "handler_request_ns": 60_000,
    "handler_response_ns": 20_000,
    "handler_invalidate_ns": 7_000,
    "handler_ack_ns": 5_000,
    "handler_data_recv_ns": 11_000,
    "handler_data_recv_per_block_ns": 3_000,
    "interrupt_overhead_ns": 11_000,
    "compute_quantum_ns": 50_000,
    "fault_detect_ns": 4_000,
    "call_overhead_ns": 3_000,
    "tag_change_per_block_ns": 300,
    "memoized_call_ns": 2_000,
    "max_payload_blocks": 8,
    "mp_pack_ns_per_byte": 30,
    "reduce_algorithm": "tree",
    "faults": FaultConfig(drop_prob=0.05, dup_prob=0.01, seed=3),
    "combine": CombineConfig(enabled=True),
    "switch": SwitchConfig(enabled=True),
}


def test_every_config_field_is_geometry_or_timing_only():
    """A new ClusterConfig field fails here until it is classified: in
    ``trace_geometry`` if the build reads it, else in ``TIMING_ONLY``."""
    geometry = set(trace_geometry(ClusterConfig()))
    assert geometry.isdisjoint(TIMING_ONLY)
    assert {f.name for f in dataclasses.fields(ClusterConfig)} == geometry | set(TIMING_ONLY)
    for name, value in TIMING_ONLY.items():
        assert getattr(ClusterConfig(), name) != value, name


@pytest.mark.parametrize("app", sorted(PARAMS))
def test_timing_only_fields_leave_the_plan_alone(app):
    base = ClusterConfig(n_nodes=N_NODES)
    perturbed = [dataclasses.replace(base, **TIMING_ONLY)]
    if app == "shallow":  # one at a time too, where no two could cancel
        perturbed += [
            dataclasses.replace(base, **{name: value})
            for name, value in TIMING_ONLY.items()
        ]
    program = APPS[app].program(**PARAMS[app])
    for cfg in perturbed:
        assert trace_geometry(cfg) == trace_geometry(base)
        for variant in ("unopt", "opt"):
            plan = build_shmem_plan(program, cfg, **VARIANTS[variant])
            assert structure_digest(plan) == STRUCTURE[f"{app}/{variant}"], cfg


@pytest.mark.parametrize(
    "field,value",
    [("n_nodes", 4), ("block_size", 64), ("page_size", 8192),
     ("compute_ns_per_unit", 61), ("loop_overhead_ns", 2_001)],
)
def test_every_geometry_field_moves_a_plan(field, value):
    """``trace_geometry`` lists no field the build ignores."""
    program = APPS["shallow"].program(**PARAMS["shallow"])
    cfg = dataclasses.replace(ClusterConfig(n_nodes=N_NODES), **{field: value})
    plan = build_shmem_plan(program, cfg, optimize=True)
    assert structure_digest(plan) != STRUCTURE["shallow/opt"]


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

    def refuse(_program):
        raise AssertionError("the timing pass evaluated the program")

    monkeypatch.setattr(phases, "_evaluate", refuse)
    result = execute_shmem_plan(plan, cfg)
    built, replayed = segments
    assert set(replayed.arrays) == set(built.arrays) == set(program.arrays)
    # A segment is geometry only: it has no slot to hold an array's data.
    assert not any("data" in slot for slot in GlobalArray.__slots__)
    # The run's numerics are the plan's record, viewed, not copied.
    for name, data in plan.numerics.arrays.items():
        assert np.shares_memory(result.arrays[name], data)


def coefficient_program():
    """A distributed array scaled by a replicated coefficient table."""
    b = ProgramBuilder("coeffs")
    x = b.array("x", (16, 16), init=lambda shape: np.ones(shape))
    c = b.array("c", (16, 16), dist="replicated", init=lambda shape: np.full(shape, 3.0))
    b.forall(0, 15, x[S(0, 15), I], x[S(0, 15), I] * c[S(0, 15), I])
    return b.build()


@pytest.mark.parametrize(
    "build",
    [lambda: APPS["jacobi"].program(**PARAMS["jacobi"]), coefficient_program],
    ids=["jacobi", "replicated"],
)
def test_functional_passes_get_writable_fortran_storage(build, monkeypatch):
    program = build()
    evaluated = []
    real = phases.apply_initializers

    def spy(program, arrays):
        # The one evaluation runs against zeroed, writable Fortran storage ...
        for data in arrays.values():
            assert data.flags["F_CONTIGUOUS"] and data.flags["WRITEABLE"]
            assert data.dtype == np.float64 and not data.any()
        evaluated.append(list(arrays))
        real(program, arrays)

    monkeypatch.setattr(phases, "apply_initializers", spy)
    cfg = ClusterConfig(n_nodes=4)
    plan = build_shmem_plan(program, cfg)
    ran = [run_msgpass(program, cfg), run_uniproc(program, cfg)]
    assert evaluated == [list(program.arrays)]
    # ... and leaves one read-only, Fortran-ordered record that the plan
    # and every result share, and whose arrays cannot be made writable.
    record = numerics(program)
    assert plan.numerics is record
    assert list(record.arrays) == list(program.arrays)
    for name, data in record.arrays.items():
        assert data.flags["F_CONTIGUOUS"] and not data.flags["WRITEABLE"]
        with pytest.raises(ValueError):
            data.flags.writeable = True
        assert all(result.arrays[name] is data for result in ran)
