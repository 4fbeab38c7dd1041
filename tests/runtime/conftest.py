"""Shared program fixtures for runtime tests."""

import dataclasses

import pytest

from repro.hpf.dsl import I, ProgramBuilder, S
from repro.tempest.config import ClusterConfig


@pytest.fixture
def cfg4():
    return ClusterConfig(n_nodes=4)


def cell_config(options: dict, **fields) -> ClusterConfig:
    """A config of ``fields`` and of every entry of ``options`` that names a
    ``ClusterConfig`` field (``faults``, ``combine``, ``switch``, ...).
    Those entries are popped: test cells list the wire layers beside
    ``run_shmem``'s options, and ``run_shmem`` takes them only in its config."""
    names = {f.name for f in dataclasses.fields(ClusterConfig)}
    return ClusterConfig(**fields, **{k: options.pop(k) for k in list(options) if k in names})


def jacobi_program(n=64, iters=3, name="jacobi"):
    """2-D 4-point stencil with an init loop and a copy-back loop."""
    b = ProgramBuilder(name)
    a = b.array("a", (n, n))
    new = b.array("new", (n, n))
    b.forall(0, n - 1, a[S(0, n - 1), I], 1.0, label="init")
    with b.timesteps(iters):
        b.forall(
            1,
            n - 2,
            new[S(1, n - 2), I],
            (
                a[S(0, n - 3), I]
                + a[S(2, n - 1), I]
                + a[S(1, n - 2), I - 1]
                + a[S(1, n - 2), I + 1]
            )
            * 0.25,
            label="sweep",
        )
        b.forall(1, n - 2, a[S(1, n - 2), I], new[S(1, n - 2), I], label="copy")
    return b.build()


def stable_reader_program(n=64, iters=4):
    """Reads a never-rewritten array every iteration — the PRE showcase."""
    b = ProgramBuilder("stable")
    coeff = b.array("coeff", (n, n))
    x = b.array("x", (n, n))
    b.forall(0, n - 1, coeff[S(0, n - 1), I], 2.0, label="init_coeff")
    b.forall(0, n - 1, x[S(0, n - 1), I], 1.0, label="init_x")
    with b.timesteps(iters):
        # x[j] += coeff[j-1]: the coeff halo never changes after init.
        b.forall(1, n - 1, x[S(0, n - 1), I], x[S(0, n - 1), I] + coeff[S(0, n - 1), I - 1])
    return b.build()
