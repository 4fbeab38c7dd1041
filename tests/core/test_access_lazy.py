"""Lazily derived non-owner sets ≡ the all-at-once instantiation.

:meth:`LoopAccess.instantiate` binds only the iterations and the
read/write sections; a :class:`LoopInstance` derives its non-owner sets
and transfers on first use.  ``eager`` below spells out the instantiation
that computed everything in one pass: every app's every phase must derive
exactly what it computed, in the same order.  The consumers ask for as
little as they need: an unoptimized build derives nothing, an optimized
one never splits the read pieces into transfers.
"""

import numpy as np
import pytest

from repro import APPS, run_msgpass
from repro.core.access import LoopAccess, Transfer
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.runtime.phases import ProgramAnalysis, walk_phases
from repro.runtime.shmem import build_shmem_plan
from repro.tempest.config import ClusterConfig

PARAMS = {
    "pde": dict(n=12, iters=2),
    "shallow": dict(rows=17, cols=9, iters=2),
    "grav": dict(n=9, iters=1),
    "lu": dict(n=16),
    "cg": dict(rows=12, cols=24, iters=3),
    "jacobi": dict(n=16, iters=2),
}
DERIVED = ("non_owner_reads", "non_owner_writes", "write_transfers", "transfers")


def halo_and_shifted_write():
    """One loop whose processors both read and write non-owned columns."""
    b = ProgramBuilder("mixed")
    a = b.array("a", (4, 32), init=lambda shape: np.arange(128.0).reshape(shape))
    w = b.array("w", (4, 32))
    with b.seq("t", 0, 1):
        rows = S(0, 3)
        b.forall(1, 29, w[rows, I + 1], a[rows, I - 1] + a[rows, I + 1], on_home=a[rows, I])
    return b.build()


PROGRAMS = {app: (lambda app=app: APPS[app].program(**PARAMS[app])) for app in PARAMS}
PROGRAMS["mixed"] = halo_and_shifted_write


def eager(acc: LoopAccess, env: dict) -> dict:
    """Every set of one loop instance, computed in one pass per processor."""
    iters = acc._iterations(env)
    reads, writes, nor, now, transfers = [], [], [], [], []

    def split(array, piece, p, kind):
        for q in range(acc.n_procs):
            if q != p:
                part = piece.intersect_last(acc.owned_columns(array, q))
                if not part.is_empty:
                    transfers.append(Transfer(array, part, src=q, dst=p, kind=kind))

    for p, it in enumerate(iters):
        p_reads, p_writes, p_nor, p_now = [], [], [], []
        if not it.is_empty:
            for pat in acc.read_patterns:
                sec = pat.section(it, env)
                if sec.is_empty:
                    continue
                p_reads.append((pat.array, sec))
                if acc.decls[pat.array].dist != "replicated":
                    for piece in sec.difference_last(acc.owned_columns(pat.array, p)):
                        p_nor.append((pat.array, piece))
                        split(pat.array, piece, p, "read")
            if acc.lhs_pattern is not None:
                array = acc.lhs_pattern.array
                sec = acc.lhs_pattern.section(it, env)
                if not sec.is_empty:
                    p_writes.append((array, sec))
                    if acc.decls[array].dist != "replicated":
                        for piece in sec.difference_last(acc.owned_columns(array, p)):
                            p_now.append((array, piece))
                            split(array, piece, p, "write")
        reads.append(tuple(p_reads))
        writes.append(tuple(p_writes))
        nor.append(tuple(p_nor))
        now.append(tuple(p_now))
    return dict(
        iterations=iters,
        reads=tuple(reads),
        writes=tuple(writes),
        non_owner_reads=tuple(nor),
        non_owner_writes=tuple(now),
        transfers=tuple(transfers),
        write_transfers=tuple(t for t in transfers if t.kind == "write"),
    )


@pytest.mark.parametrize("n_procs", [2, 8])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_phase_derives_the_eager_sets(name, n_procs):
    program = PROGRAMS[name]()
    analysis = ProgramAnalysis(program, n_procs)
    phases = 0
    non_owner = 0
    for rec in walk_phases(program, analysis):
        if rec.inst is None:
            continue
        want = eager(analysis.access(rec.stmt), rec.env)
        for name, value in want.items():
            assert getattr(rec.inst, name) == value, (rec.stmt.label, name)
        phases += 1
        non_owner += sum(map(len, want["non_owner_reads"]))
    assert phases > 0
    if n_procs == 8:
        assert non_owner > 0, "no phase exercised a non-owner read"


def _spy_instances(monkeypatch) -> list:
    seen = []
    instantiate = LoopAccess.instantiate

    def spy(self, env):
        inst = instantiate(self, env)
        seen.append(inst)
        return inst

    monkeypatch.setattr(LoopAccess, "instantiate", spy)
    return seen


def _derived(instances) -> set[str]:
    return {name for inst in instances for name in DERIVED if name in inst.__dict__}


@pytest.mark.parametrize("app", sorted(PARAMS))
def test_each_consumer_derives_only_what_it_reads(app, monkeypatch):
    program = APPS[app].program(**PARAMS[app])
    cfg = ClusterConfig(n_nodes=8)
    seen = _spy_instances(monkeypatch)
    build_shmem_plan(program, cfg)
    assert seen and _derived(seen) == set()

    seen.clear()
    build_shmem_plan(program, cfg, optimize=True)
    assert "transfers" not in _derived(seen)
    assert "non_owner_reads" in _derived(seen)

    seen.clear()
    run_msgpass(program, cfg)
    assert "transfers" in _derived(seen)
