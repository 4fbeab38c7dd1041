"""Differential golden-equality harness: serve == direct, always.

Every cell of a faults x combine x switch x crash sample matrix is run
three ways — direct in-process ``run_shmem``, serve cold, serve warm
(cache round trip) — and must be exactly dataclass-equal, including the
degraded (``completed=False``) cells.  A final pool test runs the whole
matrix through worker processes and compares again.
"""

import dataclasses
import os

import pytest

from repro.runtime.msgpass import run_msgpass
from repro.runtime.shmem import run_shmem
from repro.runtime.uniproc import run_uniproc
from repro.serve import (
    RunRequest,
    ServeSession,
    assert_results_equal,
)
from repro.tempest.config import ClusterConfig, CombineConfig, SwitchConfig
from repro.tempest.faults import (
    CrashScenario,
    FaultConfig,
    PartitionScenario,
    _US,
)

CFG = ClusterConfig(n_nodes=4)


def _faults(**kw):
    return CFG.scaled(faults=FaultConfig(**kw))


def _cut(dur_us, **kw):
    return CFG.scaled(
        faults=FaultConfig(
            partitions=(
                PartitionScenario(
                    "cut",
                    frozenset({1}),
                    t_start_ns=200 * _US,
                    duration_ns=None if dur_us is None else dur_us * _US,
                ),
            ),
            **kw,
        )
    )


def _crash(restart_us=None, **kw):
    restart = None if restart_us is None else restart_us * _US
    return CFG.scaled(
        faults=FaultConfig(
            crashes=(CrashScenario(2, 3_000 * _US, restart),), **kw
        )
    )


#: (id, config, request overrides, expect_completed)
MATRIX = [
    ("clean-unopt", CFG, {}, True),
    ("clean-opt-bulk", CFG, dict(optimize=True), True),
    ("clean-opt-rtelim", CFG, dict(optimize=True, rt_elim=True), True),
    ("update-protocol", CFG, dict(protocol="update"), True),
    (
        "combine",
        CFG.scaled(combine=dataclasses.replace(CombineConfig(), enabled=True)),
        dict(optimize=True),
        True,
    ),
    (
        "switch",
        CFG.scaled(switch=dataclasses.replace(SwitchConfig(), enabled=True)),
        dict(optimize=True),
        True,
    ),
    ("fault-storm", _faults(drop_prob=0.08, dup_prob=0.02, seed=11), {}, True),
    (
        "fault-storm-adaptive",
        _faults(drop_prob=0.08, seed=11, adaptive_rto=True),
        dict(optimize=True),
        True,
    ),
    (
        "faults-combine-switch",
        _faults(drop_prob=0.05, seed=3)
        .scaled(combine=dataclasses.replace(CombineConfig(), enabled=True))
        .scaled(switch=dataclasses.replace(SwitchConfig(), enabled=True)),
        dict(optimize=True),
        True,
    ),
    ("healed-partition", _cut(2_500, max_retries=6), {}, True),
    ("never-heal-degraded", _cut(None, max_retries=3), {}, False),
    (
        "crash-checkpoint-restart",
        _crash(restart_us=500, checkpoint_every=1),
        dict(optimize=True),
        True,
    ),
    ("crash-never-degraded", _crash(), dict(optimize=True), False),
]

IDS = [m[0] for m in MATRIX]


def _request(config, overrides):
    return RunRequest(
        app="jacobi", params={"n": 32, "iters": 2}, config=config, **overrides
    )


def _direct(req: RunRequest):
    prog = req.build_program()
    if req.backend == "uniproc":
        return run_uniproc(prog, req.config)
    if req.backend == "msgpass":
        return run_msgpass(prog, req.config)
    return run_shmem(
        prog,
        req.config,
        optimize=req.optimize,
        bulk=req.bulk,
        rt_elim=req.rt_elim,
        pre=req.pre,
        advisory=req.advisory,
        protocol=req.protocol,
    )


@pytest.mark.parametrize("case_id,config,overrides,completed", MATRIX, ids=IDS)
def test_serve_matches_direct_cold_and_warm(
    case_id, config, overrides, completed, tmp_path
):
    req = _request(config, overrides)
    direct = _direct(req)
    assert direct.completed is completed
    with ServeSession(cache_dir=str(tmp_path / "c")) as sess:
        cold = sess.run(req)
        warm = sess.run(req)
    assert cold.source == "computed" and warm.source == "cache"
    assert_results_equal(direct, cold.result, f"{case_id} cold")
    assert_results_equal(direct, warm.result, f"{case_id} warm")


def test_degraded_runs_are_cached_not_retried(tmp_path):
    """A never-healing partition is a deterministic outcome of its key —
    the cache serves it rather than re-suffering the timeout."""
    req = _request(_cut(None, max_retries=3), {})
    with ServeSession(cache_dir=str(tmp_path / "c")) as sess:
        cold = sess.run(req)
        warm = sess.run(req)
    assert cold.result.completed is False
    assert warm.source == "cache"
    assert cold.result.exact_equal(warm.result)
    assert warm.result.stats.failure["unreachable_nodes"] == [1]


@pytest.mark.parametrize("backend", ["uniproc", "msgpass"])
def test_other_backends_match_direct(backend, tmp_path):
    req = _request(CFG, dict(backend=backend))
    direct = _direct(req)
    with ServeSession(cache_dir=str(tmp_path / "c")) as sess:
        cold = sess.run(req)
        warm = sess.run(req)
    assert_results_equal(direct, cold.result, f"{backend} cold")
    assert_results_equal(direct, warm.result, f"{backend} warm")


def test_degraded_msgpass_cell_is_served_degraded(tmp_path):
    """A message-passing run whose peer never restarts degrades, and the
    served result says so cold and warm."""
    config = CFG.scaled(faults=FaultConfig(crashes=(CrashScenario(1, 300 * _US),)))
    req = _request(config, dict(backend="msgpass"))
    direct = _direct(req)
    assert direct.completed is False
    with ServeSession(cache_dir=str(tmp_path / "c")) as sess:
        cold = sess.run(req)
        warm = sess.run(req)
    assert warm.source == "cache"
    for served in (cold, warm):
        assert served.result.completed is False
        assert served.result.stats.failure["crashed_nodes"] == [1]
    assert_results_equal(direct, cold.result, "msgpass degraded cold")
    assert_results_equal(direct, warm.result, "msgpass degraded warm")


def test_full_matrix_through_pool_matches_serial():
    """The acceptance-criteria property at test scale: the whole sample
    matrix fanned across worker processes equals serial in-process runs,
    cell for cell — degraded cells included."""
    jobs = min(4, max(2, os.cpu_count() or 1))
    reqs = [_request(config, overrides) for _, config, overrides, _ in MATRIX]
    with ServeSession(jobs=jobs) as sess:
        pooled = sess.run_batch(reqs)
    for (case_id, _, _, completed), served in zip(MATRIX, pooled):
        assert served.result.completed is completed, case_id
        assert_results_equal(_direct(served.request), served.result, case_id)
