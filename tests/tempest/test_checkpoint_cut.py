"""Each component's checkpoint cut round-trips, and a rollback puts every
component back on the cut it was taken from.

``Cluster.components`` lists every component with a ``snapshot()`` and a
``restore(cut)``.  Four crash + checkpoint cells (a checkpoint at every
barrier, node 2 crashing and restarting 0.5 ms later) between them move
every field a crash is seen to move between a checkpoint and its
rollback: the directory's versions (jacobi), the collective generations
and the protocol's transactions (cg), the implicit bits and the combine
layer (jacobi with combining) and the arrival counts (pde with rt-elim).
Each cell asserts that its crash moved what it is there for, and:

* at every checkpoint, restoring each cut onto a fresh twin cluster gives
  the same ``snapshot()`` back (on the live cluster, ``restore`` would
  also clear the barrier's waiting releases);
* after ``perform_rollback``, each component's ``snapshot()`` equals a
  copy of its cut taken when the checkpoint was written, every attribute
  ``tests.reach_table`` classes as cleared by ``restore`` is empty, and
  the rest of the state it finds outside the cut and ``CUT_KEEP`` equals
  that of a fresh twin restored from the same cuts.
"""

import copy

import numpy as np
import pytest

from repro.apps import APPS, jacobi
from repro.obs import EventBus
from repro.runtime.shmem import run_shmem
from repro.tempest import Cluster, ClusterConfig, CombineConfig, FaultConfig
from repro.tempest.faults import CrashScenario, _US
from repro.tempest.recovery import RecoveryManager
from tests.reach_table import CUT_KEEP, restore_classes

#: cell -> (program, run_shmem options, crash instant in µs, parts of the
#: state (see :func:`moved`) the crash moves away from the cut).  The
#: first is ``TestRecovery``'s cell in test_crash.py, run with a bus: the
#: protocol records what an in-flight miss has counted only for one.
FOUR = ClusterConfig(n_nodes=4)
CELLS = {
    "jacobi opt": (jacobi.build(n=32, iters=2), dict(optimize=True), 3_000, {
        "Directory.copy_version", "Directory.prev_version",
        "DefaultProtocol._inflight_counted"}),
    "cg plain": (APPS["cg"].program(), dict(config=FOUR), 3_000, {
        "Collectives[0]", "DefaultProtocol._busy", "DefaultProtocol._inflight"}),
    "jacobi opt+combine": (APPS["jacobi"].program(), dict(
        config=FOUR.scaled(combine=CombineConfig(enabled=True)), optimize=True), 3_000,
        {"AccessControl[1]", "Network._last_ctl"}),
    "pde opt+rt_elim": (APPS["pde"].program(), dict(
        config=FOUR, optimize=True, rt_elim=True), 1_500, {"CompilerExtensions[0]"}),
}


def same(a, b) -> bool:
    """Deep equality that compares NumPy arrays by dtype and contents."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return type(a) is type(b) and a.keys() == b.keys() and all(
            same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


def empty(value) -> bool:
    """None, an empty container, or a list of empty containers."""
    if value is None:
        return True
    if isinstance(value, list):
        return all(map(empty, value))
    return len(value) == 0


@pytest.fixture(scope="module")
def classes():
    return restore_classes()


def restore_class(obj, classes) -> str:
    """The class that defines ``obj``'s ``restore``."""
    return next(c.__name__ for c in type(obj).__mro__ if c.__name__ in classes)


def with_semaphores(cluster):
    """Every component, then the semaphores two of them restore."""
    return [*cluster.components, *cluster.collectives._mp_sema,
            *cluster.ext.arrival_sema]


def transient(name: str, classes) -> list[str]:
    """The state of ``name`` outside its cut and outside ``CUT_KEEP``."""
    info = classes[name]
    return [attr for attr in info["state"]
            if attr not in info["cut"] and f"{name}.{attr}" not in CUT_KEEP]


def moved(component, cut, classes) -> set[str]:
    """What of ``component`` has left ``cut``: each part of the cut that
    differs (``Directory.copy_version``, ``AccessControl[1]``), and each
    attribute its ``restore`` clears that is not empty."""
    name = restore_class(component, classes)
    now = component.snapshot()
    if isinstance(cut, dict):
        parts = [(f"{name}.{k}", now[k], cut[k]) for k in cut]
    elif isinstance(cut, tuple):
        parts = [(f"{name}[{i}]", a, b) for i, (a, b) in enumerate(zip(now, cut))]
    else:
        parts = [(name, now, cut)]
    return {label for label, a, b in parts if not same(a, b)} | {
        f"{name}.{attr}" for attr in classes[name]["cleared"]
        if not empty(getattr(component, attr, None))}


@pytest.mark.parametrize("cell", list(CELLS))
def test_every_cut_round_trips_and_every_rollback_lands_on_its_cut(
    cell, monkeypatch, classes
):
    program, options, crash_us, moves = CELLS[cell]
    seen = {"checkpoints": 0, "rollbacks": 0, "moved": set(), "twin": None}
    saved = {}  # id(checkpoint) -> deep copy of its cuts
    on_barrier = RecoveryManager._on_barrier
    perform_rollback = RecoveryManager.perform_rollback

    def recording_on_barrier(self, ordinal):
        before = self._last_checkpoint
        cost = on_barrier(self, ordinal)
        ck = self._last_checkpoint
        if ck is not before:
            cluster = self.cluster
            saved[id(ck)] = copy.deepcopy(ck.cuts)
            if seen["twin"] is None:
                seen["twin"] = Cluster(cluster.config, cluster.memory, cluster.protocol_name)
            for component, cut in zip(seen["twin"].components, ck.cuts):
                component.restore(cut)
                assert same(component.snapshot(), cut), type(component).__name__
            seen["checkpoints"] += 1
        return cost

    def checked_rollback(self):
        cuts = saved[id(self._last_checkpoint)]
        components = self.cluster.components
        for component, cut in zip(components, cuts):
            seen["moved"] |= moved(component, cut, classes)
        guards = perform_rollback(self)
        for component, cut in zip(components, cuts):
            assert same(component.snapshot(), cut), type(component).__name__
        cluster = self.cluster
        # The twin shares the bus; its restore has no transaction to abort.
        twin = Cluster(cluster.config, cluster.memory, cluster.protocol_name, cluster.obs)
        for component, cut in zip(twin.components, cuts):
            component.restore(cut)
        for live, fresh in zip(with_semaphores(cluster), with_semaphores(twin)):
            name = restore_class(live, classes)
            for attr in classes[name]["cleared"]:
                assert empty(getattr(live, attr, None)), f"{name}.{attr}"
            for attr in transient(name, classes):
                assert same(getattr(live, attr, None), getattr(fresh, attr, None)), (
                    f"{name}.{attr}")
        seen["rollbacks"] += 1
        return guards

    monkeypatch.setattr(RecoveryManager, "_on_barrier", recording_on_barrier)
    monkeypatch.setattr(RecoveryManager, "perform_rollback", checked_rollback)
    faults = FaultConfig(
        crashes=(CrashScenario(2, crash_us * _US, 500 * _US),), checkpoint_every=1,
    )
    obs = EventBus() if cell == "jacobi opt" else None
    options = dict(options)
    config = options.pop("config", ClusterConfig()).scaled(faults=faults)
    result = run_shmem(program, config, obs=obs, **options)
    assert result.completed
    assert seen["checkpoints"] > 0
    assert seen["rollbacks"] == result.stats.recovery_rollbacks >= 1
    # The cell has teeth: the crash moved what the cell is here for.
    assert moves <= seen["moved"]
