"""A seeded sample of the fault-config space, one schedule digest each.

``CONFIGS`` draws ``N_CONFIGS`` cells from a fixed seed: a shallow or
jacobi replay of a few simulated milliseconds on 2-4 nodes, under a random
subset of the reliable transport's axes — uniform drop / dup / jitter /
stall, a per-link override, a healing or a permanent partition, a crash
with heartbeats and ``checkpoint_every``, the adaptive RTO, combining and
the shared switch.  Every numeric draw is bounded by the field's own
:func:`repro.spec.opt` declaration (``ge`` / ``gt`` / ``lt``), narrowed
only by ``REACH`` so that each cell stays a few milliseconds long; the
config space is described nowhere else.

The ``transport`` table of :mod:`tests.pins` pins, per cell, a sha256 of
the run's :func:`schedule`: ``(elapsed_ns, events_dispatched,
max_queue_depth, ClusterStats.summary(), partition_events)``.  Any change
to when an engine event fires, which RNG draw decides what, or what a
counter counts moves it.

``FIXED_CELLS`` follow the sample in ``CONFIGS`` (indices from
``N_CONFIGS`` on) for axis combinations the sample never draws together.
"""

from __future__ import annotations

import dataclasses
import random

from repro.apps import jacobi, shallow
from repro.runtime import run_shmem
from repro.tempest.config import CombineConfig, SwitchConfig
from repro.tempest.faults import (
    CrashScenario, FaultConfig, LinkFaultConfig, PartitionScenario,
)
from tests.obs.attribution_matrix import digest
from tests.runtime.conftest import cell_config

N_CONFIGS = 30
SAMPLE_SEED = 25

#: Per field, the widest stretch above its declared lower bound a sample
#: may reach (probabilities: a fraction of the declared range; times and
#: counts: an absolute cap).  Wider draws are valid configs too, but their
#: cells run for seconds instead of milliseconds.
REACH = {
    "drop_prob": 0.15,
    "dup_prob": 0.15,
    "stall_prob": 0.2,
    "jitter_ns": 40_000,
    "stall_ns": 60_000,
    "max_retries": 32,
    "heartbeat_interval_ns": 600_000,
    "checkpoint_every": 1,
    "t_start_ns": 1_500_000,
    "duration_ns": 2_000_000,
    "t_ns": 1_000_000,
    "restart_delay_ns": 600_000,
}


def draw(rng: random.Random, cls, name: str):
    """One value for ``cls.name`` inside its declared bounds and ``REACH``."""
    (f,) = [f for f in dataclasses.fields(cls) if f.name == name]
    m = f.metadata
    if f.type.startswith("float"):
        lo = m["ge"] if m["ge"] is not None else m["gt"]
        return round(lo + (m["lt"] - lo) * REACH[name] * rng.random(), 4)
    lo = m["ge"] if m["ge"] is not None else m["gt"] + 1
    hi = lo + REACH[name]
    if m["lt"] is not None:
        hi = min(hi, m["lt"] - 1)
    return rng.randint(lo, hi)


def sample_config(rng: random.Random) -> dict:
    """One cell: its program, cluster size and run_shmem kwargs."""
    n = rng.randint(2, 4)
    faults: dict = {"seed": rng.randrange(1 << 16)}
    # Uniform wire axes: each engaged independently.
    for name in ("drop_prob", "dup_prob", "jitter_ns"):
        if rng.random() < 0.5:
            faults[name] = draw(rng, FaultConfig, name)
    if rng.random() < 0.3:
        faults["stall_prob"] = draw(rng, FaultConfig, "stall_prob")
        faults["stall_ns"] = max(1, draw(rng, FaultConfig, "stall_ns"))
    if rng.random() < 0.3:
        src = rng.randrange(n)
        dst = (src + rng.randint(1, n - 1)) % n
        faults["link_faults"] = (LinkFaultConfig(
            src, dst,
            drop_prob=draw(rng, LinkFaultConfig, "drop_prob"),
            jitter_ns=draw(rng, LinkFaultConfig, "jitter_ns"),
        ),)
    if rng.random() < 0.3:
        heals = rng.random() < 0.6
        faults["partitions"] = (PartitionScenario(
            "heal" if heals else "cut", frozenset({rng.randrange(n)}),
            t_start_ns=draw(rng, PartitionScenario, "t_start_ns"),
            duration_ns=draw(rng, PartitionScenario, "duration_ns") if heals else None,
        ),)
        faults["max_retries"] = min(8, draw(rng, FaultConfig, "max_retries"))
    if rng.random() < 0.3:
        faults["crashes"] = (CrashScenario(
            rng.randrange(n), draw(rng, CrashScenario, "t_ns"),
            draw(rng, CrashScenario, "restart_delay_ns"),
        ),)
        faults["heartbeat_interval_ns"] = draw(rng, FaultConfig, "heartbeat_interval_ns")
        faults["checkpoint_every"] = draw(rng, FaultConfig, "checkpoint_every")
        faults.setdefault("max_retries", 6)
    faults["adaptive_rto"] = rng.random() < 0.3
    if not FaultConfig(**dict(faults, adaptive_rto=False)).enabled:
        # A cell must engage the transport (the adaptive RTO needs it).
        faults["drop_prob"] = 0.01
    cell = {
        "app": rng.choice(("shallow", "jacobi")),
        "n_nodes": n,
        "optimize": rng.random() < 0.5,
        "faults": FaultConfig(**faults),
    }
    if rng.random() < 0.3:
        cell["combine"] = CombineConfig(enabled=True)
    if rng.random() < 0.3:
        cell["switch"] = SwitchConfig(enabled=True)
    return cell


def _sample() -> list[dict]:
    rng = random.Random(SAMPLE_SEED)
    return [sample_config(rng) for _ in range(N_CONFIGS)]


#: No sampled cell runs the shared switch and combining together, let
#: alone with the adaptive RTO; the wire_faults benchmark workload does,
#: under a 2% drop / 1% dup / 10 us jitter storm.
FIXED_CELLS = [
    {
        "app": "shallow",
        "n_nodes": 4,
        "optimize": False,
        "faults": FaultConfig(
            drop_prob=0.02, dup_prob=0.01, jitter_ns=10_000, seed=7,
            adaptive_rto=True,
        ),
        "combine": CombineConfig(enabled=True),
        "switch": SwitchConfig(enabled=True),
    },
]

CONFIGS = _sample() + FIXED_CELLS

_PROGRAMS = {
    "shallow": lambda: shallow.build(rows=33, cols=17, iters=2),
    "jacobi": lambda: jacobi.build(n=32, iters=2),
}


def run_config(cell: dict):
    kwargs = dict(cell)
    program = _PROGRAMS[kwargs.pop("app")]()
    return run_shmem(program, cell_config(kwargs), **kwargs)


def schedule(result) -> dict:
    s = result.stats
    return {
        "elapsed_ns": s.elapsed_ns,
        "events_dispatched": s.events_dispatched,
        "max_queue_depth": s.max_queue_depth,
        "summary": s.summary(),
        "partition_events": s.partition_events,
    }


def schedule_digest(record: dict) -> str:
    return digest(list(record.values()))
