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

``DIGESTS`` pins, per cell, a sha256 of the run's schedule:
``(elapsed_ns, events_dispatched, max_queue_depth, ClusterStats.summary(),
partition_events)``.  Any change to when an engine event fires, which RNG
draw decides what, or what a counter counts moves it.  The table was
recorded before the transport's per-frame path was rewritten, with

    PYTHONPATH=<parent>/src:. python -m tests.tempest.transport_digests

Run the same command on any later commit to print the table it produces.

``FIXED_CELLS`` follow the sample in ``CONFIGS`` (indices from
``N_CONFIGS`` on) for axis combinations the sample never draws together;
their digests were recorded before the lossy wire's link hop was written
out.
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


def schedule_digest(result) -> str:
    s = result.stats
    return digest([
        s.elapsed_ns, s.events_dispatched, s.max_queue_depth,
        s.summary(), s.partition_events,
    ])


#: index into CONFIGS -> schedule digest, as recorded before the rewrite.
DIGESTS: dict[int, str] = {
    0: "5f2be20059d8b136404a289731833f11802f226f59cd5a0d20924a1cbbff0296",
    1: "d218e7bd24898b21db5b9c70bc42ef8bbc044206d4d20953b2372e5d10c8e4e3",
    2: "dd23c96c575e9705fdd2a971ee3330fd4de090fd1eb4318cff601d515347844b",
    3: "81e0d137a7f13550d3478afe1fd3f82338cf759f44f33a12c8e2d473de0f882e",
    4: "9043716a7fa3977f85a7824ce846b367e82c4120ec35acea43973b904fa45b1b",
    5: "9fd50848a09e581871c38977054b92da5f120ff2a9ab52abaf1c35e23bfdc1cf",
    6: "0e4a2f36f5c38800134b444c22219d06b0f58253e1ddaeb5ee95d85cafe06190",
    7: "8811109592594ddd22f96dc102bca1529e5a4108c0afb6e9f90b5d525489853b",
    8: "16165402b69e34b75a50f0d0594a8ac9ebe56c6defa0d5074414eadd000d1526",
    9: "02de18b7bf1d7faa33a718a2ae079f55b35e4b1fc19247ff2ab2b84df54ada7e",
    10: "1c363015731803fc63fc0896db6019ff014419af4eee6eb554d83e037d94b451",
    11: "bc5cc9a71f385a669839cb42d8c4540c965b70a2ae6f1d66e8e76f25c47b2031",
    12: "8904baff76415141c013f3eafbb4b8d6c9121f2a0d953207bada0bf4f4e461f0",
    13: "d28172c04af648aa7d4db5912fbf8c32669841479d9c9f75139065776171b159",
    14: "3abcddb0000519b127a88d88ddc74fcca2a4a746f9ebd4b0528bc3696c1951fb",
    15: "ea97120bfe803b60802e6771cea3893bcf5875b6ebe171b84a5f691e244024b8",
    16: "a45bfe5f3d91234d4fe31e5b74fa5da5edbebaff5ee532270e48122781d93ea9",
    17: "47239df096254b89a5c27affa7f42879cb71fe6a1e39b4a55b41060be3d9d180",
    18: "8abd9c9e81153a20090ab428f857eb0403624b836b10f922beffc65d4d5b2c9c",
    19: "86af8d0152cad14bb82d8118667821e7f16bc1450eb65ca49af5fb09ae71fc14",
    20: "93bcb6930701151b01dbd0755d37c2726d745fa37fac6fcb39958b41501dc408",
    21: "13fa942c03ac47321772e6eed60064d701b2901da801897162691ff812a1b8e5",
    22: "a3e60d6946aea3a05e070058afa81d3a3cd1689587e5ab8ecc0d0698db4c936e",
    23: "6658a12619491b73be0ef7ffc6793d3db73cd0a6c8041b95e8ca99bb5f9882ed",
    24: "9b7f0a0b5133c9d4353088d971ddfc5f3f5015be76e2848637457ca1ee574d83",
    25: "ce251d7770cfe5bfaf9dc00fe8385430e455b753f81e747bed1c289830429669",
    26: "bff74eb3b31a05f13e8f327993c5c394049d6f9df3264c4fc765b28df2bb1128",
    27: "cc553f2ebc4ef5d885c5f28563eb68bda8e966fbd5dcaa18a86bba9fe77ddd5f",
    28: "57f60e259ffab5be8ab58e778fca14bb4b1c2e85a30a9fb640235f094e776470",
    29: "d5bff074cc6600aecd734971e0dd0953f7c9cb9d035bb105a72d412f1e0ca65f",
    30: "60d28a6c3dcd81f40f6d368ce072104bd6bfbc8df67f1b3f05100900e3a946b9",
}


if __name__ == "__main__":
    print("DIGESTS: dict[int, str] = {")
    for i, cell in enumerate(CONFIGS):
        print(f'    {i}: "{schedule_digest(run_config(cell))}",')
    print("}")
