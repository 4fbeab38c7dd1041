"""Engine-speed bench and perf-regression guard (``BENCH_engine.json``).

Two modes, one artifact:

* ``--write`` measures host wall time (and, within it, the functional
  pass's ``build_s``) and event throughput for the app × scale matrix on
  the current tree and refreshes ``BENCH_engine.json`` (``engine-speed/1``
  schema, rendered in the report appendix).  Baseline (``old_*``,
  ``*_old``) numbers come either from ``--baseline-src <path>`` — the
  same measurements run in a subprocess against a checkout of the
  baseline commit — or, for the matrix, are carried over from the
  existing artifact.

* ``--check`` is the CI guard: it re-measures the acceptance pair's
  *off* cells (unoptimized, no observability bus — exactly
  ``bench_ablation_obs.run_cell(prog, "off")``), the *fault* cell (the
  same shallow off-cell on a lossy wire, so the reliable transport's
  per-frame path is timed too), the *protocol* cells (pde unoptimized
  under each coherence protocol: demand misses, so every active-message
  handler is timed) and the functional pass's
  *build* cells (``build_shmem_plan`` alone, optimized: lu and jacobi at
  default scale, and lu at n=512, whose matrix outgrows the cache — the
  layer the engine cells barely touch) and fails
  when host wall regresses more than ``--budget`` (default 20%) against
  the recorded values.  Raw wall times are not portable across runners,
  so both sides are normalized by a pure-Python calibration loop timed on
  the same host and stored in the artifact (``calibration_s``).

Usage::

    python benchmarks/bench_engine_speed.py --write [--baseline-src DIR]
    python benchmarks/bench_engine_speed.py --check [--budget 1.2]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

#: Make ``benchmarks`` importable when invoked as a script from anywhere.
_ROOT = os.path.abspath(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

N_NODES = 8
JSON_PATH = "BENCH_engine.json"
#: (app, scale, repeats) — paper cells run once (they are tens of seconds)
MATRIX = [
    ("jacobi", "default", 3),
    ("jacobi", "paper", 1),
    ("shallow", "default", 3),
    ("shallow", "paper", 1),
    ("grav", "default", 3),
    ("grav", "paper", 1),
    ("pde", "default", 3),
    ("pde", "paper", 1),
    ("lu", "default", 3),
    ("lu", "paper", 1),
]
#: The guard's cells: the acceptance pair's off-cells (BENCH_obs semantics).
GUARD_APPS = ("jacobi", "shallow")
GUARD_REPEATS = 3
#: The guard's functional-pass cells: cell -> (app, program parameters
#: over the default scale, ``build_shmem_plan`` options).  lu: ~250 loop
#: instances planned once; jacobi: numerics, rt-elim retention and the PRE
#: tracker every loop; lu at n=512: a matrix that outgrows the cache, so
#: the numerics' memory layout shows.
BUILD_CELLS = {
    "lu": ("lu", {}, dict(optimize=True, rt_elim=True)),
    "jacobi": ("jacobi", {}, dict(optimize=True, rt_elim=True, pre=True)),
    "lu/n=512": ("lu", dict(n=512), dict(optimize=True, rt_elim=True)),
}
BUILD_REPEATS = 5
#: The guard's fault cells: an off-cell under FaultConfig(**kwargs) — the
#: only guard cells that run the reliable transport.
FAULT_CELLS = {
    "shallow": dict(drop_prob=0.02, dup_prob=0.01, jitter_ns=10_000),
}
#: The guard's protocol cells: cell -> (app, coherence protocol), default
#: scale, unoptimized — the demand-miss traffic the off cells barely make.
PROTOCOL_CELLS = {
    "pde/invalidate": ("pde", "invalidate"),
    "pde/update": ("pde", "update"),
}


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop — a host-speed yardstick."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(2_000_000):
            s += i & 7
        best = min(best, time.perf_counter() - t0)
    assert s >= 0
    return best


def measure_cell(app: str, scale: str, repeats: int) -> dict:
    """Host wall and its functional pass (min of ``repeats`` each) +
    events for one optimized run."""
    from repro.apps import APPS
    from repro.runtime.shmem import build_shmem_plan, execute_shmem_plan
    from repro.tempest.config import ClusterConfig

    prog = APPS[app].program(scale)
    cfg = ClusterConfig(n_nodes=N_NODES)
    best = best_build = math.inf
    events = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        plan = build_shmem_plan(prog, cfg, optimize=True, rt_elim=(app != "cg"))
        t1 = time.perf_counter()
        r = execute_shmem_plan(plan, cfg)
        best = min(best, time.perf_counter() - t0)
        best_build = min(best_build, t1 - t0)
        events = r.stats.events_dispatched
    return {
        "host_wall_s": round(best, 4),
        "build_s": round(best_build, 4),
        "events": events,
        "events_per_sec": int(events / best),
    }


def measure_off_cell(app: str, repeats: int) -> float:
    """Host wall (min of ``repeats``) of one BENCH_obs-style off cell."""
    from benchmarks.bench_ablation_obs import run_cell
    from repro.apps import APPS

    prog = APPS[app].program("default")
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_cell(prog, "off")
        best = min(best, time.perf_counter() - t0)
    return best


def measure_fault_cell(app: str, repeats: int) -> float:
    """Host wall (min of ``repeats``) of one off cell on a lossy wire."""
    from repro.apps import APPS
    from repro.runtime import run_shmem
    from repro.tempest.config import ClusterConfig
    from repro.tempest.faults import FaultConfig

    prog = APPS[app].program("default")
    faults = FaultConfig(**FAULT_CELLS[app])
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_shmem(prog, ClusterConfig(n_nodes=N_NODES, faults=faults))
        best = min(best, time.perf_counter() - t0)
    return best


def measure_protocol_cell(cell: str, repeats: int) -> float:
    """Host wall (min of ``repeats``) of one unoptimized run under one
    coherence protocol."""
    from repro.apps import APPS
    from repro.runtime import run_shmem
    from repro.tempest.config import ClusterConfig

    app, protocol = PROTOCOL_CELLS[cell]
    prog = APPS[app].program("default")
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_shmem(prog, ClusterConfig(n_nodes=N_NODES), protocol=protocol)
        best = min(best, time.perf_counter() - t0)
    return best


def measure_build_cell(cell: str, repeats: int) -> float:
    """Host wall (min of ``repeats``) of one functional pass."""
    from repro.apps import APPS
    from repro.runtime.shmem import build_shmem_plan
    from repro.tempest.config import ClusterConfig

    app, params, opts = BUILD_CELLS[cell]
    prog = APPS[app].program(**params)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        build_shmem_plan(prog, ClusterConfig(n_nodes=N_NODES), **opts)
        best = min(best, time.perf_counter() - t0)
    return best


def measure_matrix() -> dict:
    out: dict = {}
    for app, scale, repeats in MATRIX:
        out.setdefault(app, {})[scale] = measure_cell(app, scale, repeats)
        print(f"  {app}/{scale}: {out[app][scale]['host_wall_s']}s",
              file=sys.stderr, flush=True)
    return out


def measure_off_cells() -> dict:
    return {a: round(measure_off_cell(a, GUARD_REPEATS), 4) for a in GUARD_APPS}


def measure_fault_cells() -> dict:
    return {a: round(measure_fault_cell(a, GUARD_REPEATS), 4) for a in FAULT_CELLS}


def measure_protocol_cells() -> dict:
    return {c: round(measure_protocol_cell(c, GUARD_REPEATS), 4)
            for c in PROTOCOL_CELLS}


def measure_build_cells() -> dict:
    return {c: round(measure_build_cell(c, BUILD_REPEATS), 4) for c in BUILD_CELLS}


#: The guarded cell families: artifact key -> measurement function.
GUARDED = {
    "off_cells": measure_off_cells,
    "fault_cells": measure_fault_cells,
    "protocol_cells": measure_protocol_cells,
    "build_cells": measure_build_cells,
}


def _baseline_measure(baseline_src: str, fn: str = "measure_matrix") -> dict:
    """Run one of this module's measurement functions against another tree."""
    code = (
        "import json,sys;"
        f"sys.path.insert(0, {_ROOT!r});"
        f"from benchmarks.bench_engine_speed import {fn};"
        f"print(json.dumps({fn}()))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(baseline_src))
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    if res.returncode != 0:
        raise RuntimeError(f"baseline measurement failed:\n{res.stderr}")
    return json.loads(res.stdout.splitlines()[-1])


def write(args: argparse.Namespace) -> int:
    apps = measure_matrix()
    old: dict = {}
    if args.baseline_src:
        print(f"measuring baseline from {args.baseline_src} ...", flush=True)
        old = _baseline_measure(args.baseline_src)
    elif os.path.exists(args.json):
        with open(args.json) as fh:
            prev = json.load(fh)
        old = {
            a: {s: {"host_wall_s": c["old_host_wall_s"],
                    "events_per_sec": c["old_events_per_sec"]}
                for s, c in cells.items() if "old_host_wall_s" in c}
            for a, cells in prev.get("apps", {}).items()
        }
    speedups = []
    for app, cells in apps.items():
        for scale, cell in cells.items():
            b = old.get(app, {}).get(scale)
            if not b:
                continue
            cell["old_host_wall_s"] = round(b["host_wall_s"], 4)
            cell["old_events_per_sec"] = int(b["events_per_sec"])
            if "build_s" in b:
                cell["old_build_s"] = round(b["build_s"], 4)
            cell["speedup"] = round(b["host_wall_s"] / cell["host_wall_s"], 2)
            speedups.append(cell["speedup"])
    doc = {
        "schema": "engine-speed/1",
        "baseline_commit": args.baseline_commit,
        "n_nodes": N_NODES,
        "repeats": 3,
        "flags": {"optimize": True, "bulk": True},
        "geomean_speedup": round(
            math.exp(sum(map(math.log, speedups)) / len(speedups)), 2
        ) if speedups else None,
        "apps": apps,
        "calibration_s": round(calibration_s(), 4),
    }
    for key, measure in GUARDED.items():
        new = doc[key] = measure()
        if args.baseline_src:
            old_cells = _baseline_measure(args.baseline_src, measure.__name__)
            doc[f"{key}_old"] = old_cells
            doc[f"{key}_speedup"] = {
                c: round(old_cells[c] / new[c], 2) for c in new if c in old_cells
            }
    with open(args.json, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.json} (geomean {doc['geomean_speedup']}x)")
    return 0


def check(args: argparse.Namespace) -> int:
    with open(args.json) as fh:
        doc = json.load(fh)
    recorded_off = doc.get("off_cells")
    recorded_calib = doc.get("calibration_s")
    if not recorded_off or not recorded_calib:
        print(f"{args.json} lacks off_cells/calibration_s; run --write first")
        return 2
    calib = calibration_s()
    scale = recorded_calib / calib  # >1: this host is faster than recorder
    print(f"calibration: recorded {recorded_calib}s, here {calib:.4f}s "
          f"(normalizing x{scale:.2f})")
    failed = []
    guards = [
        ("off-cell", recorded_off, lambda app: measure_off_cell(app, GUARD_REPEATS)),
        # Absent from artifacts written before the fault cell existed.
        ("fault", doc.get("fault_cells", {}),
         lambda app: measure_fault_cell(app, GUARD_REPEATS)),
        # Absent from artifacts written before the protocol cells existed.
        ("protocol", doc.get("protocol_cells", {}),
         lambda cell: measure_protocol_cell(cell, GUARD_REPEATS)),
        # Absent from artifacts written before the build cells existed.
        ("build", doc.get("build_cells", {}),
         lambda cell: measure_build_cell(cell, BUILD_REPEATS)),
    ]
    for kind, cells, measure in guards:
        for app, recorded in cells.items():
            wall = measure(app)
            normalized = wall * scale
            budget = recorded * args.budget
            verdict = "ok" if normalized <= budget else "REGRESSION"
            print(f"  {app} {kind}: {wall:.3f}s raw, {normalized:.3f}s "
                  f"normalized vs {recorded}s recorded "
                  f"(budget {budget:.3f}s) {verdict}")
            if normalized > budget:
                failed.append(f"{app} {kind}")
    if failed:
        print(f"host wall regressed >"
              f"{round((args.budget - 1) * 100)}% for: {', '.join(failed)}")
        return 1
    print("engine perf guard: ok")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    p.add_argument("--json", default=JSON_PATH)
    p.add_argument("--baseline-src", default=None,
                   help="path to a baseline checkout's src/ for old_* numbers")
    p.add_argument("--baseline-commit", default="bfcfe3e")
    p.add_argument("--budget", type=float, default=1.2,
                   help="allowed guard-cell wall ratio vs recorded (1.2 = +20%%)")
    args = p.parse_args(argv)
    return write(args) if args.write else check(args)


if __name__ == "__main__":
    raise SystemExit(main())
