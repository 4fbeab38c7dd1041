"""Smoke test of the harness itself: quarter-size cells, one rep, no timing claims.

    python benchmarks/hostbench/selftest.py

Checks that BENCHMARK.json and the metric catalogue agree, that every named
metric is emitted with its unit, that the traced layer times sum to the
traced wall, that call counts and simulated metrics repeat exactly across
invocations and seeds on the seed-independent workloads, and that the
transport and observability layers are never entered where they are
supposed to be bypassed.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from metrics import (  # noqa: E402
    CATALOGUE,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    ZERO_CALL_LAYERS,
    manifest_entries,
)

SEED_INDEPENDENT = ("sim_protocol", "plan_build", "observed")


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_manifest() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    check(manifest["end_to_end"] == manifest_entries(END_TO_END),
          "BENCHMARK.json end_to_end matches the catalogue")
    check(manifest["per_layer"] == manifest_entries(PER_LAYER),
          "BENCHMARK.json per_layer matches the catalogue")
    check([w["name"] for w in manifest["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json names the five workloads")
    check(manifest["paths"] == [os.path.relpath(HERE, run.ROOT)],
          "BENCHMARK.json paths is this directory")
    return manifest


def measure(job):
    """Seed 0: one plain and one traced rep, reduced.  Seed 1: a traced rep only."""
    name, seed, tmp_root = job
    tmp = os.path.join(tmp_root, f"{name}-{seed}")
    if seed:
        return run.run_rep(name, seed, True, "smoke", tmp)
    args = argparse.Namespace(seed=seed, size="smoke", reps=1, trace=1, seconds=None)
    return run.run_workload(name, args, tmp)


def main() -> int:
    manifest = check_manifest()
    tmp_root = os.path.join(run.ROOT, ".hostbench_tmp", f"selftest-{os.getpid()}")
    jobs = [(name, 0, tmp_root) for name in WORKLOADS]
    jobs += [(name, 1, tmp_root) for name in SEED_INDEPENDENT]
    try:
        # timing is not under test here, so two invocations may share the host
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = dict(zip([(n, s) for n, s, _ in jobs], pool.map(measure, jobs)))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    emitted: set[str] = set()
    for name in WORKLOADS:
        res = results[name, 0]
        check(res["correct"],
              f"{name}: correct, layer self times sum to the traced wall within 1% ({res['problems']})")
        check(res["median"]["ok_ratio"] == 1.0, f"{name}: ok_ratio == 1.0")
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(run.contract_line(res, trace))
            want = {m["name"]: m["unit"] for m in manifest[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == want, f"{name}: --trace {int(trace)} prints every {group} metric with its unit")
        total = sum(v for k, v in res["traced"].items() if k.endswith(".self_s"))
        check(total > 0, f"{name}: traced layers carry time ({total:.3f} s)")
        for layer in ZERO_CALL_LAYERS[name]:
            check(res["traced"][f"{layer}.calls"] == 0, f"{name}: {layer}.calls == 0")
        emitted |= {k for k, v in {**res["median"], **res["traced"]}.items() if v}
    never = sorted(set(CATALOGUE) - emitted)
    check(not never, f"every catalogue metric is non-zero on some workload ({never})")

    for name in SEED_INDEPENDENT:
        first, again = results[name, 0], results[name, 1]
        check(all(first["traced"][f"{layer}.calls"] == cell["calls"]
                  for layer, cell in again["layers"].items()),
              f"{name}: layer call counts repeat across invocations and seeds")
        exact = [k for k in first["median"] if CATALOGUE[k].rule == "exact"]
        check(all(first["median"][k] == again["values"][k] for k in exact),
              f"{name}: exact metrics repeat across invocations and seeds")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
