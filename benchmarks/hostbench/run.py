"""hostbench: where the simulator's host wall goes, workload by workload.

    python benchmarks/hostbench/run.py [--workload W] [--seed N] [--reps K]
                                       [--seconds S] [--trace [0|1]] [--out FILE]
    python benchmarks/hostbench/run.py --compare A.json B.json

Every (workload, rep) runs in a fresh subprocess (``rep.py``); a rep sets
up, runs the timed body once and verifies every cell.  Timings are medians
over the reps; simulated counters must be identical in every rep.  With
``--trace 1`` one more rep runs under cProfile and its self time is split
by layer.  ``--seconds`` keeps starting reps, at least three, while the
next one should still end within that long of the first one's start (so it
bounds the whole run, set-up included); ``--reps`` fixes the count instead.

With one ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from calibration import CAL_REF_S  # noqa: E402
from metrics import (  # noqa: E402
    CATALOGUE,
    END_TO_END,
    PER_LAYER,
    TRACED_NAMES,
    WORKLOADS,
    ZERO_CALL_LAYERS,
    spread,
)

SCHEMA = "hostbench/1"
MIN_REPS, MAX_REPS, DEFAULT_REPS, TRACE_REPS = 3, 10, 5, 2
REP_TIMEOUT_S = 170
#: Σ layer self time vs the traced region's wall; the gap is time the
#: profiler spends outside any frame
PROFILE_SUM_TOLERANCE = 0.01


# --------------------------------------------------------------------- #
# running reps
# --------------------------------------------------------------------- #
def run_rep(workload: str, seed: int, trace: bool, size: str, tmp: str) -> dict:
    """One rep in a fresh interpreter; returns the JSON object it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--size", size, "--tmp", tmp,
    ]
    # Its own process group, so a hung rep's pool workers die with it.
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: rep exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, args, tmp_root: str) -> dict:
    """All reps of one workload, reduced to medians and checks."""
    reps: list[dict] = []

    def rep(trace: bool) -> dict:
        tmp = os.path.join(tmp_root, f"{workload}-{len(reps)}-{int(trace)}")
        out = run_rep(workload, args.seed, trace, args.size, tmp)
        if not trace:
            reps.append(out)
        return out

    if args.reps:
        for _ in range(args.reps):
            rep(False)
    elif args.trace:
        for _ in range(TRACE_REPS):
            rep(False)
    else:
        started, longest = time.perf_counter(), 0.0
        while len(reps) < MIN_REPS or (
            len(reps) < MAX_REPS
            and time.perf_counter() - started + longest <= args.seconds
        ):
            t0 = time.perf_counter()
            rep(False)
            longest = max(longest, time.perf_counter() - t0)
    traced = rep(True) if args.trace else None

    every = reps + ([traced] if traced else [])
    problems = [f for r in every for f in r["failures"]]
    names = sorted({k for r in reps for k in r["values"]})
    samples = {k: [r["values"].get(k, 0) for r in reps] for k in names}
    for name in names:
        seen = [r["values"].get(name, 0) for r in every]
        if CATALOGUE[name].rule == "exact" and len(set(seen)) > 1:
            problems.append(f"{workload}: {name} differs between reps: {seen}")
    result = {
        "reps": len(reps),
        "samples": samples,
        "median": {k: statistics.median(v) for k, v in samples.items()},
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "layers_unmatched": reps[0]["layers_unmatched"],
    }
    if traced:
        result["traced"], layer_problems = reduce_trace(workload, traced, reps)
        problems += layer_problems
    result["problems"] = problems
    result["correct"] = not problems and result["failed"] == 0
    return result


def reduce_trace(workload: str, traced: dict, reps: list[dict]):
    """Layer metrics of the traced rep, and the invariants they must keep."""
    values, problems = {}, []
    for layer, cell in traced["layers"].items():
        values[f"{layer}.self_s"] = cell["self_s"]
        values[f"{layer}.calls"] = cell["calls"]
    untraced = statistics.median(r["timed_s"] for r in reps)
    values["trace.overhead_x"] = traced["timed_s"] / untraced
    gap = abs(traced["profile_total_s"] - traced["timed_s"]) / traced["timed_s"]
    if gap > PROFILE_SUM_TOLERANCE:
        problems.append(
            f"{workload}: layer self times sum to {traced['profile_total_s']:.4f} s, "
            f"traced wall is {traced['timed_s']:.4f} s"
        )
    for layer in ZERO_CALL_LAYERS[workload]:
        calls = traced["layers"][layer]["calls"]
        if calls:
            problems.append(f"{workload}: {layer} entered {calls} times, expected 0")
    return values, problems


# --------------------------------------------------------------------- #
# printing
# --------------------------------------------------------------------- #
def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4f}" if abs(value) < 1e4 else f"{value:.1f}"
    return f"{int(value)}"


def print_workload(name: str, res: dict, seed: int) -> None:
    verdict = "correct" if res["correct"] else "INCORRECT"
    print(
        f"\n== {name}: seed {seed}, {res['reps']} reps, {verdict}, "
        f"{res['attempted'] - res['failed']}/{res['attempted']} cells ok"
    )
    for problem in res["problems"]:
        print(f"   ! {problem}")
    if res["layers_unmatched"]:
        print(f"   layers_unmatched: {', '.join(res['layers_unmatched'])}")
    print(f"   {'metric':<32}{'median':>16}  {'unit':<8}{'n':>3}{'iqr%':>8}")
    for metric in END_TO_END + PER_LAYER:
        if metric.name in TRACED_NAMES:
            continue
        if metric.name not in res["median"]:
            continue
        values = res["samples"][metric.name]
        sp = spread(values)
        iqr = "" if sp is None or metric.rule == "exact" else f"{100 * sp:.1f}"
        print(
            f"   {metric.name:<32}{_fmt(res['median'][metric.name]):>16}  "
            f"{metric.unit:<8}{len(values):>3}{iqr:>8}"
        )
    if "traced" in res:
        print("   -- traced rep: self time by layer (sums to the traced wall)")
        for metric in PER_LAYER:
            if metric.name in res["traced"]:
                print(
                    f"   {metric.name:<32}{_fmt(res['traced'][metric.name]):>16}  "
                    f"{metric.unit:<8}"
                )


def contract_line(res: dict, trace: bool) -> str:
    """The one-line result the benchmark driver reads."""
    if trace:
        source = {**res["median"], **res["traced"]}
        wanted = PER_LAYER
    else:
        source, wanted = res["median"], END_TO_END
    return json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m.name: {"value": source.get(m.name, 0), "unit": m.unit} for m in wanted
        },
    })


# --------------------------------------------------------------------- #
# comparing two result files
# --------------------------------------------------------------------- #
def compare(path_a: str, path_b: str) -> int:
    """Apply the per-metric rules to two ``--out`` files; 1 on regression."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    for key in ("schema", "seed", "size"):
        if a.get(key) != b.get(key):
            print(f"cannot compare: {key} differs ({a.get(key)!r} vs {b.get(key)!r})")
            return 2
    print(f"A: {path_a} (calibration_s {a['calibration_s']:.4f})")
    print(f"B: {path_b} (calibration_s {b['calibration_s']:.4f})")
    regressions = unresolved = 0
    for name in WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if not wa or not wb:
            continue
        print(f"\n== {name}")
        print(f"   {'metric':<32}{'A':>14}{'B':>14}{'change':>9}  verdict")
        for metric in END_TO_END + PER_LAYER:
            traced = metric.name in TRACED_NAMES
            ma = wa.get("traced" if traced else "median", {}).get(metric.name)
            mb = wb.get("traced" if traced else "median", {}).get(metric.name)
            if ma is None or mb is None:
                continue
            change = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else math.inf)
            if metric.rule == "exact":
                verdict = "ok" if ma == mb else "REGRESSION (exact metric changed)"
            elif metric.rule == "bound":
                worse = change if metric.better == "lower" else -change
                sa, sb = wa["samples"][metric.name], wb["samples"][metric.name]
                spreads = [s for s in (spread(sa), spread(sb)) if s is not None]
                if metric.better == "lower":
                    separated = max(sb) < min(sa)
                else:
                    separated = min(sb) > max(sa)
                if worse > metric.bound:
                    verdict = f"REGRESSION (> {100 * metric.bound:.0f}%)"
                elif any(s > metric.bound for s in spreads) and not separated:
                    verdict = "unresolved (spread exceeds the bound)"
                else:
                    verdict = "ok"
            else:
                verdict = ""
            regressions += verdict.startswith("REGRESSION")
            unresolved += verdict.startswith("unresolved")
            print(
                f"   {metric.name:<32}{_fmt(ma):>14}{_fmt(mb):>14}"
                f"{100 * change:>8.1f}%  {verdict}"
            )
    print(f"\n{regressions} regressions, {unresolved} unresolved")
    return 1 if regressions else 0


# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all five")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--reps", type=int, help="untraced reps per workload")
    ap.add_argument("--seconds", type=float,
                    help="start reps while the next should end within this long")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="add one rep under cProfile")
    ap.add_argument("--size", choices=("bench", "smoke"), default="bench",
                    help="smoke: selftest.py's quarter-size variant")
    ap.add_argument("--out", help="write every sample to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"hostbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    if args.reps is None and args.seconds is None and not args.trace:
        args.reps = DEFAULT_REPS

    # so that a terminated run still kills its rep and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp_root = os.path.join(ROOT, ".hostbench_tmp", str(os.getpid()))
    results = {}
    try:
        for name in [args.workload] if args.workload else WORKLOADS:
            results[name] = run_workload(name, args, tmp_root)
            print_workload(name, results[name], args.seed)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass  # another run is using it

    calibration = statistics.median(
        r["median"]["host.calibration_s"] for r in results.values()
    )
    print(
        f"\ncalibration_s {calibration:.4f} s as measured (pure-Python loop); "
        f"host times above are scaled to a host where it takes {CAL_REF_S} s"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "schema": SCHEMA,
                    "seed": args.seed,
                    "size": args.size,
                    "calibration_s": calibration,
                    "calibration_ref_s": CAL_REF_S,
                    "cpus": os.cpu_count(),
                    "python": sys.version.split()[0],
                    "workloads": results,
                },
                fh, indent=1, sort_keys=True,
            )
        print(f"wrote {args.out}")
    if args.workload:
        print(contract_line(results[args.workload], bool(args.trace)))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
