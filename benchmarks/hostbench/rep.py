"""One (workload, rep) in this process: set-up, timed body, verification.

``run.py`` starts this file in a fresh interpreter per rep (with
``PYTHONHASHSEED=0`` and ``src/`` on ``PYTHONPATH``) and reads the one JSON
object it prints last.  ``--trace 1`` profiles the timed region with
cProfile and adds the per-layer self times and call counts.

Host times are scaled by the calibration passes taken nearest to them (see
``calibration.py``): set-up by the passes before and after it, everything
else by the passes around and inside the timed region.
"""

import time

from calibration import CAL_REF_S, calibrate

_CAL_START = calibrate()[0]
_T0 = time.perf_counter()  # before the imports set-up is charged for

import argparse
import cProfile
import gc
import json
import os
import resource
import sys

_WHO = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
#: host times measured before the timed region starts
SETUP_METRICS = ("setup_s", "apps.program_s", "runtime.uniproc_s")


def _cpu_s() -> float:
    """User + system time of this process and its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime for usage in map(resource.getrusage, _WHO)
    )


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return max(resource.getrusage(who).ru_maxrss for who in _WHO) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "smoke"), default="bench")
    ap.add_argument("--tmp", required=True, help="scratch directory for this rep")
    args = ap.parse_args(argv)

    import repro
    from layers import LayerMap, bucket_profile, layers_unmatched
    from metrics import CATALOGUE, HOST_TIME_UNITS
    from workloads import PARAMS, WORKLOADS

    os.makedirs(args.tmp, exist_ok=True)
    w = WORKLOADS[args.workload](PARAMS[args.size], args.seed, args.tmp)
    w.setup()
    setup_s = time.perf_counter() - _T0

    w.pause()
    speed_setup = CAL_REF_S / ((_CAL_START + w.cal_passes[0][0]) / 2)
    profiler = w.profiler = cProfile.Profile() if args.trace else None
    gc.collect()
    if profiler is not None:
        profiler.enable()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    w.body()
    t1, cpu1 = time.perf_counter(), _cpu_s()
    # the passes taken inside the region are not part of it
    wall_s = (t1 - t0) - sum(wall for wall, _ in w.cal_passes[1:])
    cpu_s = (cpu1 - cpu0) - sum(cpu for _, cpu in w.cal_passes[1:])
    w.warm()
    timed_s = (time.perf_counter() - t0) - sum(wall for wall, _ in w.cal_passes[1:])
    if profiler is not None:
        profiler.disable()
        w.profiler = None
    w.pause()

    w.verify()
    calibration = sum(wall for wall, _ in w.cal_passes) / len(w.cal_passes)
    speed = CAL_REF_S / calibration
    v = w.values
    v.update(setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s)
    for name in v:
        if CATALOGUE[name].unit in HOST_TIME_UNITS:
            v[name] *= speed_setup if name in SETUP_METRICS else speed
    v["host.calibration_s"] = calibration
    v["peak_rss_mb"] = _peak_rss_mb()
    v["events_per_s"] = v["sim_events"] / v["wall_s"]

    repro_root = os.path.dirname(os.path.abspath(repro.__file__))
    out = {
        "workload": args.workload,
        "values": v,
        "timed_s": timed_s * speed,
        "attempted": w.attempted,
        "failed": len(w.failed_cells),
        "failures": w.failures,
        "layers_unmatched": layers_unmatched(repro_root),
    }
    if profiler is not None:
        harness_root = os.path.dirname(os.path.abspath(__file__))
        layers = bucket_profile(
            profiler.getstats(), LayerMap(repro_root, harness_root)
        )
        for cell in layers.values():
            cell["self_s"] *= speed
        out["layers"] = layers
        out["profile_total_s"] = sum(x["self_s"] for x in layers.values())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
