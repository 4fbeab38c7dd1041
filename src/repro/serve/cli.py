"""``repro sweep`` / ``repro diff`` — serve-layer front ends.

Sweep examples::

    # 2 apps x combine on/off, two workers, persistent cache
    python -m repro sweep jacobi cg --axis combine=off,on \\
        --jobs 2 --cache-dir .repro-cache

    # re-run warm and insist the cache actually served it
    python -m repro sweep jacobi cg --axis combine=off,on \\
        --jobs 2 --cache-dir .repro-cache --min-hit-rate 0.9

    # prove parallel+cached == serial in-process (CI smoke)
    python -m repro sweep jacobi cg --axis combine=off,on \\
        --jobs 2 --check-serial --json sweep.json

While a sweep runs, a single live progress line on stderr tracks
completed / in-flight / cache-hit / computed / degraded counts as
futures resolve (suppress with ``--quiet``).

Diff — the cross-run regression attributor — serves two cells of the
same app (with phase profiling and the critical-path analyzer forced
on, so cached sweep cells from a ``profile=on`` axis warm-hit) and
attributes the elapsed delta to named cost classes, nodes and phases::

    python -m repro diff jacobi combine=off combine=on \\
        --cache-dir .repro-cache

Exit codes (both commands): 0 ok; 2 bad usage; 3 hit rate below
``--min-hit-rate``; 4 some cell finished degraded (results still
printed/written; diff cannot attribute a degraded run); 5 a
``--check-serial`` cell differed from its serial rerun (serve bug —
should never happen).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Sequence

from repro.apps import APPS
from repro.spec import OptionError, add_flags, from_args, usage
from repro.tempest.config import ClusterConfig

from repro.serve.compare import diff_breakdowns, render_diff
from repro.serve.matrix import axis_help, cell_label, expand_matrix, parse_axis_specs
from repro.serve.request import RunRequest
from repro.serve.runner import ServeSession, execute_request

__all__ = ["build_diff_parser", "build_sweep_parser", "diff_main", "sweep_main"]


def build_sweep_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a (apps x axes) config matrix with caching and "
        "parallel workers;\nevery cell is bit-identical to a serial "
        "in-process run.",
        epilog="axes (--scale and --nodes set every cell; the axis of the "
        "same name overrides\nthem per cell):\n" + axis_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("apps", nargs="+", choices=sorted(APPS),
                   help="applications to sweep")
    p.add_argument("--axis", action="append", default=[],
                   metavar="NAME=V1,V2,...",
                   help="one matrix axis (repeatable); see the table below")
    _add_shared_flags(p)
    p.add_argument("--check-serial", action="store_true",
                   help="re-run every cell serially in-process and require "
                        "exact RunResult equality (correctness harness; "
                        "doubles the work)")
    p.add_argument("--min-hit-rate", type=float, default=None, metavar="R",
                   help="exit 3 unless cache hits / requests >= R "
                        "(warm-cache assertion for CI)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the live progress line on stderr")
    return p


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    """What ``sweep`` and ``diff`` both take: ``--scale``/``--nodes`` (the
    base every cell starts from) and the session/output flags."""
    add_flags(p, RunRequest, only=("scale",))
    add_flags(p, ClusterConfig, only=("n_nodes",))
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (default 1: serial in-process)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persistent result/plan cache directory (default: "
                        "no disk cache); point diff at a sweep's cache to "
                        "diff cached cells without recomputing")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore --cache-dir: compute every cell")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the results table / structured diff as JSON")


def _serve_with_progress(sess: ServeSession, requests, quiet: bool):
    """Serve the batch, updating one stderr line as futures resolve.

    The line rewrites itself in place (``\\r``) with completed / in-flight
    / cache-hit / computed / degraded counts; callbacks may fire from pool
    wrapper threads, so the counters sit behind a lock.  Results come back
    in request order regardless of completion order.
    """
    total = len(requests)
    state = {"done": 0, "hits": 0, "computed": 0, "degraded": 0}
    lock = threading.Lock()

    def _line() -> str:
        return (
            f"sweep: {state['done']}/{total} done, "
            f"{total - state['done']} in flight, "
            f"{state['hits']} cache hits, {state['computed']} computed, "
            f"{state['degraded']} degraded"
        )

    def _note(fut) -> None:
        with lock:
            state["done"] += 1
            if fut.exception() is None:
                sr = fut.result()
                if sr.source == "cache":
                    state["hits"] += 1
                elif sr.source == "computed":
                    state["computed"] += 1
                if not sr.result.completed:
                    state["degraded"] += 1
            if not quiet:
                print(f"\r{_line():<78}", end="", file=sys.stderr, flush=True)

    served = sess.run_batch(requests, on_done=_note)
    if not quiet:
        print(f"\r{_line():<78}", file=sys.stderr)
    return served


def _table(rows: list[dict]) -> str:
    cols = ["app", "cell", "elapsed_ms", "comm_ms", "misses/node", "source"]
    widths = {c: len(c) for c in cols}
    rendered = []
    for row in rows:
        r = {
            "app": row["app"],
            "cell": row["cell"],
            "elapsed_ms": f"{row['elapsed_ms']:.3f}",
            "comm_ms": f"{row['comm_ms']:.3f}",
            "misses/node": f"{row['misses_per_node']:.1f}",
            "source": row["source"] + ("" if row["completed"] else " DEGRADED"),
        }
        rendered.append(r)
        for c in cols:
            widths[c] = max(widths[c], len(r[c]))
    lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
    lines.append("  ".join("-" * widths[c] for c in cols))
    for r in rendered:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def sweep_main(argv: Sequence[str] | None = None) -> int:
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    try:
        axes = parse_axis_specs(args.axis)
        base = from_args(ClusterConfig, args)
        requests = expand_matrix(args.apps, axes, scale=args.scale, base_config=base)
    except ValueError as e:
        # Every cell is built, and so validated, before any is submitted.
        parser.error(usage(e, ClusterConfig) if isinstance(e, OptionError) else str(e))
    cache_dir = None if args.no_cache else args.cache_dir
    print(
        f"sweep: {len(args.apps)} app(s) x {max(1, len(requests) // max(1, len(args.apps)))} "
        f"config(s) = {len(requests)} cells, jobs={args.jobs}, "
        f"cache={'off' if cache_dir is None else cache_dir}"
    )

    t0 = time.perf_counter()
    with ServeSession(jobs=args.jobs, cache_dir=cache_dir) as sess:
        served = _serve_with_progress(sess, requests, quiet=args.quiet)
        stats = sess.stats()
    wall_s = time.perf_counter() - t0

    mismatches = 0
    if args.check_serial:
        for sr in served:
            serial = execute_request(sr.request)
            if not serial.exact_equal(sr.result):
                mismatches += 1
                print(
                    f"MISMATCH: {sr.request.label()} [{cell_label(sr.request)}] "
                    f"differs from its serial in-process rerun",
                    file=sys.stderr,
                )

    rows = []
    for sr in served:
        r = sr.result
        rows.append({
            "app": sr.request.app or r.program,
            "cell": cell_label(sr.request),
            "key": sr.key,
            "elapsed_ms": r.elapsed_ms,
            "comm_ms": r.comm_ms,
            "misses_per_node": r.misses_per_node,
            "completed": r.completed,
            "source": sr.source,
            "where": sr.where,
        })

    print()
    print(_table(rows))
    print()
    hit_rate = stats["hit_rate"]
    print(
        f"served {stats['requests']} requests in {wall_s:.2f}s wall: "
        f"{stats['cache_hits']} cached, {stats['computed']} computed "
        f"({stats['pool']} pooled), {stats['deduped']} deduped; "
        f"hit rate {hit_rate:.0%}"
    )
    if args.check_serial and not mismatches:
        print(f"check-serial: all {len(served)} cells exactly equal to "
              "serial in-process runs")

    if args.json:
        payload = {
            "cells": rows,
            "stats": stats,
            "wall_s": wall_s,
            "jobs": args.jobs,
            "cache_dir": cache_dir,
            "check_serial": bool(args.check_serial),
            "mismatches": mismatches,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
        print(f"wrote {args.json}")

    if mismatches:
        return 5
    if args.min_hit_rate is not None and hit_rate < args.min_hit_rate:
        print(
            f"hit rate {hit_rate:.0%} below required "
            f"{args.min_hit_rate:.0%}",
            file=sys.stderr,
        )
        return 3
    if any(not row["completed"] for row in rows):
        return 4
    return 0


# --------------------------------------------------------------------- #
# repro diff — cross-run regression attribution
# --------------------------------------------------------------------- #
def build_diff_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro diff",
        description="Serve two cells of one app with phase profiling and "
        "critical-path analysis, align their decompositions, "
        "and name the cost classes / nodes / phases that "
        "account for the elapsed-time delta.",
    )
    p.add_argument("app", choices=sorted(APPS), help="application to diff")
    p.add_argument("cell_a", metavar="CELL_A",
                   help="run A: comma-separated axis=value settings "
                        "(e.g. 'combine=off,drop=0', overriding --scale/"
                        "--nodes); '-' means all defaults")
    p.add_argument("cell_b", metavar="CELL_B",
                   help="run B, same syntax as CELL_A")
    _add_shared_flags(p)
    return p


def _diff_request(app: str, spec: str, scale: str, base: ClusterConfig):
    """One cell spec ('axis=value,axis=value' or '-') -> one RunRequest.

    Profiling + critical path are forced on (so the decompositions exist
    to diff) unless the spec sets ``profile`` itself; that keeps the keys
    identical to a ``profile=on`` sweep axis, so sweep caches warm-hit.
    """
    parts = [] if spec in ("-", "") else [s for s in spec.split(",") if s]
    axes = parse_axis_specs(parts)
    for name, values in axes.items():
        if len(values) != 1:
            raise ValueError(
                f"cell spec {spec!r}: axis {name!r} must have exactly one value"
            )
    axes.setdefault("profile", [True])
    (request,) = expand_matrix([app], axes, scale=scale, base_config=base)
    return request


def diff_main(argv: Sequence[str] | None = None) -> int:
    parser = build_diff_parser()
    args = parser.parse_args(argv)
    try:
        base = from_args(ClusterConfig, args)
        req_a = _diff_request(args.app, args.cell_a, args.scale, base)
        req_b = _diff_request(args.app, args.cell_b, args.scale, base)
    except ValueError as e:
        parser.error(usage(e, ClusterConfig) if isinstance(e, OptionError) else str(e))
    cache_dir = None if args.no_cache else args.cache_dir

    with ServeSession(jobs=args.jobs, cache_dir=cache_dir) as sess:
        sa, sb = sess.run_batch([req_a, req_b])

    for name, sr in (("a", sa), ("b", sb)):
        print(
            f"{name}: {sr.request.label()} [{cell_label(sr.request)}] "
            f"({sr.source})"
        )
    if not (sa.result.completed and sb.result.completed):
        which = " and ".join(
            n for n, sr in (("a", sa), ("b", sb)) if not sr.result.completed
        )
        print(
            f"cannot attribute: run {which} finished degraded "
            "(no exact decomposition exists for an unfinished run)",
            file=sys.stderr,
        )
        return 4

    diff = diff_breakdowns(sa.result, sb.result)
    print(render_diff(diff))

    if args.json:
        payload = {
            "app": args.app,
            "a": {"cell": cell_label(sa.request), "key": sa.key,
                  "source": sa.source},
            "b": {"cell": cell_label(sb.request), "key": sb.key,
                  "source": sb.source},
            "diff": diff,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(sweep_main())
