"""Exact RunResult equality and cross-run regression attribution.

``RunResult`` is a dataclass, but ``a == b`` raises on the ndarray dict
(numpy refuses truth-testing elementwise comparisons), so the differential
tests need an explicit predicate.  This is *bitwise* equality — no
tolerances: the simulator is deterministic, and the serve layer's whole
correctness contract is that caching and process pools change nothing.

:func:`diff_breakdowns` goes beyond equality: given two *profiled* runs
(``profile_phases`` + ``critical_path``) it aligns their per-phase and
critical-path decompositions and attributes the elapsed-time delta to
named phases, nodes and cost classes — the ``repro diff`` backend.
"""

from __future__ import annotations

import dataclasses

from repro.runtime.results import RunResult, _value_equal

__all__ = [
    "assert_results_equal",
    "diff_breakdowns",
    "render_diff",
    "results_equal",
]


def results_equal(a: RunResult, b: RunResult) -> bool:
    """True iff every field of two results is exactly equal (ndarray-aware)."""
    return a.exact_equal(b)


def assert_results_equal(a: RunResult, b: RunResult, context: str = "") -> None:
    """Raise ``AssertionError`` naming the first differing field."""
    prefix = f"{context}: " if context else ""
    for f in dataclasses.fields(RunResult):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if not _value_equal(va, vb):
            if f.name == "arrays":
                for name in sorted(set(va) | set(vb)):
                    xa, xb = va.get(name), vb.get(name)
                    if not _value_equal(xa, xb):
                        raise AssertionError(
                            f"{prefix}RunResult.arrays[{name!r}] differs"
                        )
            raise AssertionError(
                f"{prefix}RunResult.{f.name} differs:\n  a={va!r}\n  b={vb!r}"
            )


# --------------------------------------------------------------------- #
# cross-run regression attribution (``repro diff``)
# --------------------------------------------------------------------- #
def _d3(a: int, b: int) -> dict:
    return {"a": a, "b": b, "delta": b - a}


def diff_breakdowns(a: RunResult, b: RunResult) -> dict:
    """Align two profiled runs and attribute the elapsed delta (B − A).

    Returns a structured diff with three aligned views, each decomposing
    the same ``elapsed_ns`` delta a different way:

    * ``classes`` — critical-path cost classes (compute/wire/...), whose
      deltas sum *exactly* to the elapsed delta (both decompositions sum
      to their run's elapsed time to the nanosecond);
    * ``nodes``   — critical-path time by the node it ran on (also exact);
    * ``phases``  — per-phase bucket totals from the phase breakdown,
      aligned on each phase's own ``index`` (summed over nodes, so
      overlapped work counts once per node — these deltas attribute
      *work*, not the single critical chain).

    Views missing from either run (not profiled) come back ``None``.
    A self-diff is all-zero by construction.
    """
    from repro.obs.critical import COST_CLASSES

    out: dict = {
        "elapsed_ns": _d3(a.elapsed_ns, b.elapsed_ns),
        "classes": None,
        "nodes": None,
        "phases": None,
    }
    ca, cb = a.critical_path, b.critical_path
    if ca is not None and cb is not None:
        out["classes"] = {
            cls: _d3(ca["classes"].get(cls, 0), cb["classes"].get(cls, 0))
            for cls in COST_CLASSES
        }
        na, nb = ca["classes_by_node"], cb["classes_by_node"]
        out["nodes"] = [
            {
                "node": i,
                **_d3(
                    sum(na[i].values()) if i < len(na) else 0,
                    sum(nb[i].values()) if i < len(nb) else 0,
                ),
            }
            for i in range(max(len(na), len(nb)))
        ]
    pa_bd, pb_bd = a.phase_breakdown, b.phase_breakdown
    if pa_bd is not None and pb_bd is not None:
        # Align on each phase's own index (the number ``--profile-phases``
        # prints), never on list position: one run may have a phase the
        # other lacks, e.g. the synthetic ``startup`` phase 0.
        pa = {p["index"]: p for p in pa_bd["phases"]}
        pb = {p["index"]: p for p in pb_bd["phases"]}
        phases = []
        for index in sorted(pa.keys() | pb.keys()):
            ta = pa[index]["total_ns"] if index in pa else {}
            tb = pb[index]["total_ns"] if index in pb else {}
            phases.append(
                {
                    "index": index,
                    "label": (pb.get(index) or pa[index])["label"],
                    **_d3(sum(ta.values()), sum(tb.values())),
                    "buckets": {
                        k: _d3(ta.get(k, 0), tb.get(k, 0))
                        for k in (tb or ta)
                    },
                }
            )
        out["phases"] = phases
    return out


def render_diff(diff: dict, max_rows: int = 8) -> str:
    """Terminal rendering of :func:`diff_breakdowns` with attribution."""
    e = diff["elapsed_ns"]
    ms = lambda ns: ns / 1e6  # noqa: E731 — local formatting shorthand
    lines = [
        f"elapsed: a={ms(e['a']):.3f} ms  b={ms(e['b']):.3f} ms  "
        f"delta={ms(e['delta']):+.3f} ms"
    ]
    movers: list[tuple[int, str]] = []
    if diff["classes"] is not None:
        lines.append("critical-path cost classes (delta = b - a, sums exactly):")
        for cls, d in diff["classes"].items():
            lines.append(
                f"  {cls:<18} a={ms(d['a']):10.3f}  b={ms(d['b']):10.3f}  "
                f"delta={ms(d['delta']):+10.3f} ms"
            )
            if d["delta"]:
                movers.append((abs(d["delta"]), f"cost class {cls!r} ({ms(d['delta']):+.3f} ms)"))
    if diff["nodes"] is not None:
        moved = [n for n in diff["nodes"] if n["delta"]]
        moved.sort(key=lambda n: -abs(n["delta"]))
        if moved:
            lines.append("critical-path time by node (nonzero movers):")
            for n in moved[:max_rows]:
                lines.append(
                    f"  node {n['node']:<3} a={ms(n['a']):10.3f}  "
                    f"b={ms(n['b']):10.3f}  delta={ms(n['delta']):+10.3f} ms"
                )
            top = moved[0]
            movers.append(
                (abs(top["delta"]), f"node {top['node']} ({ms(top['delta']):+.3f} ms)")
            )
    if diff["phases"] is not None:
        moved_p = [p for p in diff["phases"] if p["delta"]]
        moved_p.sort(key=lambda p: -abs(p["delta"]))
        if moved_p:
            lines.append("phase work deltas (summed over nodes, nonzero movers):")
            for p in moved_p[:max_rows]:
                bd = max(p["buckets"].items(), key=lambda kv: abs(kv[1]["delta"]))
                lines.append(
                    f"  phase {p['index']:>3} {p['label'][:20]:<20} "
                    f"delta={ms(p['delta']):+10.3f} ms "
                    f"(mostly {bd[0]}: {ms(bd[1]['delta']):+.3f} ms)"
                )
            top = moved_p[0]
            movers.append(
                (
                    abs(top["delta"]),
                    f"phase {top['index']} {top['label']!r} "
                    f"({ms(top['delta']):+.3f} ms)",
                )
            )
    if e["delta"] == 0 and not movers:
        lines.append("runs are identical: every aligned component is zero-delta")
    elif movers:
        movers.sort(key=lambda m: -m[0])
        lines.append(
            "attribution: " + "; ".join(m[1] for m in movers[:3])
        )
    return "\n".join(lines)
