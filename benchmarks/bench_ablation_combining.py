"""Ablation — the communication fast path (combining x adaptive RTO).

Runs the full application suite unoptimized through the 2x2 matrix of
{combining off/on} x {fixed/adaptive retransmission timer} and reports,
per app: wire messages, header-only control frames, absorbed messages,
elapsed simulated time, the engine's events-dispatched count (a
simulator wall-clock proxy — combined frames are dispatched once), and
the transport's repair counters.  The matrix runs over a minimally
faulty wire (1 ns jitter) so the reliable transport, and hence the RTO
choice, is actually engaged; numerics are cross-checked against the
uniprocessor reference in every cell.

The full matrix is written to ``BENCH_combining.json`` so downstream
tooling can diff ablations without re-running the suite.

Two properties should hold:

* combining removes control frames — on invalidation-heavy apps (jacobi)
  at least 20% of header-only frames leave the wire — and never changes
  numerics or the audit;
* combining is latency-neutral: cold channels transmit eagerly, so apps
  with no control-frame locality complete in the same simulated time.
"""

import pytest

from benchmarks.conftest import (
    APP_NAMES,
    print_table,
    run_matrix,
    write_artifact,
)
from repro.tempest.config import ClusterConfig, CombineConfig
from repro.tempest.faults import FaultConfig
from repro.tempest.stats import MsgKind

#: Header-only protocol/barrier kinds eligible for combining.
HEADER_KINDS = (
    MsgKind.INV,
    MsgKind.ACK,
    MsgKind.BARRIER_ARRIVE,
    MsgKind.BARRIER_RELEASE,
    MsgKind.SELF_INV,
    MsgKind.UPDATE_ACK,
)

N_NODES = 8
JSON_PATH = "BENCH_combining.json"


def header_frames(stats) -> int:
    kinds = stats.messages_by_kind()
    return (
        sum(kinds.get(k, 0) for k in HEADER_KINDS)
        + kinds.get(MsgKind.COMBINED, 0)
    )


def cell(result) -> dict:
    s = result.stats
    return {
        "elapsed_ns": result.elapsed_ns,
        "messages": s.total_messages,
        "header_frames": header_frames(s),
        "bytes": s.total_bytes,
        "events_dispatched": s.events_dispatched,
        "msgs_combined": s.total_msgs_combined,
        "combine_flushes": s.total_combine_flushes,
        "retransmits": s.total_retransmits,
        "spurious_retransmits": s.total_spurious_retransmits,
    }


VARIANTS = {
    f"{'combine' if combine else 'plain'}+{'adaptive' if adaptive else 'fixed'}":
    ClusterConfig(
        n_nodes=N_NODES,
        combine=CombineConfig(enabled=combine),
        faults=FaultConfig(jitter_ns=1, seed=0, adaptive_rto=adaptive),
    )
    for combine in (False, True)
    for adaptive in (False, True)
}


def test_ablation_combining_matrix(benchmark):
    def measure():
        # The whole (app x variant) matrix plus each app's uniprocessor
        # reference: 6 x (1 + 4) cells in one batch.
        results = run_matrix(APP_NAMES, VARIANTS, N_NODES)
        return {
            app: {name: cell(r) for name, r in cells.items()}
            for app, cells in results.items()
        }

    matrix = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for app, cells in matrix.items():
        base = cells["plain+fixed"]
        comb = cells["combine+fixed"]
        hdr_cut = 100 * (1 - comb["header_frames"] / max(base["header_frames"], 1))
        rows.append(
            [
                app,
                base["messages"],
                comb["messages"],
                base["header_frames"],
                comb["header_frames"],
                f"{hdr_cut:.1f}",
                comb["msgs_combined"],
                f"{base['elapsed_ns'] / 1e6:.1f}",
                f"{comb['elapsed_ns'] / 1e6:.1f}",
                base["events_dispatched"],
                comb["events_dispatched"],
            ]
        )
    print_table(
        f"Ablation: message combining ({N_NODES} nodes, unopt, 1 ns jitter wire)",
        ["app", "msgs", "msgs+c", "hdr", "hdr+c", "%hdr cut",
         "absorbed", "ms", "ms+c", "events", "events+c"],
        rows,
    )
    print_table(
        "Ablation: RTO mode (same runs, fixed vs adaptive timer)",
        ["app", "retrans fixed", "spurious fixed",
         "retrans adaptive", "spurious adaptive"],
        [
            [
                app,
                cells["plain+fixed"]["retransmits"],
                cells["plain+fixed"]["spurious_retransmits"],
                cells["plain+adaptive"]["retransmits"],
                cells["plain+adaptive"]["spurious_retransmits"],
            ]
            for app, cells in matrix.items()
        ],
    )

    write_artifact(JSON_PATH, matrix, N_NODES)

    # Combining never adds wire traffic, and on the invalidation-heavy
    # apps it removes a substantial share of the control frames.
    for app, cells in matrix.items():
        assert (cells["combine+fixed"]["messages"]
                <= cells["plain+fixed"]["messages"]), app
    jacobi = matrix["jacobi"]
    assert (jacobi["combine+fixed"]["header_frames"]
            <= 0.8 * jacobi["plain+fixed"]["header_frames"])
    assert (jacobi["combine+adaptive"]["header_frames"]
            <= 0.8 * jacobi["plain+adaptive"]["header_frames"])
    # Latency neutrality: the eager-leader design keeps completion time
    # within noise even where nothing combines.
    for app, cells in matrix.items():
        assert (cells["combine+fixed"]["elapsed_ns"]
                <= 1.05 * cells["plain+fixed"]["elapsed_ns"]), app
