"""Ablation — fail-stop crash survival and the cost of checkpoints.

Runs jacobi and grav (a halo app and a reduction app) unoptimized at
8 nodes through four fail-stop conditions:

* ``clean``          — no crash (the baseline);
* ``crash-no-ckpt``  — node 2 fail-stops halfway through the clean run
                       and restarts 500 us later, but no
                       checkpoint was ever taken: nothing to roll back
                       to, so the run finishes *degraded*;
* ``crash-ckpt-1``   — the same crash with a checkpoint at every
                       barrier: detection, rollback to the last barrier
                       cut, re-execution, identical numerics;
* ``crash-ckpt-4``   — checkpoints every 4th barrier: cheaper writes,
                       longer re-execution after the rollback — and, for
                       a barrier-sparse app like grav (6 barriers, the
                       4th at ~85% of the run), possibly *no* checkpoint
                       before a mid-run crash, in which case the sparse
                       cell degrades exactly like the no-ckpt cell.

The crash instant is derived from each app's own clean run (elapsed/2),
so the scenario stays mid-run — past the first barrier checkpoint — at
any ``REPRO_PAPER_SCALE``.  Per cell
the bench records elapsed simulated time, checkpoint count and bytes,
rollbacks, detection latency and modelled outage, and the completion
flag; completed cells are numerics-checked against the uniprocessor
reference.  The matrix is written to ``BENCH_recovery.json`` so
``python -m repro.report --bench-dir`` can diff ablations without
re-running the suite.

Three properties should hold:

* recovery changes the clock, never the answer: every cell that took a
  checkpoint before the crash completes with the exact uniprocessor
  numerics and a clean audit, and never beats the clean cell's elapsed
  time;
* the checkpoint-interval trade-off is visible: ckpt-1 writes at least
  as many checkpoints as ckpt-4, and a cell whose interval left no
  checkpoint before the crash degrades rather than recovers;
* without a checkpoint the contract degrades instead of lying: the
  no-ckpt cell reports ``completed=False`` and names the crashed node.
"""

from benchmarks.conftest import print_table, run_matrix, write_artifact
from repro.tempest.config import ClusterConfig
from repro.tempest.faults import CrashScenario, FaultConfig

BENCH_APPS = ["jacobi", "grav"]
N_NODES = 8
CRASH_NODE = 2
RESTART_US = 500
JSON_PATH = "BENCH_recovery.json"

#: variant -> barriers between checkpoints (0 = never)
CHECKPOINT_EVERY = {"crash-no-ckpt": 0, "crash-ckpt-1": 1, "crash-ckpt-4": 4}

_US = 1_000


def crash_variants(t_crash_ns: int) -> dict[str, ClusterConfig]:
    # max_retries=6 keeps keepalive detection at ~8 ms instead of the
    # ~60 ms the default 32-retry budget would spend proving the death.
    scen = CrashScenario(CRASH_NODE, t_crash_ns, RESTART_US * _US)
    return {
        name: ClusterConfig(
            n_nodes=N_NODES,
            faults=FaultConfig(
                crashes=(scen,), max_retries=6, checkpoint_every=every
            ),
        )
        for name, every in CHECKPOINT_EVERY.items()
    }


def cell(result) -> dict:
    s = result.stats
    detected = None
    if s.crash_events and s.crash_events[0]["detected_t_ns"] is not None:
        detected = s.crash_events[0]["detected_t_ns"] - s.crash_events[0]["t_ns"]
    return {
        "elapsed_ns": result.elapsed_ns,
        "messages": s.total_messages,
        "events_dispatched": s.events_dispatched,
        "checkpoints": s.recovery_checkpoints,
        "checkpoint_bytes": s.recovery_checkpoint_bytes,
        "rollbacks": s.recovery_rollbacks,
        "recovery_ns": s.recovery_ns,
        "detect_latency_ns": detected,
        "completed": s.completed,
    }


def test_ablation_recovery_matrix(benchmark):
    def measure():
        # The crash instant is derived from each app's own clean run, so
        # the clean cells must land before that app's crash cells can
        # even be phrased (their batch finds the reference in the store).
        results = run_matrix(BENCH_APPS, {"clean": None}, N_NODES)
        for app, cells in results.items():
            variants = crash_variants(cells["clean"].elapsed_ns // 2)
            cells.update(run_matrix([app], variants, N_NODES)[app])
        return {
            app: {name: cell(r) for name, r in cells.items()}
            for app, cells in results.items()
        }

    matrix = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_table(
        f"Ablation: fail-stop recovery ({N_NODES} nodes, unopt)",
        ["app", "ms clean", "ms ckpt-1", "ms ckpt-4", "ckpts 1/4",
         "ckpt MB", "detect ms", "completed"],
        [
            [
                app,
                f"{c['clean']['elapsed_ns'] / 1e6:.1f}",
                f"{c['crash-ckpt-1']['elapsed_ns'] / 1e6:.1f}",
                f"{c['crash-ckpt-4']['elapsed_ns'] / 1e6:.1f}",
                f"{c['crash-ckpt-1']['checkpoints']}/"
                f"{c['crash-ckpt-4']['checkpoints']}",
                f"{c['crash-ckpt-1']['checkpoint_bytes'] / 1e6:.1f}",
                f"{(c['crash-ckpt-1']['detect_latency_ns'] or 0) / 1e6:.1f}",
                f"{'y' if c['crash-ckpt-1']['completed'] else 'n'}/"
                f"{'y' if c['crash-no-ckpt']['completed'] else 'n'}",
            ]
            for app, c in matrix.items()
        ],
    )

    write_artifact(
        JSON_PATH, matrix, N_NODES,
        watch=("crash-ckpt-1", "elapsed_ns", lambda ns: f"{ns / 1e6:.1f} ms"),
    )

    for app, cells in matrix.items():
        clean = cells["clean"]
        # The baseline never touches the recovery machinery.
        assert clean["completed"], app
        assert clean["checkpoints"] == 0 and clean["rollbacks"] == 0, app
        # No checkpoint: nothing to roll back to, degrade loudly.
        no_ckpt = cells["crash-no-ckpt"]
        assert not no_ckpt["completed"], app
        assert no_ckpt["rollbacks"] == 0, app
        assert no_ckpt["detect_latency_ns"] is not None, app
        # A cell recovers iff a checkpoint preceded the crash; ckpt-1
        # always has one (the crash is past the first barrier by
        # construction), sparser intervals may not.
        assert cells["crash-ckpt-1"]["checkpoints"] >= 1, app
        for name in ("crash-ckpt-1", "crash-ckpt-4"):
            rec = cells[name]
            if rec["checkpoints"] >= 1:
                assert rec["completed"], (app, name)
                assert rec["rollbacks"] >= 1, (app, name)
                assert rec["recovery_ns"] >= RESTART_US * _US, (app, name)
                assert rec["elapsed_ns"] >= clean["elapsed_ns"], (app, name)
            else:
                assert not rec["completed"], (app, name)
                assert rec["rollbacks"] == 0, (app, name)
        # Denser checkpoints write at least as often as sparse ones.
        assert (
            cells["crash-ckpt-1"]["checkpoints"]
            >= cells["crash-ckpt-4"]["checkpoints"]
        ), app
