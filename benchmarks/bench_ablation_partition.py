"""Ablation — asymmetric faults and partition survival.

Runs jacobi and shallow (the acceptance pair) unoptimized at 8 nodes
through four interconnect conditions:

* ``clean``             — perfect wire (the baseline);
* ``flaky-link``        — a per-link profile: one directed link drops 25%
                          of its frames while the rest of the cluster is
                          untouched;
* ``healed-partition``  — node 1 unreachable for a 3 ms window starting
                          at 200 us; channels that give up park their
                          frames and drain when the window closes;
* ``permanent-partition`` — the same cut, never healed: the run finishes
                          *degraded* (``completed=False``) with partial
                          stats and a failure report instead of a
                          traceback.

Per cell the bench records elapsed simulated time, message/byte counts,
reliability counters (drops, retransmits, give-ups), partition events and
the completion flag; completed cells are numerics-checked against the
uniprocessor reference.  The matrix is written to ``BENCH_partition.json``
so ``python -m repro.report --bench-dir`` can diff ablations without
re-running the suite.

Three properties should hold:

* overlays are *surgical*: the clean cell shows zero reliability counters,
  and completed faulty cells still reproduce the exact fault-free
  numerics;
* a healed partition costs only time: every give-up event drains
  (``healed`` on each event), the post-heal audit passes (run_shmem
  raises otherwise), and elapsed time never beats the clean cell;
* a permanent partition degrades instead of aborting: ``completed`` is
  False, the failure report names node 1 unreachable, and the counters
  accumulated before the give-up survive in the partial stats.
"""

from benchmarks.conftest import print_table, run_matrix, write_artifact
from repro.tempest.config import ClusterConfig
from repro.tempest.faults import FaultConfig, LinkFaultConfig, PartitionScenario

BENCH_APPS = ["jacobi", "shallow"]
N_NODES = 8
JSON_PATH = "BENCH_partition.json"

_US = 1_000


_WINDOW = dict(t_start_ns=200 * _US, nodes=frozenset({1}))
FAULTS = {
    "flaky-link": FaultConfig(
        seed=11, link_faults=(LinkFaultConfig(0, 1, drop_prob=0.25),)
    ),
    "healed-partition": FaultConfig(
        seed=11,
        partitions=(
            PartitionScenario("blip", duration_ns=3_000 * _US, **_WINDOW),
        ),
    ),
    "permanent-partition": FaultConfig(
        seed=11, max_retries=4,
        partitions=(PartitionScenario("dead", **_WINDOW),),
    ),
}
VARIANTS = {"clean": None} | {
    name: ClusterConfig(n_nodes=N_NODES, faults=faults)
    for name, faults in FAULTS.items()
}


def cell(result) -> dict:
    s = result.stats
    rel = s.reliability_summary()
    return {
        "elapsed_ns": result.elapsed_ns,
        "messages": s.total_messages,
        "bytes": s.total_bytes,
        "events_dispatched": s.events_dispatched,
        "drops": rel["drops"],
        "retransmits": rel["retransmits"],
        "gave_up": rel["gave_up"],
        "partition_events": len(s.partition_events),
        "healed_events": sum(1 for e in s.partition_events if e["healed"]),
        "completed": s.completed,
    }


def test_ablation_partition_matrix(benchmark):
    def measure():
        # The full (app x wire-condition) matrix plus per-app uniproc
        # references in one batch; degraded cells cache like any other (a
        # permanent cut is a deterministic outcome of its key).
        results = run_matrix(BENCH_APPS, VARIANTS, N_NODES)
        return {
            app: {name: cell(r) for name, r in cells.items()}
            for app, cells in results.items()
        }

    matrix = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_table(
        f"Ablation: partition survival ({N_NODES} nodes, unopt)",
        ["app", "ms clean", "ms flaky", "ms healed", "ms degraded",
         "give-ups", "healed ev", "drops flaky", "completed"],
        [
            [
                app,
                f"{c['clean']['elapsed_ns'] / 1e6:.1f}",
                f"{c['flaky-link']['elapsed_ns'] / 1e6:.1f}",
                f"{c['healed-partition']['elapsed_ns'] / 1e6:.1f}",
                f"{c['permanent-partition']['elapsed_ns'] / 1e6:.1f}",
                c["healed-partition"]["gave_up"],
                c["healed-partition"]["healed_events"],
                c["flaky-link"]["drops"],
                f"{'y' if c['healed-partition']['completed'] else 'n'}/"
                f"{'y' if c['permanent-partition']['completed'] else 'n'}",
            ]
            for app, c in matrix.items()
        ],
    )

    write_artifact(
        JSON_PATH, matrix, N_NODES,
        watch=("healed-partition", "elapsed_ns", lambda ns: f"{ns / 1e6:.1f} ms"),
    )

    for app, cells in matrix.items():
        clean = cells["clean"]
        # The baseline never touches the reliability machinery.
        assert clean["drops"] == 0 and clean["gave_up"] == 0, app
        assert clean["completed"], app
        # The flaky link bites, is repaired, and the run completes.
        flaky = cells["flaky-link"]
        assert flaky["completed"] and flaky["drops"] > 0, app
        assert flaky["retransmits"] > 0, app
        # A healed partition costs time, never correctness.
        healed = cells["healed-partition"]
        assert healed["completed"], app
        assert healed["gave_up"] > 0, app
        assert healed["healed_events"] == healed["partition_events"], app
        assert healed["elapsed_ns"] >= clean["elapsed_ns"], app
        # A permanent partition degrades with its partial stats intact.
        dead = cells["permanent-partition"]
        assert not dead["completed"], app
        assert dead["gave_up"] > 0, app
        assert dead["healed_events"] == 0, app
        assert dead["messages"] > 0, app
