"""The counter cross-check at paper scale (CI's ``paper-smoke`` job):

    PYTHONPATH=src:. python -m tests.obs.counters_paper

grav at the paper's problem size, fault-free, optimized with co-operative
prefetch, through the shared switch with message combining on, under a
``MetricsRegistry`` — the test matrix only ever runs n=32..64 grids.
Prints every ``diff`` line and exits nonzero if there is one.
"""

import sys

from repro.apps import get_app
from repro.obs import EventBus, MetricsRegistry
from repro.runtime import run_shmem
from repro.tempest.config import ClusterConfig, CombineConfig, SwitchConfig

if __name__ == "__main__":
    config = ClusterConfig()
    bus = EventBus()
    registry = MetricsRegistry(bus, config.n_nodes)
    result = run_shmem(
        get_app("grav").program("paper"), config, optimize=True, advisory="full",
        switch=SwitchConfig(enabled=True), combine=CombineConfig(enabled=True), obs=bus,
    )
    mismatches = registry.diff(result.stats)
    print("\n".join(mismatches) or f"{bus.events_published} events, 0 mismatches")
    sys.exit(bool(mismatches))
