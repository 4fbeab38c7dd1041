"""Tempest-style fine-grain distributed shared memory, simulated.

This subpackage models the substrate of the paper: an 8-node cluster of
workstations running user-level software DSM with *fine-grain access
control* — per-cache-block (default 128 byte) access tags consulted on every
shared-memory access, user-level protocol handlers, and active messages over
a Myrinet-class network.

The pieces:

``config``      cluster parameters, calibrated to the paper's Table 1
``memory``      the global shared segment: arrays, pages, blocks, homes
``access``      per-node per-block access tags (Invalid/ReadOnly/ReadWrite)
``directory``   home-node directory state (Idle/Shared/Exclusive)
``protocol``    the default eager-invalidate release-consistent protocol
``network``     message transport with latency + bandwidth + link occupancy
``node``        a cluster node: compute CPU, protocol CPU, pending set
``barrier``     message-based centralized barrier with release fences
``extensions``  the compiler-control primitives of the paper's Section 4.2
``stats``       miss/message/time accounting
``faults``      deterministic interconnect fault model (drop/dup/jitter)
``transport``   reliable delivery (acks, retransmit, dedup) over faulty wires
``audit``       end-of-run coherence auditor
``cluster``     glues everything together
"""

from repro.tempest.access import AccessTag
from repro.tempest.audit import CoherenceAuditError, audit_coherence, audit_violations
from repro.tempest.cluster import Cluster
from repro.tempest.config import ClusterConfig, CombineConfig, SwitchConfig
from repro.tempest.directory import DirState
from repro.tempest.faults import (
    FaultConfig,
    LinkFaultConfig,
    PartitionScenario,
)
from repro.tempest.memory import (
    Distribution,
    GlobalArray,
    HomePolicy,
    SharedMemory,
)
from repro.tempest.stats import ClusterStats, MsgKind, NodeStats

__all__ = [
    "AccessTag",
    "Cluster",
    "ClusterConfig",
    "ClusterStats",
    "CoherenceAuditError",
    "CombineConfig",
    "DirState",
    "Distribution",
    "FaultConfig",
    "GlobalArray",
    "HomePolicy",
    "LinkFaultConfig",
    "MsgKind",
    "NodeStats",
    "PartitionScenario",
    "SharedMemory",
    "SwitchConfig",
    "audit_coherence",
    "audit_violations",
]
