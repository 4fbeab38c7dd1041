"""Cluster configuration, calibrated against the paper's Table 1.

The paper's measured platform:

===================================================  =================
Processor                                            66 MHz HyperSPARC
Minimum roundtrip latency for short (4 B) message    40 us
Network bandwidth                                    20 MB/s
Read-miss processing time, 128 B block, dual CPU     93 us
===================================================  =================

All times in this model are integral nanoseconds.  The derived quantities
below are chosen so that the three calibration microbenchmarks
(``benchmarks/bench_table1_calibration.py``) land on the paper's numbers:

* short-message roundtrip  = 2 * (send_overhead + wire_latency + dispatch)
                          ~= 40 us
* clean read miss (home has the data, home != requester, dual CPU)
    send_overhead + wire + request handler + wire + data serialization
    + response handler  ~= 93 us
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.spec import check_bounds, opt
from repro.tempest.faults import FaultConfig

__all__ = ["ClusterConfig", "CombineConfig", "SwitchConfig", "US", "MS"]

US = 1_000  # nanoseconds per microsecond
MS = 1_000_000


@dataclass(frozen=True)
class CombineConfig:
    """Protocol message combining (the communication fast path).

    When enabled, header-only control frames (protocol invalidations and
    acknowledgements, barrier notifications, transport acks) are coalesced
    per (src, dst) channel into a single combined frame: one header on the
    wire, one receiver-side dispatch, the sub-handlers run back to back.
    This extends the paper's Section 4.2 bulk-transfer idea — pay
    per-message overheads once — from data payloads to control traffic.

    The first control frame on a cold channel transmits immediately — an
    isolated frame never pays combining latency — but heats the channel:
    followers within the hold window (``COMBINE_MAX_WAIT_NS``, one
    short-message roundtrip), or frames finding the link busy, park in a
    per-channel combine buffer.  That is exactly the shape of the bursts
    the eager protocol emits — consecutive boundary-block invalidations,
    their acks, barrier fan-in.  A buffer flushes when it holds
    ``COMBINE_MAX_MSGS`` frames, when its oldest frame has waited the hold
    window, when the outgoing link goes idle after a busy spell, or when a
    non-combinable message to the same destination must not be overtaken.
    Transport acks combine only opportunistically (when their link is busy
    serializing), keeping RTT samples tight.  The constants live beside
    ``HEADER_BYTES`` in :mod:`repro.tempest.network`.

    Disabled (the default) the combining machinery is bypassed entirely:
    schedules are byte-identical to a build without it, the same
    revocability discipline the fault layer follows.
    """

    enabled: bool = opt(
        False, "--[no-]combine", "coalesce header-only control messages per "
        "channel (--no-combine restores the one-frame-per-message wire "
        "model)", axis="combine")


@dataclass(frozen=True)
class SwitchConfig:
    """Shared-switch contention model for the interconnect.

    The paper's cluster runs all traffic through one Myrinet switch, but
    the default network model is N independent FIFO links: frames to the
    same destination never queue behind each other.  Enabling this config
    routes every remote frame sender-link → switch output port → receiver:
    the one-way propagation splits in half around a store-and-forward hop
    on the destination's *output port*, a FIFO server forwarding at the
    link rate.  As in the paper's crossbar, every node has its own output
    port, so an uncontended frame pays exactly one extra store-and-forward
    serialization.  Frames racing to one hot destination serialize on its
    port, and the port's backlog *backpressures* the sender — the sending
    link stays held until the port accepts the frame (Myrinet's blocking
    flow control), so upstream traffic, the adaptive RTO's RTT samples,
    and the combining layer's link-busy parking all feel the congestion.

    Disabled (the default) none of the machinery is constructed and
    schedules are byte-identical to the link-only model — the same
    discipline the fault and combining layers follow.
    """

    enabled: bool = opt(
        False, "--[no-]switch", "route every frame through a shared switch "
        "fabric: frames to one destination queue on its output port and "
        "backpressure their senders (--no-switch keeps the independent-link "
        "wire model)", axis="switch")


def _cost(default: int):
    """A simulated cost in ns (or ns per unit): any non-negative integer."""
    return opt(default, ge=0)


@dataclass(frozen=True)
class ClusterConfig:
    """All tunables of the simulated cluster.

    The defaults reproduce the paper's platform; tests shrink block and page
    sizes to exercise corner cases cheaply.
    """

    n_nodes: int = opt(
        8, "--nodes", "simulated cluster size", axis="nodes", label="n",
        always=True, metavar="N", ge=1)
    block_size: int = 128           # bytes; "e.g. 32-128 bytes" -- paper uses 128
    page_size: int = 4096           # bytes; Tempest maps remote pages lazily

    # Dual-CPU configuration: protocol handlers run on a dedicated second
    # processor.  Single-CPU: handlers interrupt the compute processor.
    dual_cpu: bool = True

    # --- network -------------------------------------------------------- #
    wire_latency_ns: int = _cost(10 * US)       # one-way propagation + NI cost
    bandwidth_bytes_per_us: float = opt(20.0, gt=0)  # 20 MB/s == 20 bytes/us
    send_overhead_ns: int = _cost(5 * US)       # sender-side per-message CPU cost
    dispatch_overhead_ns: int = _cost(4 * US)   # receiver-side dispatch before handler

    # --- protocol handler occupancies ------------------------------------ #
    # Charged on the handling node's protocol CPU.
    handler_request_ns: int = _cost(30 * US)    # directory lookup + reply construction
    handler_response_ns: int = _cost(19 * US)   # install data, update tags
    handler_invalidate_ns: int = _cost(6 * US)  # invalidate a cached copy
    handler_ack_ns: int = _cost(4 * US)         # count an ack
    handler_data_recv_ns: int = _cost(10 * US)  # store an arriving compiler-pushed block
    handler_data_recv_per_block_ns: int = _cost(2 * US)  # extra per additional block in a payload

    # Single-CPU penalty: every handler execution on the shared CPU also
    # pays an interrupt/poll entry cost.
    interrupt_overhead_ns: int = _cost(10 * US)
    # Single-CPU only: computation is sliced into quanta so protocol
    # handlers can interleave (models interrupt-driven handling with
    # bounded dispatch latency).  Dual-CPU computations run unsliced.
    compute_quantum_ns: int = opt(100 * US, gt=0)

    # --- access-control fault costs -------------------------------------- #
    fault_detect_ns: int = _cost(3 * US)        # taking a fine-grain access fault

    # --- compiler-control primitive costs (Section 4.2) ------------------- #
    call_overhead_ns: int = _cost(2 * US)       # entering any run-time call
    tag_change_per_block_ns: int = _cost(250)   # flipping one block's access tag
    memoized_call_ns: int = _cost(1 * US)       # rt-elim fast path: test-only call
    max_payload_blocks: int = opt(16, ge=1)     # bulk transfer: blocks per message

    # --- message-passing backend (pghpf-MP comparator) ----------------- #
    # pghpf's runtime gathers/scatters array sections through pack buffers;
    # at 66 MHz this costs roughly a word every few cycles.  Charged on both
    # the sending and receiving compute CPU per payload byte.
    mp_pack_ns_per_byte: int = _cost(25)

    # --- compute model ---------------------------------------------------- #
    # 66 MHz HyperSPARC doing ~1 flop-equivalent per ~4 cycles on stencil
    # code => ~60 ns per element-update "work unit".  Applications report
    # work units per element; this converts them to time.
    compute_ns_per_unit: int = _cost(60)
    loop_overhead_ns: int = _cost(2 * US)       # per parallel-loop fixed cost

    # --- barrier / collectives --------------------------------------------- #
    # 'central' (combine at root, broadcast) or 'tree' (binomial).
    reduce_algorithm: str = opt("central", choices=("central", "tree"))

    # --- interconnect fault model ------------------------------------------ #
    # The default is a perfect wire (the paper's assumption); any nonzero
    # rate engages the reliable transport (see repro.tempest.transport).
    faults: FaultConfig = FaultConfig()

    # --- control-message combining ----------------------------------------- #
    # Off by default: schedules stay byte-identical to the uncombined
    # model.  Enabled, queued header-only control frames coalesce per
    # (src, dst) channel (see repro.tempest.network).
    combine: CombineConfig = CombineConfig()

    # --- shared-switch contention ------------------------------------------ #
    # Off by default: links stay independent and schedules byte-identical
    # to the link-only model.  Enabled, every remote frame routes through
    # a per-destination output port on a shared switch fabric (see
    # repro.tempest.network).
    switch: SwitchConfig = SwitchConfig()

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.block_size <= 0 or self.block_size % 8:
            raise ValueError("block_size must be a positive multiple of 8")
        if self.page_size % self.block_size:
            raise ValueError("page_size must be a multiple of block_size")
        # Every node id the config names must exist: an id past the end is
        # an IndexError mid-run (crash) or silently dead config (partition,
        # link profile).
        for what, nodes in (
            *(("faults.crashes", (c.node,)) for c in self.faults.crashes),
            *(("faults.partitions", s.nodes) for s in self.faults.partitions),
            *(("faults.link_faults", lf.key) for lf in self.faults.link_faults),
        ):
            outside = sorted(n for n in nodes if n >= self.n_nodes)
            if outside:
                raise ValueError(
                    f"{what} names node(s) {outside} outside the "
                    f"{self.n_nodes}-node cluster"
                )

    # ------------------------------------------------------------------ #
    @property
    def blocks_per_page(self) -> int:
        return self.page_size // self.block_size

    def transfer_ns(self, size_bytes: int) -> int:
        """Serialization time for ``size_bytes`` on the wire."""
        return int(size_bytes / self.bandwidth_bytes_per_us * US)

    def scaled(self, **kwargs: object) -> "ClusterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


# A small-footprint configuration used pervasively by the test-suite:
# 4 nodes, tiny blocks/pages so interesting boundary cases appear with
# arrays of a few dozen elements.
def small_config(**overrides: object) -> ClusterConfig:
    base = ClusterConfig(
        n_nodes=4,
        block_size=32,
        page_size=128,
    )
    if overrides:
        base = base.scaled(**overrides)
    return base
