"""Deterministic fault injection for the simulated interconnect.

The paper's Tempest substrate assumes a reliable Myrinet: every message
arrives exactly once, in order, after a fixed latency.  Production DSM
transports cannot assume this, so :class:`FaultConfig` describes an
*imperfect* wire — per-message drop and duplication probabilities, bounded
latency jitter, and occasional protocol-CPU stall windows — and
:mod:`repro.tempest.transport` layers a reliable, exactly-once, in-order
delivery discipline on top of it.

Real clusters additionally fail *asymmetrically*: one flaky NIC drops a
third of its frames while every other link is clean, one congested uplink
jitters, one rack loses its switch entirely.  Two overlays describe that:

* :class:`LinkFaultConfig` overrides any uniform fault axis for one
  directed ``(src, dst)`` link — the rest of the cluster keeps the
  uniform (possibly all-zero) rates;
* :class:`PartitionScenario` makes a named node set unreachable from
  ``t_start_ns`` for ``duration_ns`` (``None`` = the partition never
  heals).  While a scenario is active, every frame crossing the partition
  boundary is cut the moment it leaves its sender's link.

Determinism contract
--------------------
The simulation engine forbids wall-clock entropy (every run must be
bit-for-bit replayable), so all fault decisions are drawn from seeded
``random.Random`` streams owned by the transport: one shared stream for
links running on the uniform config, plus one *private* stream per link
carrying a :class:`LinkFaultConfig` overlay (seeded from ``(seed, src,
dst)``), so adding a profile to one link never perturbs the draw sequence
of any other.  Draws happen inside engine event callbacks, whose order is
fully determined by the event heap; therefore the tuple ``(program,
config, seed)`` pins every drop, duplicate, jitter value and stall — two
runs with the same seed produce identical statistics and identical
timing.  Partition windows consume no randomness at all: they are pure
functions of simulated time.

With the default (all-zero) configuration the transport layer is bypassed
entirely: no sequence numbers, no acks, no RNG draws — message counts and
completion times are byte-identical to a build without this module.
A config with only uniform rates (no overlays, no partitions) draws from
the shared stream exactly as it always has, so uniform-fault runs are
byte-identical to builds without the overlay machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spec import OptionError, Rule, changed, check, check_bounds, opt, refusal

__all__ = [
    "CrashScenario",
    "FaultConfig",
    "LinkFaultConfig",
    "PartitionScenario",
]

_US = 1_000  # nanoseconds per microsecond (kept local to avoid a cycle)
_INJECTED, _CRASH = "under fault injection", "with a crash scenario"


def _tunes(name: str, what: str, when: str, runs) -> Rule:
    """The row refusing ``name`` off its default unless ``runs(config)``."""
    return Rule((name,), lambda c: runs(c) or not changed(c, (name,)),
                f"{name} tunes {what}, which runs only {when}, so this config would ignore it")


@dataclass(frozen=True)
class LinkFaultConfig:
    """Fault overrides for one directed ``(src, dst)`` link.

    Every axis defaults to ``None`` — *inherit the uniform value* — so a
    profile states only what makes this link special: a flaky NIC is
    ``LinkFaultConfig(3, 0, drop_prob=0.3)`` on an otherwise clean
    cluster.  Links with a profile draw from their own seeded RNG stream;
    all other links share the uniform stream, untouched.
    """

    src: int = opt(ge=0)
    dst: int = opt(ge=0)
    drop_prob: float | None = opt(None, ge=0, lt=1)
    dup_prob: float | None = opt(None, ge=0, lt=1)
    jitter_ns: int | None = opt(None, ge=0, unit=1000)
    stall_prob: float | None = opt(None, ge=0, lt=1)
    stall_ns: int | None = opt(None, ge=0, unit=1000)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.src == self.dst:
            raise OptionError(
                ("src", "dst"),
                f"loopback sends never cross the wire; a fault profile for "
                f"({self.src}, {self.dst}) would be dead config",
                LinkFaultConfig, lead=False,
            )

    @property
    def key(self) -> tuple[int, int]:
        return (self.src, self.dst)


@dataclass(frozen=True)
class PartitionScenario:
    """A named node set unreachable for a window of simulated time.

    While active (``t_start_ns <= now < t_start_ns + duration_ns``) every
    frame whose endpoints straddle the partition boundary — exactly one of
    them in ``nodes`` — is cut at the moment it leaves its sender's link;
    transport acks crossing the boundary are cut the same way.  Traffic
    wholly inside either side is untouched.  ``duration_ns=None`` means
    the partition never heals: channels that give up stay parked and the
    run finishes *degraded* instead of aborting.
    """

    name: str
    nodes: frozenset[int]
    t_start_ns: int = opt(0, ge=0)
    duration_ns: int | None = opt(None, gt=0)   # None: never heals

    def __post_init__(self) -> None:
        # Accept any iterable of node ids; freeze it for hashability.
        object.__setattr__(self, "nodes", frozenset(int(n) for n in self.nodes))
        if not self.nodes:
            raise refusal(self, "nodes", f"partition {self.name!r} has an empty node set")
        if any(n < 0 for n in self.nodes):
            raise refusal(self, "nodes", f"partition {self.name!r} names a negative node id")
        check_bounds(self)

    @property
    def heals(self) -> bool:
        return self.duration_ns is not None

    @property
    def heal_ns(self) -> int | None:
        """The instant the window closes; ``None`` when it never does."""
        if self.duration_ns is None:
            return None
        return self.t_start_ns + self.duration_ns

    def active_at(self, t_ns: int) -> bool:
        if t_ns < self.t_start_ns:
            return False
        return self.duration_ns is None or t_ns < self.t_start_ns + self.duration_ns

    def separates(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are on opposite sides of the cut."""
        return (a in self.nodes) != (b in self.nodes)


@dataclass(frozen=True)
class CrashScenario:
    """A node fail-stop at a fixed simulated instant.

    At ``t_ns`` the node stops executing: its replay program is cancelled,
    queued handlers never fire, and every in-flight frame to or from it
    vanishes at arrival time *without an ack* — peers learn of the failure
    only through the transport's liveness layer (unacked data frames and
    per-channel heartbeat probes exhausting their retransmit budget).

    ``restart_delay_ns=None`` means the node never comes back: the run
    finishes *degraded* under the existing contract.  With a delay, the
    node restarts ``restart_delay_ns`` after the crash and — provided a
    checkpoint exists (``--checkpoint-every``) — the whole cluster rolls
    back to the last barrier-consistent checkpoint and re-replays.
    """

    node: int = opt(ge=0)
    t_ns: int = opt(ge=0)
    restart_delay_ns: int | None = opt(None, ge=0)   # None: fail-stop forever

    def __post_init__(self) -> None:
        check_bounds(self)

    @property
    def restarts(self) -> bool:
        return self.restart_delay_ns is not None


@dataclass(frozen=True)
class FaultConfig:
    """Fault model plus reliable-transport tuning for one cluster.

    All-zero fault rates (the default) mean a perfect wire; the reliable
    transport is then bypassed completely so fault-free runs cost nothing.
    ``link_faults`` overlays per-link overrides on the uniform axes;
    ``partitions`` adds timed unreachability windows — either alone also
    engages the transport.
    """

    # --- the imperfect wire ------------------------------------------- #
    drop_prob: float = opt(
        0.0, "--fault-drop", "per-message drop probability in [0, 1), per "
        "wire copy", axis="drop", metavar="P", ge=0, lt=1)
    dup_prob: float = opt(
        0.0, "--fault-dup", "per-message duplication probability in [0, 1)",
        axis="dup", metavar="P", ge=0, lt=1)
    jitter_ns: int = opt(
        0, "--fault-jitter", "max extra per-message latency, uniform in "
        "[0, jitter] (microseconds)", axis="jitter_us", unit=1000,
        metavar="US", ge=0)
    stall_prob: float = opt(
        0.0, "--fault-stall", "per-delivery protocol-CPU stall probability "
        "in [0, 1); needs --fault-stall-us", metavar="P", ge=0, lt=1)
    stall_ns: int = opt(
        0, "--fault-stall-us", "length of one protocol-CPU stall window "
        "(microseconds); needs --fault-stall", unit=1000, metavar="US", ge=0)

    # --- determinism -------------------------------------------------- #
    seed: int = opt(
        0, "--fault-seed", "fault-injection PRNG seed (same seed => same "
        "run)", axis="seed", metavar="N")

    # --- reliable-delivery tuning ------------------------------------- #
    retransmit_timeout_ns: int = opt(120 * _US, gt=0)  # initial ack timeout (~3 RTT)
    max_retries: int = opt(
        32, "--fault-retries", "retransmit budget per frame before the "
        "channel gives up and parks its traffic; needs fault injection",
        metavar="N", ge=1)

    # --- adaptive retransmission (congestion-aware RTO) ---------------- #
    # With ``adaptive_rto`` the fixed timer above only seeds the estimate:
    # each (src, dst) channel keeps a Jacobson-style smoothed RTT
    # (SRTT/RTTVAR, RTO = SRTT + 4·RTTVAR) measured ack-to-send on
    # non-retransmitted frames (Karn's rule), clamped between the fixed
    # timeout and ``rto_max_ns``.  Bulk payload serialization and
    # congestion then inflate the RTO instead of firing spurious
    # retransmits.
    #
    # The floor is the fixed timeout itself: the adaptive timer never
    # fires *earlier* than the timer it replaces, it only waits longer
    # when the measured path — or the frame's own serialization time —
    # justifies it.  Ack round trips on a congested link routinely spike
    # past any tight floor learned from quiet-period samples, so an
    # aggressive floor trades real retransmit storms for a latency win
    # that a correctly-sized fixed timer already banked.
    adaptive_rto: bool = opt(
        False, "--rto-adaptive", "per-channel Jacobson RTT estimator for "
        "the reliable transport's retransmit timer (needs fault injection)")
    rto_max_ns: int = opt(
        2_000 * _US, "--rto-max-us", "ceiling for the retransmit timer in "
        "microseconds, applied to both the exponential backoff and the "
        "adaptive-RTO clamp; raise it when bulk bursts queue behind the "
        "wire for longer than the cap, or every deep-queued frame "
        "retransmits spuriously; needs fault injection", unit=1000,
        metavar="US", gt=0)

    # --- asymmetric failure overlays ----------------------------------- #
    # Per-link overrides of the uniform axes above (each link with a
    # profile draws from its own seeded RNG stream) and named partition
    # windows.  Empty (the default): the overlay machinery is never
    # consulted and uniform draws are byte-identical to builds before it.
    link_faults: tuple[LinkFaultConfig, ...] = ()
    partitions: tuple[PartitionScenario, ...] = ()

    # --- node fail-stop + recovery -------------------------------------- #
    # ``crashes`` schedules whole-node fail-stops (see CrashScenario).  A
    # crash config arms per-channel heartbeat probes: every channel sends a
    # header-only keepalive after ``heartbeat_interval_ns`` of silence, and
    # the probe rides the ordinary retransmit machinery — a dead peer is
    # *detected* when the probe (or any data frame) exhausts its budget.
    # ``checkpoint_every`` > 0 snapshots protocol state every K completed
    # barriers (a globally consistent cut); the modeled write cost is
    # ``checkpoint_cost_ns_per_kb`` per KiB of shared memory, charged by
    # deferring the barrier release.  Both need a crash (rows of ``RULES``
    # refuse them without one): crash-free configs take no probes, no
    # snapshots, and no extra draws.
    crashes: tuple[CrashScenario, ...] = ()
    heartbeat_interval_ns: int = opt(
        500 * _US, "--heartbeat-us", "keepalive probe interval for crash "
        "detection in microseconds; smaller detects faster but probes more; "
        "needs --fault-crash", unit=1000, metavar="US", gt=0)
    checkpoint_every: int = opt(
        0, "--checkpoint-every", "snapshot coherence state and replay "
        "cursors every K global barriers (a barrier is a consistent cut; "
        "0 = off); enables rollback-recovery for restarting crashes; needs "
        "--fault-crash", metavar="K", ge=0)
    checkpoint_cost_ns_per_kb: int = opt(50, ge=0)  # ~20 GB/s local snapshot rate

    #: The rules across this config's fields (``repro.spec`` rows): tuning
    #: for machinery a config never runs is refused, not ignored.
    RULES = (
        Rule(("stall_prob", "stall_ns"), lambda c: not c.stall_prob or c.stall_ns,
             "stall_prob set but stall_ns is zero"),
        Rule(("rto_max_ns", "retransmit_timeout_ns"),
             lambda c: c.rto_max_ns >= c.retransmit_timeout_ns,
             "rto_max_ns must be >= retransmit_timeout_ns"),
        _tunes("adaptive_rto", "the retransmit timer", _INJECTED, lambda c: c.enabled),
        _tunes("rto_max_ns", "the retransmit timer", _INJECTED, lambda c: c.enabled),
        _tunes("max_retries", "the retransmit budget", _INJECTED, lambda c: c.enabled),
        # the uniform window stalls the uniform probability's deliveries and
        # those of every link profile that inherits it
        _tunes("stall_ns", "the protocol-CPU stall window", "with a stall_prob that uses it",
               lambda c: c.stall_prob or any(
                   lf.stall_prob and lf.stall_ns is None for lf in c.link_faults)),
        _tunes("heartbeat_interval_ns", "crash detection", _CRASH, lambda c: c.crashes),
        _tunes("checkpoint_every", "rollback-recovery", _CRASH, lambda c: c.crashes),
    )

    def __post_init__(self) -> None:
        """Bounds, then ``RULES``, then the checks on single scenario
        entries; every refusal is an ``OptionError`` naming its fields."""
        # Tolerate lists for the overlay fields; freeze to tuples.
        for name, cls in (
            ("link_faults", LinkFaultConfig),
            ("partitions", PartitionScenario),
            ("crashes", CrashScenario),
        ):
            entries = tuple(getattr(self, name))
            object.__setattr__(self, name, entries)
            for entry in entries:
                if not isinstance(entry, cls):
                    raise refusal(
                        self, name, f"{name} entries must be {cls.__name__}; got {entry!r}"
                    )
        check_bounds(self)
        check(self, self.RULES, lead=False)
        seen: set[tuple[int, int]] = set()
        for lf in self.link_faults:
            if lf.key in seen:
                raise refusal(
                    self, "link_faults", f"link_faults has two profiles for link {lf.key}"
                )
            seen.add(lf.key)
            # The *effective* stall config (override falling back to the
            # uniform value) must satisfy the same rule as the uniform one.
            eff_prob = lf.stall_prob if lf.stall_prob is not None else self.stall_prob
            eff_ns = lf.stall_ns if lf.stall_ns is not None else self.stall_ns
            if eff_prob and not eff_ns:
                raise refusal(
                    self, "link_faults",
                    f"link_faults profile {lf.key}: stall_prob set but "
                    "effective stall_ns is zero",
                )
            if lf.stall_ns is not None and not eff_prob:
                raise refusal(
                    self, "link_faults",
                    f"link_faults profile {lf.key}: stall_ns set but "
                    "effective stall_prob is zero",
                )
        names = [s.name for s in self.partitions]
        if len(names) != len(set(names)):
            raise refusal(
                self, "partitions", f"partitions has duplicate scenario names: {names}"
            )
        crash_nodes: set[int] = set()
        for c in self.crashes:
            if c.node in crash_nodes:
                raise refusal(
                    self, "crashes", f"crashes names node {c.node} more than once"
                )
            crash_nodes.add(c.node)

    @property
    def enabled(self) -> bool:
        """True when any fault mechanism is active (transport engaged)."""
        return bool(
            self.drop_prob or self.dup_prob or self.jitter_ns or self.stall_prob
            or self.link_faults or self.partitions or self.crashes
        )

    def link_overrides(self) -> dict[tuple[int, int], "LinkFaultConfig"]:
        """The per-link profiles keyed by ``(src, dst)``."""
        return {lf.key: lf for lf in self.link_faults}
