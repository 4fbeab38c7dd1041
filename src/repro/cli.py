"""Command-line interface: ``python -m repro <app> [options]``.

Runs one of the paper's applications on the simulated cluster and reports
the evaluation metrics.  :func:`main` parses the command line, builds one
:class:`~repro.serve.request.RunRequest` (which owns every rule across
options), runs it and its uniprocessor reference through
:func:`~repro.serve.runner.execute_request`, and prints.
``examples/app_suite.py`` is a thin wrapper over this module; see its
docstring for usage examples.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.apps import APPS
from repro.serve.request import RunRequest
from repro.serve.runner import execute_request, request_program
from repro.spec import OptionError, add_flags, from_args, to_field, usage
from repro.tempest.config import ClusterConfig, CombineConfig, SwitchConfig
from repro.tempest.faults import (
    CrashScenario,
    FaultConfig,
    LinkFaultConfig,
    PartitionScenario,
)
from repro.tempest.network import COMBINE_MAX_MSGS, COMBINE_MAX_WAIT_NS
from repro.tempest.stats import COHERENCE_KINDS, MsgKind

__all__ = ["build_parser", "config_from_args", "main"]

#: --fault-link KEY=VAL keys -> LinkFaultConfig fields (times in microseconds)
_LINK_KEYS = {
    "drop": "drop_prob",
    "dup": "dup_prob",
    "jitter_us": "jitter_ns",
    "stall": "stall_prob",
    "stall_us": "stall_ns",
}


def _parse_link_fault(spec: str) -> LinkFaultConfig:
    """``SRC:DST:KEY=VAL[,KEY=VAL...]`` -> LinkFaultConfig."""
    parts = spec.split(":", 2)
    if len(parts) != 3:
        raise ValueError("expected SRC:DST:KEY=VAL[,KEY=VAL...]")
    src, dst = int(parts[0]), int(parts[1])
    kwargs = {}
    for item in parts[2].split(","):
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"bad override {item!r}; expected KEY=VAL")
        if key not in _LINK_KEYS:
            raise ValueError(
                f"unknown key {key!r}; choose from {sorted(_LINK_KEYS)}"
            )
        f = LinkFaultConfig.__dataclass_fields__[_LINK_KEYS[key]]
        kwargs[f.name] = to_field(f, float(val), LinkFaultConfig)
    if not kwargs:
        raise ValueError("no overrides given")
    return LinkFaultConfig(src, dst, **kwargs)


def _parse_params(items: Sequence[str], spec) -> dict[str, int]:
    """``--param KEY=VAL`` items -> integer overrides of ``spec``'s parameters."""
    overrides = {}
    for item in items:
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"{item!r}: expected KEY=VAL")
        if key not in spec.default_params:
            raise ValueError(
                f"{item!r}: {spec.name} has no parameter {key!r}; "
                f"choose from {sorted(spec.default_params)}"
            )
        try:
            overrides[key] = int(val)
        except ValueError:
            raise ValueError(f"{item!r}: {val!r} is not an integer") from None
    return overrides


def _checked(parser: argparse.ArgumentParser, flags: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError is a usage error on ``flags``."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        parser.error(f"{flags}: {e}")


def _parse_partition(spec: str, index: int) -> PartitionScenario:
    """``NODES:START_US:DUR_US`` (DUR_US may be ``never``) -> scenario."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("expected NODES:START_US:DUR_US")
    nodes = frozenset(int(n) for n in parts[0].split(","))
    start_ns = int(float(parts[1]) * 1000)
    dur = parts[2].strip().lower()
    duration_ns = None if dur in ("never", "inf") else int(float(dur) * 1000)
    return PartitionScenario(
        name=f"cli-partition-{index}",
        nodes=nodes,
        t_start_ns=start_ns,
        duration_ns=duration_ns,
    )


def _parse_crash(spec: str) -> CrashScenario:
    """``NODE:T_US[:RESTART_DELAY_US|never]`` -> CrashScenario."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError("expected NODE:T_US[:RESTART_DELAY_US|never]")
    node = int(parts[0])
    t_ns = int(float(parts[1]) * 1000)
    restart_ns = None
    if len(parts) == 3:
        restart = parts[2].strip().lower()
        if restart not in ("never", "inf"):
            restart_ns = int(float(restart) * 1000)
    return CrashScenario(node=node, t_ns=t_ns, restart_delay_ns=restart_ns)


def build_parser() -> argparse.ArgumentParser:
    """The regular flags come from the field specs of ``RunRequest`` and
    the config dataclasses (:mod:`repro.spec`); only the irregular ones —
    inverted, repeatable, multi-field or CLI-only — are spelled here."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Run a paper-suite application on simulated fine-grain DSM.",
    )
    p.add_argument("app", choices=sorted(APPS), help="application to run")
    add_flags(p, RunRequest, only=("scale",))
    add_flags(p, ClusterConfig)
    p.add_argument("--backend", choices=["shmem", "msgpass"], default="shmem")
    p.add_argument("--no-opt", action="store_true",
                   help="shmem: skip the compiler optimization")
    p.add_argument("--single-cpu", action="store_true",
                   help="interleave protocol handling with computation")
    p.add_argument("--no-bulk", action="store_true")
    add_flags(p, RunRequest, only=("rt_elim", "pre", "protocol"))
    p.add_argument("--advisory", choices=["prefetch", "full"], default=None,
                   help="advisory primitives on boundary blocks")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VAL",
                   help="override an app parameter (repeatable)")
    add_flags(p.add_argument_group("communication fast path"), CombineConfig)
    add_flags(
        p.add_argument_group("shared-switch contention model"), SwitchConfig
    )
    g = p.add_argument_group("fault injection (engages the reliable transport)")
    add_flags(g, FaultConfig)
    g.add_argument("--fault-link", action="append", default=[],
                   metavar="SRC:DST:KEY=VAL[,KEY=VAL...]",
                   help="per-link fault profile overriding the uniform rates "
                        "for one directed link; keys: drop, dup, jitter_us, "
                        "stall, stall_us (repeatable, one per link)")
    g.add_argument("--fault-partition", action="append", default=[],
                   metavar="NODES:START_US:DUR_US",
                   help="partition scenario: comma-separated NODES become "
                        "unreachable at START_US for DUR_US microseconds "
                        "('never' = the partition never heals and the run "
                        "finishes degraded); repeatable")
    g.add_argument("--fault-crash", action="append", default=[],
                   metavar="NODE:T_US[:RESTART_US|never]",
                   help="fail-stop NODE at T_US; peers detect the death via "
                        "transport keepalives.  With a restart delay and "
                        "--checkpoint-every, the cluster rolls back to the "
                        "last barrier checkpoint and re-executes to "
                        "completion; with 'never' (the default) or no "
                        "checkpoint the run finishes degraded (exit 4); "
                        "repeatable, one crash per node")
    add_flags(p, RunRequest, only=("audit_each_barrier",))
    o = p.add_argument_group("observability (shmem backend)")
    o.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write a Chrome trace-event JSON of the run (one "
                        "track per node plus transport/switch tracks); load "
                        "it in Perfetto or chrome://tracing")
    o.add_argument("--trace-kinds", default=None, metavar="PREFIXES",
                   help="comma-separated event-kind prefixes retained by "
                        "--trace-out (e.g. 'miss,barrier,frame'); "
                        "default: all kinds")
    o.add_argument("--trace-cap", type=int, default=1_000_000, metavar="N",
                   help="ring-buffer cap on retained trace events; the "
                        "oldest are dropped past it (default 1000000)")
    add_flags(o, RunRequest, only=("profile_phases", "critical_path"))
    o.add_argument("--whatif", choices=["barrier", "wire", "retransmit"],
                   default=None,
                   help="with the critical path: report the lower bound on "
                        "elapsed time if the named cost class cost zero "
                        "(barrier = perfect-overlap bound; implies "
                        "--critical-path)")
    o.add_argument("--trace-messages", nargs="?", const="all", default=None,
                   metavar="KINDS",
                   help="print a message-sequence chart after the run; "
                        "optional comma-separated message kinds to keep "
                        "(e.g. 'read_req,read_resp'); default: all")
    return p


def _scenarios(parser, flag: str, specs: Sequence[str], parse) -> tuple:
    """Parse every value of one repeatable scenario flag (usage error on
    the first bad one)."""
    out = []
    for i, text in enumerate(specs):
        try:
            out.append(parse(text, i))
        except ValueError as e:
            parser.error(f"{flag} {text!r}: {e}")
    return tuple(out)


def config_from_args(parser: argparse.ArgumentParser, args) -> ClusterConfig:
    """The full cluster config a parsed command line describes: spec'd
    flags read generically (:func:`repro.spec.from_args`), the repeatable
    scenario flags parsed here.  What the config constructors refuse is
    raised, an ``OptionError`` naming its fields."""
    faults = from_args(
        FaultConfig, args,
        crashes=_scenarios(
            parser, "--fault-crash", args.fault_crash, lambda s, i: _parse_crash(s)
        ),
        link_faults=_scenarios(
            parser, "--fault-link", args.fault_link,
            lambda s, i: _parse_link_fault(s),
        ),
        partitions=_scenarios(
            parser, "--fault-partition", args.fault_partition, _parse_partition
        ),
    )
    return from_args(
        ClusterConfig, args, dual_cpu=not args.single_cpu, faults=faults,
        combine=from_args(CombineConfig, args),
        switch=from_args(SwitchConfig, args),
    )


#: the fields under ``RunRequest`` whose flags ``build_parser`` spells by
#: hand (the others declare theirs in their field spec)
_BY_HAND = {
    "optimize": "--no-opt", "bulk": "--no-bulk", "advisory": "--advisory",
    "config.faults.crashes": "--fault-crash",
    "config.faults.link_faults": "--fault-link",
    "config.faults.partitions": "--fault-partition",
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        # ``repro sweep`` — matrix runs through the caching/parallel serve
        # layer; see repro.serve.cli for the axis vocabulary.
        from repro.serve.cli import sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "diff":
        # ``repro diff A B`` — cross-run regression attribution over two
        # served cells; see repro.serve.cli for the cell-spec syntax.
        from repro.serve.cli import diff_main

        return diff_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    shmem = args.backend == "shmem"
    # RunRequest refuses every shmem-only field; these flags are the CLI's own
    cli_only = [flag for flag, on in [
        ("--no-opt", args.no_opt), ("--trace-out", args.trace_out),
        ("--trace-messages", args.trace_messages)] if on]
    if cli_only and not shmem:
        parser.error(f"{', '.join(cli_only)}: shmem-backend options; "
                     f"backend={args.backend!r} does not take them")
    if args.trace_out:
        # Found out now, not after the whole simulation has run.
        out_dir = os.path.dirname(os.path.abspath(args.trace_out))
        if not os.path.isdir(out_dir):
            parser.error(f"--trace-out {args.trace_out!r}: no directory {out_dir!r}")
        if not os.access(out_dir, os.W_OK) or os.path.isdir(args.trace_out):
            parser.error(f"--trace-out {args.trace_out!r}: cannot be written")
    spec = APPS[args.app]
    overrides = _checked(parser, "--param", _parse_params, args.param, spec)
    try:
        cfg = config_from_args(parser, args)
        request = from_args(
            RunRequest, args, app=args.app, params=overrides, config=cfg,
            backend=args.backend, optimize=shmem and not args.no_opt,
            bulk=not args.no_bulk, advisory=args.advisory or False,
            critical_path=args.critical_path or args.whatif is not None,
        )
    except OptionError as e:  # a usage error naming the flags that set the fields
        whatif = "--critical-path" if args.critical_path else "--whatif"
        parser.error(usage(e, RunRequest, {**_BY_HAND, "critical_path": whatif}))
    # The uniprocessor reference: the same program on a fault-free machine.
    reference = RunRequest(
        app=args.app, scale=args.scale, params=overrides, backend="uniproc",
        config=cfg.scaled(faults=FaultConfig()),
    )
    programs: dict = {}  # one program, so one numerics record, for both runs
    prog = _checked(parser, "--param", request_program, request, programs)

    bus = exporter = tracer = None
    if args.trace_out or args.trace_messages:
        from repro.obs import ChromeTraceExporter, EventBus, MessageTracer

        bus = EventBus()
        if args.trace_out:
            kinds = None
            if args.trace_kinds:
                kinds = [k.strip() for k in args.trace_kinds.split(",") if k.strip()]
            exporter = _checked(
                parser, "--trace-cap", ChromeTraceExporter, bus, kinds=kinds,
                max_events=args.trace_cap, n_nodes=args.nodes,
            )
        if args.trace_messages:
            mkinds = None if args.trace_messages == "all" else _checked(
                parser, "--trace-messages", lambda: {
                    MsgKind(k.strip()) for k in args.trace_messages.split(",") if k.strip()
                },
            )
            tracer = MessageTracer(bus, args.nodes, kinds=mkinds)

    print(f"{spec.name}: {spec.description}")
    print(f"paper problem: {spec.paper['problem']}")
    print(
        f"this run: scale={args.scale} {overrides or ''} nodes={args.nodes} "
        f"{'single' if args.single_cpu else 'dual'}-cpu "
        f"arrays={prog.total_bytes() / 1e6:.1f} MB\n"
    )

    uni = execute_request(reference, programs=programs)
    try:
        result = execute_request(request, programs=programs, obs=bus)
    finally:
        # Written before anything below can raise, and when the run itself
        # does: a failed audit, a degraded finish or a numerics mismatch
        # is exactly what the trace is for dissecting.
        if exporter is not None:
            retained = exporter.write(args.trace_out)
    if not result.completed:
        # Degraded run: the partition never healed.  Partial stats and a
        # failure report instead of a traceback; numerics are partial too,
        # so the uniproc cross-check is skipped.
        _print_degraded(result, cfg)
        if exporter is not None:
            print(f"trace:            {args.trace_out} ({retained} events, "
                  "up to the give-up point)")
        return 4
    result.assert_same_numerics(uni)

    print(f"backend:          {result.backend}")
    print(
        f"simulated time:   {result.elapsed_ms:.1f} ms "
        f"(uniproc {uni.elapsed_ms:.1f} ms, "
        f"speedup {result.speedup_over(uni):.2f})"
    )
    print(f"compute time:     {result.compute_ms:.1f} ms/node")
    print(f"comm time:        {result.comm_ms:.1f} ms/node")
    print(f"misses:           {result.misses_per_node:.0f}/node")
    kinds = result.stats.messages_by_kind()
    coh = sum(v for k, v in kinds.items() if k in COHERENCE_KINDS)
    print(
        f"messages:         {result.stats.total_messages} total "
        f"({coh} coherence, {kinds.get(MsgKind.DATA, 0)} data pushes, "
        f"{kinds.get(MsgKind.MP_DATA, 0)} mp)"
    )
    print(f"bytes on wire:    {result.stats.total_bytes / 1e6:.2f} MB")
    if cfg.combine.enabled:
        comb = result.stats.combining_summary()
        print(
            f"combining:        {comb['msgs_combined']} messages rode "
            f"{comb['combine_flushes']} combined frames "
            f"(cap {COMBINE_MAX_MSGS}, wait {COMBINE_MAX_WAIT_NS / 1000:.0f} us)"
        )
    if cfg.switch.enabled:
        sw = result.stats.switch_summary()
        print(
            f"switch:           {sw['switch_frames']} frames through "
            f"{cfg.n_nodes} ports, {sw['switch_wait_ms']:.2f} ms queued "
            f"(max depth {sw['max_port_depth']}, link-rate ports)"
        )
    if cfg.faults.enabled:
        rel = result.stats.reliability_summary()
        rto = "adaptive" if cfg.faults.adaptive_rto else "fixed"
        print(
            f"reliability:      {rel['drops']} drops, {rel['dups']} dups, "
            f"{rel['retransmits']} retransmits "
            f"({rel['spurious_retransmits']} spurious, {rto} RTO), "
            f"{rel['backoffs']} backoffs (seed {cfg.faults.seed})"
        )
        if cfg.faults.link_faults:
            keys = ", ".join(
                f"{lf.src}->{lf.dst}" for lf in cfg.faults.link_faults
            )
            print(f"link profiles:    {keys}")
        events = result.stats.partition_events
        if events:
            healed = sum(1 for e in events if e.get("healed"))
            print(
                f"partitions:       {len(events)} channel give-up(s), "
                f"{healed} healed and drained"
            )
        if result.stats.crash_events or result.stats.recovery_checkpoints:
            rec = result.stats.recovery_summary()
            crashed = ", ".join(
                f"node {e['node']}" for e in result.stats.crash_events
            )
            print(
                f"fail-stop:        {rec['crashes']} crash(es)"
                f"{f' ({crashed})' if crashed else ''}, "
                f"{rec['checkpoints']} checkpoint(s) "
                f"({rec['checkpoint_mbytes']:.2f} MB), "
                f"{rec['rollbacks']} rollback(s), "
                f"{rec['recovery_ms']:.2f} ms outage recovered"
            )
    if shmem:
        scope = "end of run + every barrier" if args.audit else "end of run"
        if result.stats.partition_events:
            scope = f"post-heal, {scope}"
        print(f"coherence audit:  clean ({scope})")
    if exporter is not None:
        dropped = f", {exporter.dropped} dropped past cap" if exporter.dropped else ""
        print(f"trace:            {args.trace_out} ({retained} events{dropped})")
    if result.phase_breakdown is not None:
        from repro.obs import render_breakdown

        print("\nper-phase time breakdown (summed over nodes):")
        print(render_breakdown(result.phase_breakdown))
    if result.critical_path is not None:
        from repro.obs import render_critical_path

        print()
        print(render_critical_path(result.critical_path, whatif=args.whatif))
    if tracer is not None:
        print(f"\nmessage trace:    {tracer.summary()}")
        print(tracer.sequence_chart())
    return 0


def _print_degraded(result, cfg) -> None:
    """The failure-report section for a run that finished degraded."""
    stats = result.stats
    failure = stats.failure
    rel = stats.reliability_summary()
    print(f"backend:          {result.backend}")
    crashed = failure["crashed_nodes"]
    restarts = {c.node: c.restarts for c in cfg.faults.crashes}
    detected = {e["node"]: e["detected_t_ns"] is not None for e in stats.crash_events}
    for i, n in enumerate(crashed):
        # The one reason this crash was not rolled back (docs/faults.md).
        if not restarts[n]:
            why = "it never restarts"
        elif not detected[n]:
            why = "no live node detected the crash"
        elif not stats.recovery_checkpoints:
            why = "no checkpoint was written to roll back to"
        else:
            why = "another crash blocks the rollback"
        print(f"{'' if i else 'RUN DEGRADED:':18}node {n} fail-stopped; {why}")
    if not crashed:
        print("RUN DEGRADED:     the interconnect partitioned and never healed")
    print(
        f"simulated time:   {result.elapsed_ms:.1f} ms "
        "(up to the give-up point; no uniproc cross-check)"
    )
    print(f"stuck programs:   {', '.join(failure['stuck']) or 'none'}")
    chan_desc = ", ".join(
        f"{c['src']}->{c['dst']} ({c['parked']} parked)"
        for c in failure["partitioned_channels"]
    )
    print(f"dead channels:    {chan_desc or 'none'}")
    print(f"unreachable:      nodes {failure['unreachable_nodes']}")
    print(
        f"reliability:      {rel['drops']} drops, "
        f"{rel['retransmits']} retransmits, {rel['gave_up']} give-ups "
        f"(seed {cfg.faults.seed})"
    )
    print(f"partial stats:    {stats.total_messages} messages, "
          f"{stats.total_misses} misses recorded before give-up")
    residual = failure["residual_violations"]
    if residual:
        print(f"residual damage:  {len(residual)} coherence violation(s) "
              "among surviving nodes:")
        for line in residual[:6]:
            print(f"  - {line}")
        if len(residual) > 6:
            print(f"  ... and {len(residual) - 6} more")
    else:
        print("residual damage:  none among surviving nodes")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
