"""Tests for the command-line interface."""

import pytest

from repro.apps import APPS
from repro.cli import (
    _parse_crash,
    _parse_link_fault,
    _parse_partition,
    build_parser,
    main,
)
from repro.runtime import phases
from repro.serve.request import RunRequest
from repro.tempest.config import small_config
from repro.tempest.faults import CrashScenario, FaultConfig, LinkFaultConfig


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["jacobi"])
        assert args.app == "jacobi"
        assert args.scale == "default"
        assert args.nodes == 8
        assert not args.no_opt

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["linpack"])

    def test_all_flags_parse(self):
        args = build_parser().parse_args(
            [
                "grav", "--scale", "paper", "--nodes", "4", "--single-cpu",
                "--no-bulk", "--rt-elim", "--pre", "--advisory", "prefetch",
                "--param", "n=17",
            ]
        )
        assert args.advisory == "prefetch" and args.param == ["n=17"]

    def test_switch_flags_parse(self):
        assert build_parser().parse_args(["jacobi", "--switch"]).switch
        args = build_parser().parse_args(["jacobi", "--no-switch"])
        assert not args.switch
        assert build_parser().parse_args(["jacobi"]).switch is False


class TestMain:
    def test_runs_small_app(self, capsys):
        rc = main(["grav", "--nodes", "4", "--param", "n=17", "--param", "iters=1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated time" in out
        assert "misses" in out

    def test_msgpass_backend(self, capsys):
        rc = main(["jacobi", "--nodes", "4", "--backend", "msgpass",
                   "--param", "n=32", "--param", "iters=1"])
        assert rc == 0
        assert "msgpass" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--no-opt"], ["--no-bulk"], ["--rt-elim"], ["--pre"],
        ["--advisory", "prefetch"], ["--audit"], ["--protocol", "update"],
        ["--checkpoint-every", "1", "--fault-crash", "1:300:100"],
        ["--profile-phases"], ["--critical-path"], ["--whatif", "wire"],
        ["--trace-messages"],
    ], ids=lambda flags: flags[0])
    def test_msgpass_rejects_shmem_only_flags(self, flags, capsys):
        """run_msgpass takes no run options, so a shmem-only flag would be
        silently ignored: it is a usage error naming the flag instead."""
        with pytest.raises(SystemExit) as e:
            main(["jacobi", "--nodes", "4", "--backend", "msgpass", *flags,
                  "--param", "n=32", "--param", "iters=1"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert flags[0] in captured.err.strip().splitlines()[-1]
        assert captured.out == ""  # nothing had started

    @pytest.mark.parametrize("fault", [
        ["--fault-partition", "1:200:never"], ["--fault-crash", "1:300"],
    ], ids=lambda fault: fault[0])
    def test_degraded_msgpass_run_exits_4(self, fault, capsys):
        """A message-passing run whose programs never finish is degraded,
        not a speedup."""
        rc = main(["jacobi", "--backend", "msgpass", "--nodes", "4", *fault])
        out = capsys.readouterr().out
        assert rc == 4
        assert "RUN DEGRADED" in out
        assert "speedup" not in out

    @staticmethod
    def _refused(capsys, *flags) -> str:
        """An option combination the run would refuse is a usage error
        naming the options, before anything starts, not a traceback."""
        with pytest.raises(SystemExit) as e:
            main(["jacobi", "--nodes", "4", *flags,
                  "--param", "n=32", "--param", "iters=1"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.strip().splitlines()[-1]
        assert all(flag in message for flag in flags if flag.startswith("--"))
        return message

    def test_update_protocol_requires_no_opt(self, capsys):
        assert "protocol='invalidate'" in self._refused(capsys, "--protocol", "update")

    def test_optimizer_options_require_opt(self, capsys):
        assert "rt_elim" in self._refused(capsys, "--no-opt", "--rt-elim")

    def test_a_run_evaluates_its_program_once(self, monkeypatch, capsys):
        """The uniprocessor reference and the simulated run share one
        numerics record: one evaluator pass, at default scale."""
        calls = []
        real = phases.eval_parallel_assign
        monkeypatch.setattr(
            phases, "eval_parallel_assign",
            lambda *args: calls.append(args[0]) or real(*args),
        )
        phases.numerics(APPS["jacobi"].program())
        one_pass = len(calls)
        assert one_pass > 0
        assert main(["jacobi"]) == 0
        assert len(calls) == 2 * one_pass
        assert "speedup" in capsys.readouterr().out

    def test_update_protocol_with_no_opt(self, capsys):
        rc = main(["jacobi", "--nodes", "4", "--protocol", "update", "--no-opt",
                   "--param", "n=32", "--param", "iters=1"])
        assert rc == 0

    def test_switch_run_reports_contention(self, capsys):
        rc = main(["jacobi", "--nodes", "4", "--switch",
                   "--param", "n=32", "--param", "iters=1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "switch:" in out
        assert "ports" in out

    def test_bad_param_syntax(self, capsys):
        """Bad input is a usage error (exit 2) naming the flag, raised
        while the configuration is assembled — never a traceback."""
        for argv, flag, why in [
            (["--param", "n32"], "--param", "KEY=VAL"),
            (["--param", "n=abc"], "--param", "not an integer"),
            (["--param", "bogus=3"], "--param", "no parameter 'bogus'"),
            (["--nodes", "0"], "--nodes", "n_nodes must be >= 1"),
            (["--fault-drop", "2"], "--fault-", "drop_prob"),
        ]:
            with pytest.raises(SystemExit) as e:
                main(["jacobi", *argv])
            assert e.value.code == 2, argv
            captured = capsys.readouterr()
            message = captured.err.strip().splitlines()[-1]
            assert flag in message and why in message, argv
            assert captured.out == "", argv  # nothing had started

    @pytest.mark.parametrize("app", ["cg", "grav", "jacobi", "pde", "shallow"])
    def test_fewer_than_one_iteration_is_rejected(self, app, capsys):
        """A zero-iteration program has nothing to time (the speedup
        divided by its elapsed time); a negative count is no program."""
        from repro.apps import APPS

        for iters in (0, -1):
            with pytest.raises(ValueError, match="iters"):
                APPS[app].program(iters=iters)
            with pytest.raises(SystemExit) as e:
                main([app, "--param", f"iters={iters}"])
            assert e.value.code == 2
            message = capsys.readouterr().err.strip().splitlines()[-1]
            assert "--param" in message and "iters" in message


class TestFaultOverlayParsing:
    def test_link_fault_spec(self):
        lf = _parse_link_fault("0:1:drop=0.3,jitter_us=50")
        assert lf.key == (0, 1)
        assert lf.drop_prob == 0.3
        assert lf.jitter_ns == 50_000
        assert lf.dup_prob is None  # unstated axes inherit the uniform value

    def test_link_fault_stall_keys(self):
        lf = _parse_link_fault("2:0:stall=0.1,stall_us=300")
        assert lf.stall_prob == 0.1 and lf.stall_ns == 300_000

    @pytest.mark.parametrize(
        "spec",
        ["0:1", "0:1:drop", "0:1:bogus=1", "0:1:", "1:1:drop=0.5"],
    )
    def test_bad_link_fault_spec(self, spec):
        with pytest.raises(ValueError):
            _parse_link_fault(spec)

    def test_partition_spec(self):
        s = _parse_partition("1,2:100:3000", 0)
        assert s.nodes == frozenset({1, 2})
        assert s.t_start_ns == 100_000
        assert s.duration_ns == 3_000_000
        assert s.name == "cli-partition-0"

    @pytest.mark.parametrize("dur", ["never", "inf", "NEVER"])
    def test_partition_never_heals(self, dur):
        assert _parse_partition(f"1:0:{dur}", 1).duration_ns is None

    @pytest.mark.parametrize("spec", ["1:100", "1:100:3000:9", ":100:never"])
    def test_bad_partition_spec(self, spec):
        with pytest.raises(ValueError):
            _parse_partition(spec, 0)


class TestFaultMain:
    SMALL = ["grav", "--nodes", "4", "--param", "n=17", "--param", "iters=1"]

    def test_stall_axis_reachable(self, capsys):
        rc = main(self.SMALL + ["--fault-stall", "0.2", "--fault-stall-us", "300"])
        assert rc == 0
        assert "reliability" in capsys.readouterr().out

    def test_stall_without_window_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self.SMALL + ["--fault-stall", "0.2"])
        assert "stall_ns" in capsys.readouterr().err

    def test_rto_adaptive_alone_rejected(self, capsys):
        # Historically silently ignored; must fail fast now.
        with pytest.raises(SystemExit):
            main(self.SMALL + ["--rto-adaptive"])
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("repro: error: --rto-adaptive: adaptive_rto ")

    def test_rto_adaptive_with_faults_accepted(self, capsys):
        rc = main(self.SMALL + ["--rto-adaptive", "--fault-drop", "0.05"])
        assert rc == 0
        assert "adaptive RTO" in capsys.readouterr().out

    def test_rto_max_alone_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self.SMALL + ["--rto-max-us", "20000"])
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("repro: error: --rto-max-us: rto_max_ns ")

    def test_rto_max_with_faults_accepted(self, capsys):
        rc = main(self.SMALL + ["--rto-max-us", "20000",
                                "--fault-drop", "0.05"])
        assert rc == 0
        assert "reliability" in capsys.readouterr().out

    def test_rto_max_below_initial_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self.SMALL + ["--rto-max-us", "10", "--fault-drop", "0.05"])
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == ("repro: error: --rto-max-us: rto_max_ns must be >= "
                        "retransmit_timeout_ns")

    def test_link_profile_run(self, capsys):
        rc = main(self.SMALL + ["--fault-link", "0:1:drop=0.3"])
        assert rc == 0
        assert "link profiles:    0->1" in capsys.readouterr().out

    def test_bad_link_profile_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(self.SMALL + ["--fault-link", "0:1:bogus=1"])
        assert "bogus" in capsys.readouterr().err

    def test_partition_node_out_of_range(self, capsys):
        with pytest.raises(SystemExit):
            main(self.SMALL + ["--fault-partition", "9:100:never"])
        assert "outside" in capsys.readouterr().err

    def test_healed_partition_completes(self, capsys):
        rc = main(self.SMALL + ["--fault-partition", "1:100:3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "healed and drained" in out
        assert "post-heal" in out

    def test_permanent_partition_degrades_with_exit_4(self, capsys):
        rc = main(self.SMALL + ["--fault-partition", "1:100:never",
                                "--fault-retries", "3"])
        assert rc == 4
        out = capsys.readouterr().out
        assert "RUN DEGRADED" in out
        assert "dead channels" in out
        assert "recorded before give-up" in out


#: FaultConfig's rules across fields: a setting that tunes machinery the
#: config never runs is refused.  field -> (its setting, the flag that
#: sets it, the companion that engages the machinery)
_DROP = dict(drop_prob=0.05)
_CRASH = dict(crashes=(CrashScenario(2, 3_000_000, 500_000),))
FAULT_RULES = {
    "adaptive_rto": (dict(adaptive_rto=True), ["--rto-adaptive"], _DROP),
    "rto_max_ns": (dict(rto_max_ns=4_000_000), ["--rto-max-us", "4000"], _DROP),
    "heartbeat_interval_ns": (dict(heartbeat_interval_ns=100_000),
                              ["--heartbeat-us", "100"], _CRASH),
    "checkpoint_every": (dict(checkpoint_every=1), ["--checkpoint-every", "1"], _CRASH),
    "max_retries": (dict(max_retries=5), ["--fault-retries", "5"], _DROP),
    "stall_ns": (dict(stall_ns=300_000), ["--fault-stall-us", "300"], dict(stall_prob=0.1)),
}
#: the flags that engage each rule's machinery (the rest are run elsewhere)
COMPANION_FLAGS = {
    "max_retries": ["--fault-drop", "0.01"],
    "stall_ns": ["--fault-stall", "0.1"],
}
#: a link profile's stall window without a stall probability to use it
_LINK_STALL = dict(link_faults=(LinkFaultConfig(0, 1, stall_ns=300_000),))


class TestFaultConfigRules:
    """The library refuses what ``repro APP`` refuses: the rules live on
    ``FaultConfig.__post_init__``, and every entry point inherits them."""

    @pytest.mark.parametrize("name", sorted(FAULT_RULES))
    def test_refused_alone_on_every_entry(self, name, capsys):
        fields, flag, _ = FAULT_RULES[name]
        with pytest.raises(ValueError, match=f"^{name} "):
            FaultConfig(**fields)
        with pytest.raises(ValueError, match=f"^{name} "):
            RunRequest(app="jacobi", config=small_config(faults=FaultConfig(**fields)))
        with pytest.raises(SystemExit) as e:
            main(["jacobi", "--nodes", "4", *flag])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].startswith(
            f"repro: error: {flag[0]}: {name} ")
        assert captured.out == ""  # nothing had started

    @pytest.mark.parametrize("name", sorted(FAULT_RULES))
    def test_accepted_with_its_companion_only(self, name):
        fields, _, companion = FAULT_RULES[name]
        assert getattr(FaultConfig(**fields, **companion), name) == fields[name]
        if companion is _CRASH:  # fault injection alone runs no crash machinery
            with pytest.raises(ValueError, match=f"^{name} "):
                FaultConfig(**fields, **_DROP)

    @pytest.mark.parametrize("name", sorted(COMPANION_FLAGS))
    def test_runs_beside_its_companion_flag(self, name, capsys):
        _, flag, _ = FAULT_RULES[name]
        argv = ["jacobi", "--nodes", "4", "--param", "n=32", "--param", "iters=2"]
        assert main([*argv, *flag, *COMPANION_FLAGS[name]]) == 0
        assert "reliability:" in capsys.readouterr().out

    def test_a_link_stall_window_needs_a_stall_probability(self, capsys):
        named = r"^link \(0, 1\): stall_ns "
        with pytest.raises(ValueError, match=named):
            FaultConfig(**_LINK_STALL)
        with pytest.raises(ValueError, match=named):
            RunRequest(app="jacobi", config=small_config(faults=FaultConfig(**_LINK_STALL)))
        with pytest.raises(SystemExit) as e:
            main(["jacobi", "--nodes", "4", "--fault-link", "0:1:stall_us=300"])
        assert e.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "repro: error: link (0, 1): stall_ns ")
        # The uniform stall probability is the link's too.
        FaultConfig(**_LINK_STALL, stall_prob=0.1, stall_ns=100_000)

    def test_a_link_profile_can_use_the_uniform_stall_window(self):
        inherits = LinkFaultConfig(0, 1, stall_prob=0.1)
        assert FaultConfig(stall_ns=300_000, link_faults=(inherits,)).stall_ns == 300_000
        overrides = LinkFaultConfig(0, 1, stall_prob=0.1, stall_ns=100_000)
        with pytest.raises(ValueError, match="^stall_ns "):
            FaultConfig(stall_ns=300_000, link_faults=(overrides,))

    @pytest.mark.parametrize("flag", [
        "--combine-max-msgs", "--combine-wait", "--switch-ports", "--switch-bw",
    ])
    def test_removed_knobs_are_unrecognized(self, flag, capsys):
        # The combine cap and hold window are constants and the switch has
        # one link-rate port per node, so these flags no longer exist.
        with pytest.raises(SystemExit) as e:
            main(["jacobi", "--nodes", "4", "--combine", "--switch", flag, "2"])
        assert e.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"repro: error: unrecognized arguments: {flag} 2"

    def test_a_perfect_wire_refuses_transport_tuning(self):
        # On a perfect wire every setting here is ignored: the run would
        # equal the plain run to the nanosecond.
        with pytest.raises(ValueError, match="^adaptive_rto "):
            small_config(faults=FaultConfig(
                adaptive_rto=True, rto_max_ns=9_000_000,
                heartbeat_interval_ns=7_000))


class TestCrashMain:
    SMALL = ["jacobi", "--param", "n=32", "--param", "iters=2"]

    def test_crash_spec(self):
        s = _parse_crash("2:3000:500")
        assert (s.node, s.t_ns, s.restart_delay_ns) == (2, 3_000_000, 500_000)

    @pytest.mark.parametrize("never", ["never", "inf", "NEVER"])
    def test_crash_spec_never_restarts(self, never):
        assert _parse_crash(f"1:100:{never}").restart_delay_ns is None

    @pytest.mark.parametrize("spec", ["1", "1:2:3:4", "x:100", "1:y"])
    def test_bad_crash_spec(self, spec):
        with pytest.raises((ValueError, SystemExit)):
            _parse_crash(spec)

    def test_crash_recovery_run(self, capsys):
        rc = main(self.SMALL + ["--fault-crash", "2:3000:500",
                                "--checkpoint-every", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fail-stop:" in out
        assert "1 rollback(s)" in out
        assert "outage recovered" in out

    def test_crash_without_checkpoint_degrades_with_exit_4(self, capsys):
        rc = main(self.SMALL + ["--fault-crash", "2:3000:500"])
        assert rc == 4
        out = capsys.readouterr().out
        assert "RUN DEGRADED" in out
        assert "node 2 fail-stopped; no checkpoint was written" in out

    def test_degraded_crash_names_its_own_reason(self, capsys):
        # Seven checkpoints exist: what blocks the rollback is the restart.
        rc = main(["jacobi", "--param", "n=32", "--param", "iters=8",
                   "--nodes", "4", "--fault-crash", "2:6000",
                   "--heartbeat-us", "200", "--checkpoint-every", "1",
                   "--fault-retries", "3"])
        assert rc == 4
        out = capsys.readouterr().out
        assert "RUN DEGRADED:     node 2 fail-stopped; it never restarts\n" in out

    def test_undetected_double_crash_names_its_own_reason(self, capsys):
        # ROADMAP's F2: each node dies before the other could notice.
        rc = main(["jacobi", "--param", "n=32", "--param", "iters=2",
                   "--nodes", "2", "--fault-crash", "1:93:18",
                   "--fault-crash", "0:189:493", "--heartbeat-us", "347",
                   "--checkpoint-every", "1"])
        assert rc == 4
        out = capsys.readouterr().out
        assert "node 0 fail-stopped; no live node detected the crash" in out
        assert "node 1 fail-stopped; no live node detected the crash" in out

    def test_checkpoint_without_crash_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self.SMALL + ["--checkpoint-every", "2"])
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("repro: error: --checkpoint-every: checkpoint_every ")

    def test_heartbeat_without_crash_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self.SMALL + ["--heartbeat-us", "200"])
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("repro: error: --heartbeat-us: heartbeat_interval_ns ")

    def test_crash_node_out_of_range(self, capsys):
        with pytest.raises(SystemExit):
            main(self.SMALL + ["--fault-crash", "9:100"])
        assert "outside" in capsys.readouterr().err

    def test_duplicate_crash_node_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self.SMALL + ["--fault-crash", "1:100",
                               "--fault-crash", "1:500"])
        assert "once" in capsys.readouterr().err
