"""Tests for the command-line interface."""

import re

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
from repro.runtime.shmem import run_shmem
from repro.serve.request import SHMEM_OPTIONS, RunRequest
from repro.spec import OptionError, walk
from repro.tempest.config import small_config
from repro.tempest.faults import (
    CrashScenario,
    FaultConfig,
    LinkFaultConfig,
    PartitionScenario,
)
from tests import rules


#: each declared ``repro APP`` flag that scales its value into the field
#: (microseconds in, nanoseconds stored) -> that field
SCALED_FLAGS = {f.metadata["flag"]: f.name for _, f in walk(RunRequest)
                if f.metadata["flag"] and f.metadata["unit"] != 1}


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", SCALED_FLAGS)
    def test_a_non_finite_time_names_its_flag(self, flag, value, capsys):
        """A flag in microseconds stores integer nanoseconds: a value with
        no such spelling is a usage error, not a failed conversion."""
        with pytest.raises(SystemExit) as e:
            main(["jacobi", flag, value])
        assert e.value.code == 2
        captured = capsys.readouterr()
        name = SCALED_FLAGS[flag]
        assert captured.err.splitlines()[-1] == (
            f"repro: error: {flag}: {name} must be finite; got {value}")
        assert captured.out == ""  # nothing had started

    @pytest.mark.parametrize("flag, spec, bad", [
        ("--fault-crash", "1:inf", "inf"), ("--fault-crash", "1:nan", "nan"),
        ("--fault-crash", "1:100:nan", "nan"),
        ("--fault-partition", "1:inf:100", "inf"),
        ("--fault-partition", "1:100:nan", "nan"),
    ])
    def test_a_non_finite_scenario_time_names_its_flag(self, flag, spec, bad, capsys):
        """A scenario's times become integer nanoseconds too ("never" and
        "inf" spell a scenario that never ends, not a time)."""
        with pytest.raises(SystemExit) as e:
            main(["jacobi", "--nodes", "4", flag, spec])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            f"repro: error: {flag} {spec!r}: a time must be finite; got {bad}")
        assert captured.out == ""  # nothing had started

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
        ["0:1", "0:1:drop", "0:1:bogus=1", "0:1:", "1:1:drop=0.5",
         "0:1:jitter_us=nan", "0:1:stall_us=inf"],
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


#: each row, by the fields it names -> (its row, a setting that breaks it,
#: a companion beside which that setting builds or None)
ROWS = {}
for _owner, _row in rules.ROWS:
    _setting = rules.breaking(_owner, _row)
    ROWS[_owner, rules.row_id(_row)] = (_row, _setting, rules.keeping(_owner, _setting))
FAULT_ROWS = sorted(name for owner, name in ROWS if owner is FaultConfig)
REQUEST_ROWS = sorted(name for owner, name in ROWS if owner is RunRequest)


def _runnable(name: str) -> bool:
    """Can ``repro APP`` spell the row's setting and companion, and does
    the run complete (no crash)?"""
    _, setting, companion = ROWS[FaultConfig, name]
    both = rules.argv(FaultConfig, {**setting, **companion})
    return both is not None and "crashes" not in companion


_LINK_STALL = dict(link_faults=(LinkFaultConfig(0, 1, stall_ns=300_000),))
#: FaultConfig's checks on the entries of one scenario field: the refusal
#: names the field, so ``repro APP`` names the flag that sets it.
#: check -> (fields, argv or None)
SCENARIO_RULES = {
    "a link stall probability needs a stall window": (
        dict(link_faults=(LinkFaultConfig(0, 1, stall_prob=0.1),)),
        ["--fault-link", "0:1:stall=0.1"],
    ),
    "one profile per link": (
        dict(link_faults=(LinkFaultConfig(0, 1, drop_prob=0.1),
                          LinkFaultConfig(0, 1, dup_prob=0.1))),
        ["--fault-link", "0:1:drop=0.1", "--fault-link", "0:1:dup=0.1"],
    ),
    # --fault-partition names each scenario after its position
    "one partition per name": (
        dict(partitions=(PartitionScenario("cut", {0}), PartitionScenario("cut", {1}))),
        None,
    ),
    "one crash per node": (
        dict(crashes=(CrashScenario(1, 100_000), CrashScenario(1, 200_000))),
        ["--fault-crash", "1:100", "--fault-crash", "1:200"],
    ),
}


def _refused_by_repro_app(capsys, owner, setting, refused):
    """``repro APP`` spelling ``setting`` exits 2 before anything starts,
    naming the flags that set the fields ``refused`` names, then why."""
    with pytest.raises(SystemExit) as e:
        main(["jacobi", "--nodes", "4", *rules.argv(owner, setting)])
    assert e.value.code == 2
    captured = capsys.readouterr()
    flags = ", ".join(rules.flag(owner, name) for name in refused.fields)
    assert captured.err.splitlines()[-1] == f"repro: error: {flags}: {refused.why}"
    assert captured.out == ""  # nothing had started


class TestFaultConfigRules:
    """The library refuses what ``repro APP`` refuses: the rules are rows
    of ``FaultConfig.RULES``, and every entry point inherits them.  The
    settings that break and keep each row are found from the field specs
    (``tests/rules.py``), not spelled here."""

    @pytest.mark.parametrize("name", FAULT_ROWS)
    def test_refused_alone_on_every_entry(self, name, capsys):
        row, setting, _ = ROWS[FaultConfig, name]
        with pytest.raises(OptionError) as e:
            FaultConfig(**setting)
        assert (e.value.owner, str(e.value)) == (FaultConfig, e.value.why)
        assert e.value.fields[0] == row[0][0] and set(e.value.fields) <= set(row[0])
        with pytest.raises(OptionError, match=f"^{re.escape(str(e.value))}$"):
            RunRequest(app="jacobi", config=small_config(faults=FaultConfig(**setting)))
        _refused_by_repro_app(capsys, FaultConfig, setting, e.value)

    @pytest.mark.parametrize("name", FAULT_ROWS)
    def test_accepted_with_its_companion_only(self, name):
        _, setting, companion = ROWS[FaultConfig, name]
        built = FaultConfig(**setting, **companion)
        assert all(getattr(built, k) == v for k, v in setting.items())
        for key in companion:  # every part of the companion is needed
            with pytest.raises(OptionError):
                FaultConfig(**setting, **{k: v for k, v in companion.items() if k != key})

    @pytest.mark.parametrize("name", [
        name for name in FAULT_ROWS
        if "runs only with a crash scenario" in ROWS[FaultConfig, name][0].message])
    def test_fault_injection_alone_is_no_crash_scenario(self, name):
        """Tuning that a row says runs only with a crash is refused beside
        fault injection without one, and kept beside a crash."""
        row, setting, _ = ROWS[FaultConfig, name]
        with pytest.raises(OptionError) as e:
            FaultConfig(**setting, drop_prob=0.05)
        assert e.value.fields == row.fields
        FaultConfig(**setting, crashes=rules.SCENARIOS["crashes"][0])

    @pytest.mark.parametrize("name", [name for name in FAULT_ROWS if _runnable(name)])
    def test_runs_beside_its_companion_flag(self, name, capsys):
        _, setting, companion = ROWS[FaultConfig, name]
        flags = rules.argv(FaultConfig, {**setting, **companion})
        argv = ["jacobi", "--nodes", "4", "--param", "n=32", "--param", "iters=2"]
        assert main([*argv, *flags]) == 0
        assert "reliability:" in capsys.readouterr().out

    def test_a_link_stall_window_needs_a_stall_probability(self, capsys):
        named = r"^link_faults profile \(0, 1\): stall_ns "
        with pytest.raises(ValueError, match=named):
            FaultConfig(**_LINK_STALL)
        with pytest.raises(ValueError, match=named):
            RunRequest(app="jacobi", config=small_config(faults=FaultConfig(**_LINK_STALL)))
        with pytest.raises(SystemExit) as e:
            main(["jacobi", "--nodes", "4", "--fault-link", "0:1:stall_us=300"])
        assert e.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "repro: error: --fault-link: link_faults profile (0, 1): stall_ns ")
        # The uniform stall probability is the link's too.
        FaultConfig(**_LINK_STALL, stall_prob=0.1, stall_ns=100_000)

    @pytest.mark.parametrize("rule", sorted(SCENARIO_RULES))
    def test_a_scenario_refusal_names_its_field_and_flag(self, rule, capsys):
        fields, argv = SCENARIO_RULES[rule]
        with pytest.raises(OptionError) as e:
            FaultConfig(**fields)
        assert (e.value.fields, e.value.owner) == (tuple(fields), FaultConfig)
        assert str(e.value).startswith(f"{e.value.fields[0]} ")
        if argv is None:
            return
        with pytest.raises(SystemExit) as exit_:
            main(["jacobi", "--nodes", "4", *argv])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == f"repro: error: {argv[0]}: {e.value}"
        assert captured.out == ""  # nothing had started

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


class TestRunRequestRules:
    """``RunRequest.RULES`` refuse on every entry that takes the options:
    the shmem passes (for the optimizer rows they include), the request
    and ``repro APP``."""

    @pytest.mark.parametrize("name", REQUEST_ROWS)
    def test_refused_on_every_entry(self, name, capsys):
        row, setting, _ = ROWS[RunRequest, name]
        with pytest.raises(OptionError) as e:
            RunRequest(app="jacobi", **setting)
        assert e.value.owner is RunRequest and set(e.value.fields) <= set(row[0])
        assert str(e.value) == f"{', '.join(e.value.fields)}: {e.value.why}"
        if set(setting) <= set(SHMEM_OPTIONS):  # the run refuses it too
            with pytest.raises(OptionError, match=f"^{re.escape(str(e.value))}$"):
                run_shmem(APPS["jacobi"].program(n=16, iters=1), small_config(), **setting)
        _refused_by_repro_app(capsys, RunRequest, setting, e.value)

    @pytest.mark.parametrize("name", REQUEST_ROWS)
    def test_accepted_once_the_row_holds(self, name):
        _, setting, companion = ROWS[RunRequest, name]
        for key in setting:  # every part of the setting breaks the row
            RunRequest(app="jacobi", **{k: v for k, v in setting.items() if k != key})
        if companion is not None:
            RunRequest(app="jacobi", **setting, **companion)


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
