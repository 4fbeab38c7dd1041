"""The field spec (``repro.spec``) is the one description of the config
space: flags, sweep axes, cell labels and range checks must all agree
with it — and with what the parent commit's hand-written copies did."""

import dataclasses
import inspect

import pytest

from repro import spec
from repro.apps import APPS
from repro.cli import build_parser, main
from repro.runtime.shmem import (
    BUILD_OPTIONS,
    EXECUTE_OPTIONS,
    build_shmem_plan,
    execute_shmem_plan,
)
from repro.serve.cli import build_diff_parser, build_sweep_parser, sweep_main
from repro.serve.keys import plan_key, request_key
from repro.serve.matrix import AXES, cell_label, expand_matrix, parse_axis_specs
from repro.serve.request import RunRequest
from repro.tempest.config import US, ClusterConfig, CombineConfig, SwitchConfig
from repro.tempest.faults import (
    CrashScenario,
    FaultConfig,
    LinkFaultConfig,
    PartitionScenario,
)

SMALL = ["jacobi", "--param", "n=32", "--param", "iters=1"]
#: companions that keep the cross-flag usage errors (stall needs a window,
#: checkpoint/heartbeat need a crash) out of the way of the flag under test
CONTEXT = ["--fault-stall-us", "300", "--fault-crash", "1:1000"]
FIELDS = list(spec.walk(RunRequest))
IDS = [".".join(path + (f.name,)) for path, f in FIELDS]


def _owner(request, path):
    for name in path:
        request = getattr(request, name)
    return request


def _sample(f):
    """A legal non-default value of ``f`` in flag/axis units."""
    kind = spec.kind(f)
    if f.metadata["choices"]:
        return next(c for c in f.metadata["choices"] if c != f.default)
    if kind is bool:
        return not f.default
    if kind is int:
        return (f.default or 0) + 3
    return 7.5 if f.metadata["unit"] != 1 else 0.25


def _flag_argv(f, value):
    flag = f.metadata["flag"].replace("[no-]", "")
    if spec.kind(f) is not bool:
        return [flag, str(value)]
    return [flag if value else flag.replace("--", "--no-", 1)]


def _violation(f):
    """A stored value just outside ``f``'s declared bounds, or None."""
    m = f.metadata
    if m["choices"]:
        return "bogus"
    for key, off in (("ge", -1), ("gt", 0), ("lt", 0)):
        if m[key] is not None:
            return m[key] + off
    return None


class TestOneSpelling:
    def test_the_axis_vocabulary_is_exactly_the_parents(self):
        assert sorted(AXES) == sorted([
            "optimize", "bulk", "rt_elim", "pre", "protocol", "combine",
            "switch", "drop", "dup", "jitter_us", "seed", "nodes", "scale",
            "profile",
        ])

    @pytest.mark.parametrize(("path", "f"), FIELDS, ids=IDS)
    def test_flag_path_and_axis_path_agree(self, path, f):
        """The same value through ``--flag`` and through ``--axis`` lands
        as the same stored field value (units included)."""
        flag, axis = f.metadata["flag"], f.metadata["axis"]
        value = _sample(f)
        stored = spec.to_field(f, value)
        base = RunRequest(app="jacobi")
        assert getattr(_owner(base, path), f.name) != stored
        if flag:
            args = build_parser().parse_args(
                ["jacobi", *CONTEXT, *_flag_argv(f, value)]
            )
            owner = type(_owner(base, path))
            extra = {"app": "jacobi"} if owner is RunRequest else {}
            built = spec.from_args(owner, args, **extra)
            assert getattr(built, f.name) == stored
        if axis:
            text = {True: "on", False: "off"}.get(value, str(value))
            (cell,) = expand_matrix(["jacobi"], parse_axis_specs([f"{axis}={text}"]))
            assert getattr(_owner(cell, path), f.name) == stored

    @pytest.mark.parametrize(("path", "f"), FIELDS, ids=IDS)
    def test_out_of_bounds_names_the_field_on_every_entry(self, path, f, capsys):
        bad = _violation(f)
        if bad is None:
            pytest.skip("field declares no bounds")
        owner = _owner(RunRequest(app="jacobi"), path)
        with pytest.raises(ValueError, match=f.name):
            dataclasses.replace(owner, **{f.name: bad})
        shown = spec.to_flag(f, bad)
        if f.metadata["axis"]:
            with pytest.raises(ValueError, match=f.name):
                expand_matrix(["jacobi"], {f.metadata["axis"]: [shown]})
        if f.metadata["flag"] and not f.metadata["choices"]:
            with pytest.raises(SystemExit) as e:
                main(SMALL + CONTEXT + _flag_argv(f, shown))
            assert e.value.code == 2
            captured = capsys.readouterr()
            assert f.name in captured.err.splitlines()[-1]
            assert captured.out == ""  # nothing had started

    def test_shmem_option_tuples_are_the_two_signatures(self):
        """A new option cannot be keyed but not forwarded (or vice versa):
        RunRequest derives both from these tuples."""
        def keywords(fn):
            return tuple(inspect.signature(fn).parameters)[2:]

        assert keywords(build_shmem_plan) == BUILD_OPTIONS
        assert set(keywords(execute_shmem_plan)) - {"obs"} == set(EXECUTE_OPTIONS)
        request = RunRequest(app="jacobi")
        assert tuple(request.build_options()) == BUILD_OPTIONS
        assert set(request.run_options()) == set(BUILD_OPTIONS + EXECUTE_OPTIONS)
        assert RunRequest(app="jacobi", backend="msgpass").run_options() == {}


class TestParentCompatibility:
    """Option strings pinned before the spec existed.

    The cache-key digests were re-recorded once, when ``check_contracts``
    left ``build_options()`` and ``check_contracts``, ``audit`` and
    ``audit_sample_prob`` left ``run_options()``: each had one value in
    use.  No result changed, so ``CODE_VERSION`` stayed; a cache entry
    written before then is a miss, never a wrong hit.
    """

    REPRO = [
        "--advisory", "--audit", "--backend", "--checkpoint-every", "--combine",
        "--combine-max-msgs", "--combine-wait", "--critical-path",
        "--fault-crash", "--fault-drop", "--fault-dup", "--fault-jitter",
        "--fault-link", "--fault-partition", "--fault-retries", "--fault-seed",
        "--fault-stall", "--fault-stall-us", "--heartbeat-us", "--help",
        "--no-bulk", "--no-combine", "--no-opt", "--no-switch", "--nodes",
        "--param", "--pre", "--profile-phases", "--protocol", "--rt-elim",
        "--rto-adaptive", "--rto-max-us", "--scale", "--single-cpu", "--switch",
        "--switch-bw", "--switch-ports", "--trace-cap", "--trace-kinds",
        "--trace-messages", "--trace-out", "--whatif", "-h",
    ]
    SWEEP = [
        "--axis", "--cache-dir", "--check-serial", "--help", "--jobs", "--json",
        "--min-hit-rate", "--no-cache", "--nodes", "--quiet", "--scale", "-h",
    ]
    DIFF = [
        "--cache-dir", "--help", "--jobs", "--json", "--no-cache", "--nodes",
        "--scale", "-h",
    ]

    @pytest.mark.parametrize(("build", "pinned"), [
        (build_parser, REPRO), (build_sweep_parser, SWEEP), (build_diff_parser, DIFF),
    ])
    def test_option_strings_unchanged(self, build, pinned):
        options = sorted(s for a in build()._actions for s in a.option_strings)
        assert options == pinned

    def test_defaults_unchanged(self):
        args = build_parser().parse_args(["jacobi"])
        assert (args.scale, args.nodes, args.protocol) == ("default", 8, "invalidate")
        assert (args.fault_drop, args.fault_jitter, args.fault_seed) == (0.0, 0.0, 0)
        assert (args.combine, args.switch, args.rt_elim) == (False, False, False)
        assert args.switch_ports is None and args.switch_bw is None

    #: request_key / plan_key hex digests: with ``CODE_VERSION`` and the
    #: option set unchanged, warm caches must keep hitting.
    KEYS = {
        "default": (
            lambda: RunRequest(app="jacobi"),
            "bb0fe5d3e2d5963fe720ff01a303858f4d2c9f575cddd0d034f721c72af8d96d",
            "362aa84c71feecfff6ed3041b054dba5323aa42076849a8b37efb80f1deacb4c",
        ),
        "storm": (
            lambda: RunRequest(app="jacobi", optimize=True, config=ClusterConfig(
                n_nodes=4, faults=FaultConfig(
                    drop_prob=0.05, dup_prob=0.02, jitter_ns=5 * US, seed=7))),
            "f1f41f2d112625f7bee45b367731ff37aab838b04353f90c423b6f0333b6f1d5",
            "9ff88f0f628c4568ef5cfa7984877b8c612f3c2f228c146391b572923eb9aa17",
        ),
        "combine_switch": (
            lambda: RunRequest(app="cg", config=ClusterConfig(
                combine=CombineConfig(enabled=True, max_msgs=4),
                switch=SwitchConfig(enabled=True, ports=2))),
            "0576e910edeb374be846bccd746cbde7d5ba539130f66ecc48d2372dd5a729cb",
            "1288afcaf6de1163b6436748f4fb19faed7c5cfbf65c7e31c2a904e0e358f3bf",
        ),
        "crash_checkpoint": (
            lambda: RunRequest(
                app="jacobi", params={"n": 32, "iters": 2},
                config=ClusterConfig(faults=FaultConfig(
                    crashes=(CrashScenario(2, 3000 * US, 500 * US),),
                    checkpoint_every=1))),
            "72e37d84ae5a3a1deb09d8d95b4badddea0bdcc8151d0427d86fc0220539c154",
            "bbaac04465df43c72a71fbce0904a9b9a2030dab238105ab2bbb95ff73c65954",
        ),
        "profile": (
            lambda: RunRequest(app="shallow", optimize=True, rt_elim=True,
                               profile_phases=True, critical_path=True),
            "a014dcd2ffbedf276da36e6c1bc74ffc562bb3725e22fb9c6994d240e2e8bb6c",
            "f0d116a13ee694ea8398bad53b6caa75831eed8fdd68efe09c1a0997a53ea39b",
        ),
        "inline": (
            lambda: RunRequest(
                program=APPS["jacobi"].program("default", n=16, iters=1),
                config=ClusterConfig(n_nodes=4)),
            "d0fa171b80d11e5f288fbafa978b1bae534f3cfafdb0215f3ec5e1c3dea0cae0",
            "f3b78c11f92b9903eb5efbf3a11b0462c764bb7726c59b8c947139768b8b8d62",
        ),
    }

    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_cache_keys_unchanged(self, name):
        build, request_digest, plan_digest = self.KEYS[name]
        assert request_key(build()) == request_digest
        assert plan_key(build()) == plan_digest


class TestCellLabels:
    """Regression: the hand-written label never printed bulk, rt_elim, pre,
    protocol or scale, so such cells were indistinguishable."""

    def test_full_two_value_matrix_has_distinct_labels(self):
        two = {
            "scale": ["default", "paper"], "protocol": ["invalidate", "update"],
            "nodes": [4, 8], "drop": [0, 0.05], "dup": [0, 0.02],
            "jitter_us": [0, 5], "seed": [0, 3],
            **{axis: ["off", "on"] for axis in (
                "optimize", "bulk", "rt_elim", "pre", "profile", "combine",
                "switch")},
        }
        assert sorted(two) == sorted(AXES)
        cells = expand_matrix(["jacobi"], two)
        assert len(cells) == 2 ** 14
        assert len({cell_label(c) for c in cells}) == len(cells)

    def test_label_spelling(self):
        (cell,) = expand_matrix(["jacobi"], parse_axis_specs([
            "optimize=on", "rt_elim=on", "bulk=off", "nodes=4", "jitter_us=5",
            "profile=on",
        ]))
        assert cell_label(cell) == "opt no-bulk rt_elim profile n=4 jitter_us=5"
        assert cell_label(RunRequest(app="jacobi")) == "unopt n=8"


class TestNodeIdsInsideTheCluster:
    """Regression: only ``repro APP`` checked crash/partition node ids, so
    sweeps and library callers died mid-run with an IndexError (or had the
    scenario silently ignored)."""

    @pytest.mark.parametrize(("kwargs", "named"), [
        (dict(faults=FaultConfig(crashes=(CrashScenario(7, 1000),))), "faults.crashes"),
        (dict(faults=FaultConfig(partitions=(PartitionScenario("p", {1, 9}),))),
         "faults.partitions"),
        (dict(faults=FaultConfig(link_faults=(LinkFaultConfig(0, 9, drop_prob=0.1),))),
         "faults.link_faults"),
        (dict(barrier_manager=9), "barrier_manager"),
        (dict(bandwidth_bytes_per_us=0), "bandwidth_bytes_per_us"),
        (dict(wire_latency_ns=-1), "wire_latency_ns"),
        (dict(handler_request_ns=-5), "handler_request_ns"),
        (dict(compute_quantum_ns=0), "compute_quantum_ns"),
    ])
    def test_constructor_names_the_field(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            ClusterConfig(n_nodes=4, **kwargs)

    def test_shrinking_the_cluster_under_a_scenario_is_rejected(self):
        cfg = ClusterConfig(faults=FaultConfig(crashes=(CrashScenario(7, 1000),)))
        with pytest.raises(ValueError, match="faults.crashes"):
            cfg.scaled(n_nodes=4)
        with pytest.raises(ValueError, match="cell nodes=4: faults.crashes"):
            expand_matrix(["jacobi"], {"nodes": [4]}, base_config=cfg)

    @pytest.mark.parametrize(("argv", "named"), [
        (["--nodes", "4", "--fault-crash", "7:1000"], "faults.crashes"),
        (["--nodes", "4", "--fault-partition", "1,9:100:never"], "faults.partitions"),
        (["--nodes", "4", "--fault-link", "0:9:drop=0.1"], "faults.link_faults"),
    ])
    def test_repro_app_exits_2(self, argv, named, capsys):
        with pytest.raises(SystemExit) as e:
            main(SMALL + argv)
        assert e.value.code == 2
        assert named in capsys.readouterr().err.splitlines()[-1]

    def test_repro_sweep_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            sweep_main(["jacobi", "--axis", "nodes=0"])
        assert e.value.code == 2
        assert "n_nodes" in capsys.readouterr().err.splitlines()[-1]
