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
#: request fields a shmem run accepts only with ``optimize`` on
OPTIMIZER_OPTIONS = ("rt_elim", "pre", "advisory")
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
        needs_opt = path == () and f.name in OPTIMIZER_OPTIONS
        if flag:
            args = build_parser().parse_args(
                ["jacobi", *CONTEXT, *_flag_argv(f, value)]
            )
            owner = type(_owner(base, path))
            extra = {"app": "jacobi"} if owner is RunRequest else {}
            if needs_opt:
                extra["optimize"] = True
            built = spec.from_args(owner, args, **extra)
            assert getattr(built, f.name) == stored
        if axis:
            text = {True: "on", False: "off"}.get(value, str(value))
            specs = [f"{axis}={text}"] + (["optimize=on"] if needs_opt else [])
            (cell,) = expand_matrix(["jacobi"], parse_axis_specs(specs))
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
    written before then is a miss, never a wrong hit.  They were recorded
    again when ``CODE_VERSION`` became ``repro-serve/4`` and ``plan_key``
    began hashing ``trace_geometry(config)``.  The plan digests alone were
    re-recorded when ``trace_geometry`` shrank to the five fields the
    build reads; request digests and ``CODE_VERSION`` did not move.
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

    #: request_key / plan_key hex digests under ``repro-serve/4``: with
    #: ``CODE_VERSION``, the option set and the plan geometry unchanged,
    #: warm caches must keep hitting.
    KEYS = {
        "default": (
            lambda: RunRequest(app="jacobi"),
            "f1f88a31320ee718df262b57d6e282b8352bcecf816a84639e5f5732e67f9513",
            "4d50943fa2edc8695b4c9d36409cb6d2c940aa1e7e6a2cc33468773649f1a829",
        ),
        "storm": (
            lambda: RunRequest(app="jacobi", optimize=True, config=ClusterConfig(
                n_nodes=4, faults=FaultConfig(
                    drop_prob=0.05, dup_prob=0.02, jitter_ns=5 * US, seed=7))),
            "9457181b41b1a6033b9554383ec272d2f9d8b34de3a583872a466fa7e75665b4",
            "1cc25c06cbb4eec0c0a69bf84d11bb56620f79f6d09c63fc27161dcf9996cb97",
        ),
        "combine_switch": (
            lambda: RunRequest(app="cg", config=ClusterConfig(
                combine=CombineConfig(enabled=True, max_msgs=4),
                switch=SwitchConfig(enabled=True, ports=2))),
            "77a763bc163666d66b2288326c309d3e792a039a97b26bc19e46d1c2881c0cdd",
            "29a38f70fb2e76103b79ee8085189c2b5fd80e2e4e302c3dadacb50aad415cba",
        ),
        "crash_checkpoint": (
            lambda: RunRequest(
                app="jacobi", params={"n": 32, "iters": 2},
                config=ClusterConfig(faults=FaultConfig(
                    crashes=(CrashScenario(2, 3000 * US, 500 * US),),
                    checkpoint_every=1))),
            "c9e4206d23e7eb1c608d7f79748d8a87c60b94a5e981b730997290bca9bc9fce",
            "5a6fa182a5039cbcfde189c350744776d07d97c886538f62743a9b87be4685bc",
        ),
        "profile": (
            lambda: RunRequest(app="shallow", optimize=True, rt_elim=True,
                               profile_phases=True, critical_path=True),
            "7d2223fbdafc55c68b945e31be706b9c707c8d206fea6554d9b6c35e49d1c164",
            "2799f447beda0f82cacf9ebf5e1a5adaad264012d7b9b86fce064f0fbc8c92e5",
        ),
        "inline": (
            lambda: RunRequest(
                program=APPS["jacobi"].program("default", n=16, iters=1),
                config=ClusterConfig(n_nodes=4)),
            "0b0aba25db605c324ac3f55f10a3612c050560745288fc7ae56f3959673e16bd",
            "587c493d5c89ea835f3a4b4b5b81face77f0aecebd3a0e24c9a0ecaa3fa6f093",
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
        # Every valid cell: a request refuses rt_elim or pre without
        # optimize, and optimize with any protocol but invalidate.
        optimized = {**two, "optimize": ["on"], "protocol": ["invalidate"]}
        plain = {**two, "optimize": ["off"], "rt_elim": ["off"], "pre": ["off"]}
        cells = expand_matrix(["jacobi"], optimized) + expand_matrix(["jacobi"], plain)
        assert len(cells) == 2 ** 12 + 2 ** 11
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
