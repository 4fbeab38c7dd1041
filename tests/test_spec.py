"""The field spec (``repro.spec``) is the one description of the config
space: flags, sweep axes, cell labels and range checks must all agree
with it — and with what the parent commit's hand-written copies did."""

import dataclasses
import inspect

import pytest
from hypothesis import HealthCheck, given, settings

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
from repro.serve.keys import numerics_key, plan_key, request_key
from repro.serve.matrix import AXES, cell_label, expand_matrix, parse_axis_specs
from repro.serve.request import RunRequest
from repro.tempest.config import US, ClusterConfig, CombineConfig, SwitchConfig
from repro.tempest.faults import (
    CrashScenario,
    FaultConfig,
    LinkFaultConfig,
    PartitionScenario,
)
from tests import pins, rules

SMALL = ["jacobi", "--param", "n=32", "--param", "iters=1"]
#: companions that keep the cross-flag usage errors (a stall and its window
#: need each other, checkpoint/heartbeat need a crash) out of the way of
#: the flag under test
CONTEXT = ["--fault-stall", "0.1", "--fault-stall-us", "300", "--fault-crash", "1:1000"]
FIELDS = list(spec.walk(RunRequest))
IDS = [".".join(path + (f.name,)) for path, f in FIELDS]


def _owner(request, path):
    for name in path:
        request = getattr(request, name)
    return request


def _companion(owner, name, stored) -> dict:
    """What ``owner`` needs beside ``name`` set to ``stored`` to build:
    found from the rows, so that each field can be tried on its own."""
    if owner not in (FaultConfig, RunRequest) or rules.refusal(owner, {name: stored}) is None:
        return {}
    return rules.keeping(owner, {name: stored})


def _axis_text(f, value) -> str:
    return {True: "on", False: "off"}.get(value, str(spec.to_flag(f, value)))


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
        value = rules.sample(f)
        stored = spec.to_field(f, value)
        base = RunRequest(app="jacobi")
        assert getattr(_owner(base, path), f.name) != stored
        owner = type(_owner(base, path))
        companion = _companion(owner, f.name, stored)
        if flag:
            args = build_parser().parse_args(
                ["jacobi", *CONTEXT, *rules.flag_argv(f, value)]
            )
            extra = {"app": "jacobi"} if owner is RunRequest else {}
            built = spec.from_args(owner, args, **extra, **companion)
            assert getattr(built, f.name) == stored
        if axis:
            fields = owner.__dataclass_fields__
            specs = [f"{axis}={_axis_text(f, stored)}"] + [
                f"{fields[k].metadata['axis']}={_axis_text(fields[k], v)}"
                for k, v in companion.items()
            ]
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
                main(SMALL + CONTEXT + rules.flag_argv(f, shown))
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
    """Option strings pinned before the spec existed, and the cache keys of
    six requests: the ``cache_keys`` table of :mod:`tests.pins`, whose
    data file records why each re-record happened.  A key moves only on
    purpose: when what it covers changes shape but no result does,
    ``CODE_VERSION`` stays and an older cache entry is a miss, never a
    wrong hit; when a result or a stored entry changes, ``CODE_VERSION``
    moves and every key with it.
    """

    REPRO = [
        "--advisory", "--audit", "--backend", "--checkpoint-every", "--combine",
        "--critical-path",
        "--fault-crash", "--fault-drop", "--fault-dup", "--fault-jitter",
        "--fault-link", "--fault-partition", "--fault-retries", "--fault-seed",
        "--fault-stall", "--fault-stall-us", "--heartbeat-us", "--help",
        "--no-bulk", "--no-combine", "--no-opt", "--no-switch", "--nodes",
        "--param", "--pre", "--profile-phases", "--protocol", "--rt-elim",
        "--rto-adaptive", "--rto-max-us", "--scale", "--single-cpu", "--switch",
        "--trace-cap", "--trace-kinds",
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

    #: the requests whose request_key / plan_key / numerics_key are pinned:
    #: with ``CODE_VERSION``, the option set and the plan geometry
    #: unchanged, warm caches must keep hitting.
    REQUESTS = {
        "default": lambda: RunRequest(app="jacobi"),
        "storm": lambda: RunRequest(app="jacobi", optimize=True, config=ClusterConfig(
            n_nodes=4, faults=FaultConfig(
                drop_prob=0.05, dup_prob=0.02, jitter_ns=5 * US, seed=7))),
        "combine_switch": lambda: RunRequest(app="cg", config=ClusterConfig(
            combine=CombineConfig(enabled=True),
            switch=SwitchConfig(enabled=True))),
        "crash_checkpoint": lambda: RunRequest(
            app="jacobi", params={"n": 32, "iters": 2},
            config=ClusterConfig(faults=FaultConfig(
                crashes=(CrashScenario(2, 3000 * US, 500 * US),),
                checkpoint_every=1))),
        "profile": lambda: RunRequest(app="shallow", optimize=True, rt_elim=True,
                                      profile_phases=True, critical_path=True),
        "inline": lambda: RunRequest(
            program=APPS["jacobi"].program("default", n=16, iters=1),
            config=ClusterConfig(n_nodes=4)),
    }
    KEYS = pins.stored("cache_keys")

    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_cache_keys_unchanged(self, name):
        assert pins.fields(cache_keys(name)) == self.KEYS[name]


def cache_keys(name: str) -> dict:
    build = TestParentCompatibility.REQUESTS[name]
    return {
        "request_key": request_key(build()),
        "plan_key": plan_key(build()),
        "numerics_key": numerics_key(build()),
    }


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
        (dict(faults=FaultConfig(crashes=(CrashScenario(4, 1000),))), "faults.crashes"),
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
        last = capsys.readouterr().err.splitlines()[-1]
        # the flag that set the field, then the library's refusal
        assert last.startswith(f"repro: error: {argv[2]}: {named} names node(s) [")
        assert last.endswith("] outside the 4-node cluster")

    def test_repro_sweep_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            sweep_main(["jacobi", "--axis", "nodes=0"])
        assert e.value.code == 2
        assert "n_nodes" in capsys.readouterr().err.splitlines()[-1]


class TestValidRequests:
    """``tests.rules.valid_requests`` draws from the declared bounds and
    the rows, so every draw builds and keys like its copy."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rules.valid_requests())
    def test_every_draw_builds_and_keys_like_its_copy(self, req):
        assert request_key(dataclasses.replace(req)) == request_key(req)
        copied = dataclasses.replace(req, config=dataclasses.replace(req.config))
        assert copied == req
