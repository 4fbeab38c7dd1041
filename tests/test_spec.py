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
from tests import rules

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
    The request digests alone were re-recorded when ``FaultConfig`` lost
    ``max_backoff_ns`` (merged into ``rto_max_ns``) and ``rto_min_ns``
    (the floor is ``retransmit_timeout_ns``): its canonical form has two
    fields fewer.  No result changed, so ``CODE_VERSION`` stayed; an
    older cache entry is a miss, never a wrong hit.  The request digests
    alone were recorded again when ``ClusterConfig`` lost
    ``barrier_manager`` (node 0 manages), ``CombineConfig`` lost
    ``max_msgs``, ``slot_bytes`` and ``max_wait_ns`` (module constants)
    and ``SwitchConfig`` lost ``ports`` and ``bandwidth_bytes_per_us``
    (one link-rate port per node), for the same reason and with the same
    consequence; ``combine_switch`` now enables both layers without
    tuning them.  All of them were recorded again, on purpose, when
    ``CODE_VERSION`` became ``repro-serve/5``: a stored plan lost its
    arrays, so an older plan entry would come back with no numerics.
    The ``numerics_key`` digests were first recorded then.
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

    #: request_key / plan_key / numerics_key hex digests under
    #: ``repro-serve/5``: with ``CODE_VERSION``, the option set and the
    #: plan geometry unchanged, warm caches must keep hitting.
    KEYS = {
        "default": (
            lambda: RunRequest(app="jacobi"),
            "7607788ccb16da59cc847bb77510f8d99699a94d6806463159b739f489164b62",
            "b30dbb65f56fdb2c8478029753266978e566ffbac10f3195e806da9cf9937863",
            "691d0c7f2115c688c2c3d015e3e22dcf30d448969763a4af0e8ef8e00dccc5d9",
        ),
        "storm": (
            lambda: RunRequest(app="jacobi", optimize=True, config=ClusterConfig(
                n_nodes=4, faults=FaultConfig(
                    drop_prob=0.05, dup_prob=0.02, jitter_ns=5 * US, seed=7))),
            "7716ef55d96fc3ada949a0c641f6edaaf5d1286bf81a775546ac516609c0bce0",
            "ee0d6f074df2b8330ebe6e6e5291cfbc517f8301263d4a052bbdc50ecbbb3746",
            "691d0c7f2115c688c2c3d015e3e22dcf30d448969763a4af0e8ef8e00dccc5d9",
        ),
        "combine_switch": (
            lambda: RunRequest(app="cg", config=ClusterConfig(
                combine=CombineConfig(enabled=True),
                switch=SwitchConfig(enabled=True))),
            "6c7687b1d6031a7b3fd18e8df7563a4c82d3b1ef56965d53deeec505a8777603",
            "434864e53055131e13fdd9990105451ffdc48dd625ad3fcc75ebabe1ce8d8d25",
            "63624b475146cbdb90c8b954c6380d4f87cddb349b560933d517cf73b79c1984",
        ),
        "crash_checkpoint": (
            lambda: RunRequest(
                app="jacobi", params={"n": 32, "iters": 2},
                config=ClusterConfig(faults=FaultConfig(
                    crashes=(CrashScenario(2, 3000 * US, 500 * US),),
                    checkpoint_every=1))),
            "957a945d39e3bd1e95f9ac31666270c15abd6957da1fa120f64ff2371e1c1db6",
            "6060084bcdc79067830f21fa8dc3cc2dfb8cbe2311fb81f70ae27292c96c7c33",
            "7704258de1cdf3a76440bc20a1a07befe63af6023067a5c0ba7ea82d69eb7194",
        ),
        "profile": (
            lambda: RunRequest(app="shallow", optimize=True, rt_elim=True,
                               profile_phases=True, critical_path=True),
            "f791dc8319768f056de399218b2d9b85bd83786463948625f8b3dae76afd3f0c",
            "94c6e56781ec2427d1d80cecd0ae28a5bbec0de60b8e432dfc5ca1a2cfd7525a",
            "a9b1ab80b6df1ab57bda6803240770a19dbbe2322c350a4a2cbe88db8d140a9e",
        ),
        "inline": (
            lambda: RunRequest(
                program=APPS["jacobi"].program("default", n=16, iters=1),
                config=ClusterConfig(n_nodes=4)),
            "162825dba24c0903009f7bc512c9e21e8e135d25490019b312d77cc9192a6f93",
            "29ffc713e054cd7b2fd8a7321a969845564ed69b75b1753ddff3e7e745c96939",
            "9a63c3859d12fde90e1ed1ca180069cfa9b1b01af042e275c07dcb35339e1b9d",
        ),
    }

    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_cache_keys_unchanged(self, name):
        build, request_digest, plan_digest, numerics_digest = self.KEYS[name]
        assert request_key(build()) == request_digest
        assert plan_key(build()) == plan_digest
        assert numerics_key(build()) == numerics_digest


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
