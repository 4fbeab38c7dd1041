"""Property-based and example tests of the cache-key contract.

The contract (docs/serve.md): keys are deterministic across processes;
invariant under spelling differences that cannot change the result (field
order, default-vs-explicit values, overlay tuple order, app-name vs
inline program); and *distinct* for any input difference that can change
the result (any config field, program content, initializer data, the
code-version salt).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.serve import (
    RunRequest,
    canonical,
    fingerprint,
    plan_key,
    program_fingerprint,
    request_key,
)
from repro.tempest.config import ClusterConfig, CombineConfig, SwitchConfig, small_config
from repro.tempest.faults import (
    CrashScenario,
    FaultConfig,
    LinkFaultConfig,
    PartitionScenario,
)

from tests.serve.conftest import jacobi_request


# --------------------------------------------------------------------- #
# determinism and spelling-invariance
# --------------------------------------------------------------------- #
class TestInvariance:
    def test_key_deterministic_across_calls(self):
        cfg = small_config()
        a = request_key(jacobi_request(cfg))
        b = request_key(jacobi_request(cfg))
        assert a == b and len(a) == 64

    def test_default_vs_explicit_config_values(self):
        base = ClusterConfig()
        explicit = ClusterConfig(
            n_nodes=base.n_nodes,
            faults=FaultConfig(drop_prob=0.0, seed=0),
            combine=CombineConfig(enabled=False),
            switch=SwitchConfig(enabled=False),
        )
        assert request_key(jacobi_request(base)) == request_key(
            jacobi_request(explicit)
        )

    def test_param_order_invariance(self):
        cfg = small_config()
        a = RunRequest(app="jacobi", params={"n": 32, "iters": 2}, config=cfg)
        b = RunRequest(app="jacobi", params={"iters": 2, "n": 32}, config=cfg)
        assert request_key(a) == request_key(b)

    def test_app_name_vs_inline_program_share_key(self):
        cfg = small_config()
        by_name = jacobi_request(cfg)
        inline = RunRequest(
            program=get_app("jacobi").program(n=32, iters=2), config=cfg
        )
        assert request_key(by_name) == request_key(inline)

    def test_link_fault_overlay_order_invariance(self):
        cfg = small_config()
        lf1 = LinkFaultConfig(0, 1, drop_prob=0.2)
        lf2 = LinkFaultConfig(2, 3, drop_prob=0.4)
        a = cfg.scaled(faults=FaultConfig(drop_prob=0.01, link_faults=(lf1, lf2)))
        b = cfg.scaled(faults=FaultConfig(drop_prob=0.01, link_faults=(lf2, lf1)))
        assert request_key(jacobi_request(a)) == request_key(jacobi_request(b))

    def test_partition_order_invariance(self):
        cfg = small_config()
        p1 = PartitionScenario("a", frozenset({1}), t_start_ns=100, duration_ns=500)
        p2 = PartitionScenario("b", frozenset({2}), t_start_ns=900, duration_ns=500)
        a = cfg.scaled(faults=FaultConfig(partitions=(p1, p2)))
        b = cfg.scaled(faults=FaultConfig(partitions=(p2, p1)))
        assert request_key(jacobi_request(a)) == request_key(jacobi_request(b))

    @given(st.permutations(["n", "iters"]))
    @settings(max_examples=10, deadline=None)
    def test_canonical_dict_insertion_order(self, order):
        values = {"n": 32, "iters": 2}
        shuffled = {k: values[k] for k in order}
        assert fingerprint(shuffled) == fingerprint({"n": 32, "iters": 2})


# --------------------------------------------------------------------- #
# distinctness: anything that can change the result changes the key
# --------------------------------------------------------------------- #
class TestDistinctness:
    def test_salt_changes_key(self):
        req = jacobi_request(small_config())
        assert request_key(req, salt="repro-serve/1") != request_key(
            req, salt="repro-serve/2"
        )

    @pytest.mark.parametrize(
        "faults",
        [
            FaultConfig(drop_prob=0.05, seed=1),
            FaultConfig(drop_prob=0.05, seed=2),
            FaultConfig(dup_prob=0.05),
            FaultConfig(jitter_ns=1000),
            FaultConfig(drop_prob=0.05, adaptive_rto=True),
            FaultConfig(link_faults=(LinkFaultConfig(0, 1, drop_prob=0.3),)),
            FaultConfig(link_faults=(LinkFaultConfig(0, 1, drop_prob=0.31),)),
            FaultConfig(link_faults=(LinkFaultConfig(1, 0, drop_prob=0.3),)),
            FaultConfig(partitions=(PartitionScenario("p", frozenset({1})),)),
            FaultConfig(
                partitions=(
                    PartitionScenario(
                        "p", frozenset({1}), t_start_ns=100, duration_ns=500
                    ),
                )
            ),
            FaultConfig(
                partitions=(
                    PartitionScenario(
                        "p", frozenset({1}), t_start_ns=100, duration_ns=501
                    ),
                )
            ),
            FaultConfig(crashes=(CrashScenario(1, 1000),)),
            FaultConfig(crashes=(CrashScenario(1, 1000, 500),), checkpoint_every=1),
        ],
    )
    def test_distinct_fault_configs_never_collide(self, faults):
        cfg = small_config()
        base_key = request_key(jacobi_request(cfg))
        faulty_key = request_key(jacobi_request(cfg.scaled(faults=faults)))
        assert faulty_key != base_key

    def test_all_fault_variants_mutually_distinct(self):
        cfg = small_config()
        variants = [
            FaultConfig(),
            FaultConfig(drop_prob=0.05, seed=1),
            FaultConfig(drop_prob=0.05, seed=2),
            FaultConfig(link_faults=(LinkFaultConfig(0, 1, drop_prob=0.3),)),
            FaultConfig(link_faults=(LinkFaultConfig(1, 0, drop_prob=0.3),)),
            FaultConfig(partitions=(PartitionScenario("p", frozenset({1})),)),
            FaultConfig(
                partitions=(
                    PartitionScenario(
                        "p", frozenset({1}), t_start_ns=0, duration_ns=500
                    ),
                )
            ),
        ]
        keys = [
            request_key(jacobi_request(cfg.scaled(faults=f))) for f in variants
        ]
        assert len(set(keys)) == len(keys)

    @given(
        st.sampled_from(
            ["n_nodes", "block_size", "page_size", "compute_ns_per_unit"]
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_geometry_field_perturbation_changes_key(self, field):
        cfg = small_config()
        bumped = cfg.scaled(**{field: getattr(cfg, field) * 2})
        assert request_key(jacobi_request(cfg)) != request_key(
            jacobi_request(bumped)
        )

    @pytest.mark.parametrize(
        "override",
        [
            dict(optimize=True),
            dict(optimize=True, bulk=False),
            dict(optimize=True, rt_elim=True),
            dict(protocol="update"),
            dict(backend="uniproc"),
            dict(backend="msgpass"),
        ],
    )
    def test_run_options_change_key(self, override):
        cfg = small_config()
        assert request_key(jacobi_request(cfg)) != request_key(
            jacobi_request(cfg, **override)
        )

    def test_program_param_changes_key(self):
        cfg = small_config()
        a = jacobi_request(cfg)
        b = RunRequest(app="jacobi", params={"n": 48, "iters": 2}, config=cfg)
        assert request_key(a) != request_key(b)

    def test_initializer_data_changes_key(self):
        def build(value):
            b = ProgramBuilder("initprog")
            arr = b.array("a", (16, 16), init=lambda shape: np.full(shape, value))
            b.forall(0, 15, arr[S(0, 15), I], arr[S(0, 15), I] + 1.0)
            return b.build()

        cfg = small_config()
        a = RunRequest(program=build(1.0), config=cfg)
        b = RunRequest(program=build(2.0), config=cfg)
        assert request_key(a) != request_key(b)


# --------------------------------------------------------------------- #
# plan keys: coarse over the wire, fine over the geometry
# --------------------------------------------------------------------- #
class TestPlanKey:
    def test_invariant_under_wire_config(self):
        cfg = small_config()
        base = plan_key(jacobi_request(cfg))
        faulty = plan_key(
            jacobi_request(cfg.scaled(faults=FaultConfig(drop_prob=0.1, seed=3)))
        )
        combined = plan_key(
            jacobi_request(
                cfg.scaled(combine=dataclasses.replace(CombineConfig(), enabled=True))
            )
        )
        switched = plan_key(
            jacobi_request(
                cfg.scaled(switch=dataclasses.replace(SwitchConfig(), enabled=True))
            )
        )
        assert base == faulty == combined == switched

    def test_changes_with_build_options_and_geometry(self):
        cfg = small_config()
        base = plan_key(jacobi_request(cfg))
        assert base != plan_key(jacobi_request(cfg, optimize=True))
        assert base != plan_key(jacobi_request(cfg.scaled(n_nodes=8)))


# --------------------------------------------------------------------- #
# the per-process fingerprint memo
# --------------------------------------------------------------------- #
class TestFingerprintMemo:
    """A registry program is a pure function of (app, scale, params)
    within a process, so it is built and hashed once; an inline Program
    is an object the caller can mutate, so it is hashed on every call."""

    @pytest.fixture
    def fingerprinted(self, monkeypatch):
        from repro.serve import request as request_module

        calls = []

        def counting(program):
            calls.append(program.name)
            return program_fingerprint(program)

        monkeypatch.setattr(request_module, "program_fingerprint", counting)
        monkeypatch.setattr(request_module, "_FINGERPRINTS", {})
        return calls

    def test_registry_program_fingerprinted_once_per_spec(self, fingerprinted):
        cfg = small_config()
        wires = [cfg, cfg.scaled(faults=FaultConfig(drop_prob=0.05, seed=1))]
        for spec in ({"n": 32, "iters": 2}, {"n": 32, "iters": 3}):
            for config in wires:
                for optimize in (False, True):
                    req = jacobi_request(config, params=spec, optimize=optimize)
                    request_key(req), plan_key(req), request_key(req)
        assert fingerprinted == ["jacobi", "jacobi"]  # one per spec, not 24
        jacobi_request(cfg, scale="paper", params=spec).resolved_fingerprint()
        assert len(fingerprinted) == 3  # scale is part of the spec
        # ...and so is a value's type: 3.0 == 3 must not find 3's entry
        # (jacobi rejects a float iteration count when it is built).
        with pytest.raises(TypeError):
            request_key(jacobi_request(cfg, params={"n": 32, "iters": 3.0}))

    def test_inline_program_fingerprinted_every_call(self, fingerprinted):
        cfg = small_config()
        program = get_app("jacobi").program(n=32, iters=2)
        inline = RunRequest(program=program, config=cfg)
        keys = {request_key(inline), request_key(inline)}
        plan_key(inline)
        assert len(fingerprinted) == 3 and len(keys) == 1
        # ...which is what lets a caller edit the program between calls.
        program.scalars["extra"] = 1.0
        assert request_key(inline) not in keys

    def test_memoized_key_equals_inline_key(self, fingerprinted):
        cfg = small_config()
        by_name = jacobi_request(cfg)
        inline = RunRequest(
            program=get_app("jacobi").program(n=32, iters=2), config=cfg
        )
        first, again = request_key(by_name), request_key(by_name)
        assert first == again == request_key(inline)
        assert plan_key(by_name) == plan_key(inline)


# --------------------------------------------------------------------- #
# canonicalizer edge cases
# --------------------------------------------------------------------- #
class TestCanonical:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical(object())

    def test_ndarray_content_addressed(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.T.copy())
        b = a.copy()
        b[0, 0] += 1e-12
        assert fingerprint(a) != fingerprint(b)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_float_roundtrip_exact(self, x):
        assert fingerprint(x) == fingerprint(float(repr(x)))


# --------------------------------------------------------------------- #
# code-version salt rollover
# --------------------------------------------------------------------- #
class TestSaltRollover:
    """The engine rewrite (PR 9) bumped CODE_VERSION: entries cached under
    the previous salt must be unreachable under the current one."""

    OLD_SALT = "repro-serve/1"

    def test_salt_was_bumped(self):
        from repro.serve.keys import CODE_VERSION

        assert CODE_VERSION != self.OLD_SALT

    def test_old_salt_store_yields_zero_hits(self, tmp_path):
        from repro.serve.keys import CODE_VERSION
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path / "store")
        cfg = small_config()
        requests = [
            jacobi_request(cfg),
            jacobi_request(ClusterConfig(n_nodes=4)),
        ]
        # Populate the store exactly as a pre-bump build would have.
        for req in requests:
            store.put(
                ResultStore.RESULTS,
                request_key(req, salt=self.OLD_SALT),
                {"stale": True},
            )
        # Every current-salt lookup must miss: stale engine results are
        # never served, no cache deletion required.
        for req in requests:
            assert store.get(ResultStore.RESULTS, request_key(req)) is None
        assert store.stats.hits == 0
        assert store.stats.misses == len(requests)
        # The old entries are still present on disk (the rollover is an
        # invalidation by unreachability, not a purge)...
        for req in requests:
            assert store.contains(
                ResultStore.RESULTS, request_key(req, salt=self.OLD_SALT)
            )
        # ...and explicitly keying with the current salt round-trips.
        assert request_key(requests[0]) == request_key(
            requests[0], salt=CODE_VERSION
        )
