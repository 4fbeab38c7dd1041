"""Behavioral tests of ServeSession: caching, dedup, pool, batches, plans."""

import pytest

from repro.apps import get_app
from repro.obs import EventBus
from repro.runtime.shmem import run_shmem
from repro.serve import (
    ResultStore,
    RunRequest,
    ServeSession,
    execute_request,
    plan_key,
    request_key,
    runner,
)
from repro.serve.runner import PlanCache, batch_order
from repro.spec import OptionError
from repro.tempest.config import CombineConfig, SwitchConfig, small_config
from repro.tempest.faults import CrashScenario, FaultConfig
from repro.tempest.memory import HomePolicy

from tests.serve.conftest import jacobi_request


#: one non-default setting of each shmem-only option (plus what the shmem
#: backend needs beside it), by the field a refusal names
SHMEM_ONLY = [
    ("optimize", dict(optimize=True)),
    ("bulk", dict(bulk=False)),
    ("rt_elim", dict(optimize=True, rt_elim=True)),
    ("pre", dict(optimize=True, pre=True)),
    ("advisory", dict(optimize=True, advisory="full")),
    ("home_policy", dict(home_policy=HomePolicy.ROUND_ROBIN)),
    ("protocol", dict(protocol="update")),
    ("audit_each_barrier", dict(audit_each_barrier=True)),
    ("profile_phases", dict(profile_phases=True)),
    ("critical_path", dict(critical_path=True)),
    ("config.faults.checkpoint_every", dict(config=small_config(faults=FaultConfig(
        crashes=(CrashScenario(1, 300_000, 100_000),), checkpoint_every=1,
    )))),
]


class TestRequestValidation:
    def test_needs_exactly_one_program_spec(self):
        with pytest.raises(ValueError, match="exactly one"):
            RunRequest()
        with pytest.raises(ValueError, match="exactly one"):
            RunRequest(
                app="jacobi", program=get_app("jacobi").program(n=32, iters=2)
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            RunRequest(app="jacobi", backend="quantum")

    @pytest.mark.parametrize(
        "options, named",
        [
            (dict(rt_elim=True), "optimizer options"),
            (dict(pre=True), "optimizer options"),
            (dict(advisory="prefetch"), "optimizer options"),
            (dict(optimize=True, protocol="update"), "requires protocol='invalidate'"),
        ],
    )
    def test_shmem_options_the_run_would_refuse_are_refused(self, options, named):
        with pytest.raises(OptionError, match=named):
            RunRequest(app="jacobi", **options)
        # uniproc and msgpass would ignore them, so they are refused there too
        with pytest.raises(OptionError, match="backend='uniproc'"):
            RunRequest(app="jacobi", backend="uniproc", **options)

    @pytest.mark.parametrize("backend", ["uniproc", "msgpass"])
    @pytest.mark.parametrize(
        "field, options", SHMEM_ONLY, ids=[field for field, _ in SHMEM_ONLY]
    )
    def test_shmem_only_options_are_refused_on_other_backends(
        self, field, options, backend
    ):
        """One rule list: every option the uniproc and msgpass runs would
        silently ignore is refused, naming the field and the backend."""
        RunRequest(app="jacobi", **options)  # shmem takes it
        with pytest.raises(OptionError) as e:
            RunRequest(app="jacobi", backend=backend, **options)
        assert field in e.value.fields
        assert field in str(e.value) and f"backend={backend!r}" in str(e.value)

    def test_params_accept_dict_or_tuple(self):
        a = RunRequest(app="jacobi", params={"n": 32, "iters": 2})
        b = RunRequest(app="jacobi", params=(("iters", 2), ("n", 32)))
        assert a.params == b.params == (("iters", 2), ("n", 32))


class TestInlineServing:
    def test_equal_to_direct_run(self, cfg):
        req = jacobi_request(cfg, optimize=True)
        direct = run_shmem(req.build_program(), cfg, optimize=True)
        with ServeSession() as sess:
            served = sess.run(req)
        assert served.source == "computed" and served.where == "inline"
        assert direct.exact_equal(served.result)

    def test_no_cache_dir_always_computes(self, cfg):
        req = jacobi_request(cfg)
        with ServeSession() as sess:
            a, b = sess.run(req), sess.run(req)
        assert a.source == b.source == "computed"
        assert a.result.exact_equal(b.result)

    def test_warm_cache_hit(self, cfg, store_dir):
        req = jacobi_request(cfg)
        with ServeSession(cache_dir=store_dir) as sess:
            cold = sess.run(req)
            warm = sess.run(req)
            assert sess.stats()["hit_rate"] == 0.5
        assert cold.source == "computed" and warm.source == "cache"
        assert cold.result.exact_equal(warm.result)

    def test_cache_persists_across_sessions(self, cfg, store_dir):
        req = jacobi_request(cfg)
        with ServeSession(cache_dir=store_dir) as sess:
            cold = sess.run(req)
        with ServeSession(cache_dir=store_dir) as sess2:
            warm = sess2.run(req)
        assert warm.source == "cache"
        assert cold.result.exact_equal(warm.result)

    @pytest.mark.parametrize("options", [
        dict(optimize=True), dict(profile_phases=True, critical_path=True),
    ], ids=["opt", "instrumented"])
    def test_obs_attaches_a_bus_as_run_shmem_does(self, cfg, options):
        req = jacobi_request(cfg, **options)
        served, direct = EventBus(), EventBus()
        a = execute_request(req, obs=served)
        b = run_shmem(req.build_program(), cfg, obs=direct, **req.run_options())
        assert a.exact_equal(b)
        assert served.events_published == direct.events_published > 0

    def test_obs_on_another_backend_is_refused(self, cfg):
        with pytest.raises(ValueError, match="shmem"):
            execute_request(jacobi_request(cfg, backend="msgpass"), obs=EventBus())

    def test_provenance_never_pollutes_run_result(self, cfg, store_dir):
        """Cache metadata lives on ServeResult; RunResult must stay
        dataclass-equal to a direct run even after a round trip."""
        req = jacobi_request(cfg)
        with ServeSession(cache_dir=store_dir) as sess:
            sess.run(req)
            warm = sess.run(req)
        direct = run_shmem(req.build_program(), cfg)
        assert direct.exact_equal(warm.result)
        assert "cache" not in warm.result.extra
        assert warm.key and warm.source == "cache"


class TestPlanMemoization:
    def test_wire_variants_share_one_plan(self, cfg):
        from repro.tempest.faults import FaultConfig

        reqs = [
            jacobi_request(cfg, optimize=True),
            jacobi_request(
                cfg.scaled(faults=FaultConfig(drop_prob=0.05, seed=1)),
                optimize=True,
            ),
            jacobi_request(
                cfg.scaled(faults=FaultConfig(drop_prob=0.05, seed=2)),
                optimize=True,
            ),
        ]
        with ServeSession() as sess:
            sess.run_batch(reqs)
            stats = sess.stats()
        assert stats["plans_built"] == 1
        assert stats["plan_memo_hits"] == 2

    def test_plan_disk_cache_across_sessions(self, cfg, store_dir):
        req = jacobi_request(cfg, optimize=True)
        with ServeSession(cache_dir=store_dir) as sess:
            sess.run(req)
            assert sess.plans.built == 1
        # New session, result entries wiped: the plan comes from disk.
        with ServeSession(cache_dir=store_dir) as sess2:
            for e in sess2.store.entries(sess2.store.RESULTS):
                e.unlink()
            sess2.run(req)
            assert sess2.plans.built == 0
            assert sess2.plans.disk_hits == 1

    def test_memo_lru_eviction(self, cfg):
        sizes = [16, 24, 32, 40, 48]  # one program more than the memo keeps
        assert len(sizes) == runner.MEMO_PLANS + 1
        reqs = [
            RunRequest(app="jacobi", params={"n": n, "iters": 1}, config=cfg)
            for n in sizes
        ]
        plans = PlanCache(None)
        for req in reqs:
            execute_request(req, plans)
        assert len(plans._memo) == runner.MEMO_PLANS
        # Re-running the oldest rebuilds (it was evicted)...
        execute_request(reqs[0], plans)
        assert plans.built == len(sizes) + 1
        # ...while the newest is still memoized.
        execute_request(reqs[0], plans)
        assert plans.memo_hits == 1


class TestProgramBuiltOnlyWhenNeeded:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = RunRequest.build_program

        def counting(self):
            calls.append(self.label())
            return build(self)

        monkeypatch.setattr(RunRequest, "build_program", counting)
        return calls

    def test_plan_hit_builds_no_program(self, cfg, store_dir, builds):
        req = jacobi_request(cfg, optimize=True)
        plans = PlanCache(ResultStore(store_dir))
        first = execute_request(req, plans)
        assert len(builds) == 1  # the plan miss
        again = execute_request(req, plans)
        from_disk = execute_request(req, PlanCache(ResultStore(store_dir)))
        assert len(builds) == 1 and plans.memo_hits == 1
        assert first.exact_equal(again) and first.exact_equal(from_disk)

    def test_other_backends_build_once(self, cfg, builds):
        execute_request(jacobi_request(cfg, backend="uniproc"))
        execute_request(jacobi_request(cfg, backend="msgpass"))
        assert len(builds) == 2


def wire_matrix(cfg):
    """2 apps x opt x 4 wires, wire innermost: 4 plans of 4 cells each."""
    wires = [
        cfg,
        cfg.scaled(combine=CombineConfig(enabled=True)),
        cfg.scaled(switch=SwitchConfig(enabled=True)),
        cfg.scaled(faults=FaultConfig(drop_prob=0.02, seed=3)),
    ]
    specs = (("jacobi", {"n": 32, "iters": 1}), ("cg", {"rows": 16, "cols": 32, "iters": 1}))
    return [
        RunRequest(app=app, params=params, config=wire, optimize=optimize)
        for app, params in specs
        for optimize in (False, True)
        for wire in wires
    ]


class TestBatchOrder:
    def test_leaders_first_then_the_rest_in_order(self, cfg):
        requests = wire_matrix(cfg)
        requests += requests[-2:]
        order = batch_order(requests)
        assert sorted(order) == list(range(len(requests)))
        pkeys = [plan_key(r) for r in requests]
        n_plans = len(set(pkeys))
        assert n_plans == 4
        assert order[:n_plans] == [0, 4, 8, 12]
        assert len({pkeys[i] for i in order[:n_plans]}) == n_plans
        assert order[n_plans:] == sorted(order[n_plans:])
        for pkey in set(pkeys):
            members = [i for i in order if pkeys[i] == pkey]
            assert members == sorted(members)
        assert batch_order(requests) == order  # a pure function of the batch

    def test_pooled_batch_over_a_store(self, cfg, store_dir, monkeypatch):
        requests = wire_matrix(cfg)
        requests += requests[-2:]
        submitted, done = [], []
        with ServeSession(jobs=2, cache_dir=store_dir) as sess:
            submit = sess.submit
            monkeypatch.setattr(
                sess, "submit", lambda r: submitted.append(r) or submit(r)
            )
            served = sess.run_batch(requests, on_done=done.append)
            plans = sess.store.entries(ResultStore.PLANS)
        assert submitted == [requests[i] for i in batch_order(requests)]
        assert [s.request for s in served] == requests
        assert [s.key for s in served] == [request_key(r) for r in requests]
        assert [s.source for s in served[-2:]] == ["deduped", "deduped"]
        assert all(s.source == "computed" for s in served[:-2])
        assert sorted(f.result().key for f in done) == sorted(s.key for s in served)
        assert len(plans) == 4
        for s in served:
            assert execute_request(s.request).exact_equal(s.result)

    @pytest.mark.parametrize("jobs, cached", [(1, True), (2, False)])
    def test_order_kept_without_workers_sharing_a_store(
        self, cfg, tmp_path, monkeypatch, jobs, cached
    ):
        # inline, leaders-first would evict a plan from the LRU memo
        # before its followers run; with no store there is nothing for a
        # leader to publish its plan through
        requests = wire_matrix(cfg)[:6]
        submitted = []
        cache_dir = str(tmp_path / "cache") if cached else None
        with ServeSession(jobs=jobs, cache_dir=cache_dir) as sess:
            submit = sess.submit
            monkeypatch.setattr(
                sess, "submit", lambda r: submitted.append(r) or submit(r)
            )
            served = sess.run_batch(requests)
        assert submitted == requests
        assert [s.request for s in served] == requests


class TestPool:
    def test_worker_uses_the_key_it_is_given(self, cfg, store_dir, monkeypatch):
        def no_rekey(*args, **kwargs):
            raise AssertionError("the worker re-derived the request key")

        monkeypatch.setattr(runner, "request_key", no_rekey)
        for name in ("_worker_store", "_worker_plans", "_worker_cache_dir"):
            monkeypatch.setattr(runner, name, None)
        req = jacobi_request(cfg)
        key = "ab" * 32  # any well-formed key: the worker takes it on trust
        direct = runner.execute_request(req)
        # Over a store the worker publishes the entry and hands back None:
        # the parent reads the result through its own handle.
        result, from_cache, counts = runner._pool_worker(req, store_dir, key)
        assert result is None and not from_cache
        # the result, its plan and its program's numerics: each missed, then put
        assert (counts["misses"], counts["writes"], counts["hits"]) == (3, 3, 0)
        assert ResultStore(store_dir).get(ResultStore.RESULTS, key).exact_equal(direct)
        again, from_cache, counts = runner._pool_worker(req, store_dir, key)
        assert again is None and from_cache
        assert (counts["misses"], counts["writes"], counts["hits"]) == (0, 0, 1)
        assert ResultStore(store_dir).get(ResultStore.RESULTS, key).exact_equal(direct)

    def test_session_stats_total_the_workers_store_counters(self, cfg, store_dir):
        reqs = [
            jacobi_request(cfg, params={"n": 128, "iters": 1}, optimize=optimize)
            for optimize in (False, True)
        ]
        with ServeSession(jobs=2, cache_dir=store_dir) as sess:
            sess.run_batch(reqs)
            store = sess.stats()["store"]
            blobs = sess.store.entries(ResultStore.BLOBS)
        # the parent looked (2 misses) and put the program's numerics once,
        # before its first cell; workers wrote 2 plans + 2 results
        assert sess.store.stats.writes == 1
        assert store["writes"] == 5 and store["corrupt"] == 0
        assert store["blob_reuses"] > 0
        assert 0 < len(blobs) <= store["blob_writes"]

    def test_pool_results_equal_inline(self, cfg):
        reqs = [
            jacobi_request(cfg),
            jacobi_request(cfg, optimize=True),
        ]
        with ServeSession() as inline_sess:
            inline = inline_sess.run_batch(reqs)
        with ServeSession(jobs=2) as pool_sess:
            pooled = pool_sess.run_batch(reqs)
        assert all(p.where == "pool" for p in pooled)
        for i, p in zip(inline, pooled):
            assert i.result.exact_equal(p.result)

    def test_inflight_dedup_on_pool(self, cfg):
        req = jacobi_request(cfg)
        with ServeSession(jobs=2) as sess:
            futures = [sess.submit(req) for _ in range(3)]
            served = [f.result() for f in futures]
            stats = sess.stats()
        assert stats["computed"] == 1 and stats["deduped"] == 2
        sources = sorted(s.source for s in served)
        assert sources == ["computed", "deduped", "deduped"]
        assert served[0].result.exact_equal(served[1].result)
        assert served[0].result.exact_equal(served[2].result)

    def test_inline_program_falls_back_in_process(self, cfg):
        prog = get_app("jacobi").program(n=32, iters=2)
        req = RunRequest(program=prog, config=cfg)
        assert not req.picklable
        with ServeSession(jobs=2) as sess:
            served = sess.run(req)
        assert served.where == "inline"
        direct = run_shmem(prog, cfg)
        assert direct.exact_equal(served.result)

    def test_workers_publish_to_shared_store(self, cfg, store_dir):
        req = jacobi_request(cfg)
        with ServeSession(jobs=2, cache_dir=store_dir) as sess:
            sess.run(req)
        # A fresh serial session reads what the worker wrote.
        with ServeSession(cache_dir=store_dir) as sess2:
            warm = sess2.run(req)
        assert warm.source == "cache"


class TestBatchAndAsync:
    def test_run_batch_preserves_order_and_mixes_backends(self, cfg):
        reqs = [
            jacobi_request(cfg, backend="uniproc"),
            jacobi_request(cfg),
            jacobi_request(cfg, backend="msgpass"),
        ]
        with ServeSession() as sess:
            served = sess.run_batch(reqs)
        assert [s.result.backend for s in served] == [
            "uniproc", "shmem", "msgpass",
        ]
        for req, s in zip(reqs, served):
            assert execute_request(req).exact_equal(s.result)

    def test_pooled_batch_cold_then_warm(self, cfg, store_dir):
        reqs = [jacobi_request(cfg), jacobi_request(cfg, optimize=True)]
        with ServeSession(jobs=2, cache_dir=store_dir) as sess:
            cold = sess.run_batch(reqs)
            warm = sess.run_batch(reqs)
        assert [s.source for s in cold] == ["computed", "computed"]
        assert [s.source for s in warm] == ["cache", "cache"]
        for c, w in zip(cold, warm):
            assert c.result.exact_equal(w.result)

    def test_submit_propagates_compute_errors(self, cfg, monkeypatch):
        # A request the run would refuse cannot be built, so the run
        # itself is made to fail.
        def refuse(*_args, **_kwargs):
            raise ValueError("the run refuses this cell")

        monkeypatch.setattr(runner, "execute_request", refuse)
        with ServeSession() as sess:
            with pytest.raises(ValueError, match="refuses"):
                sess.submit(jacobi_request(cfg)).result()
        # The failed key is not stuck in the in-flight table.
        assert sess._inflight == {}
