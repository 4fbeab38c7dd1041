"""A stored plan is structure; each program's numerics have their own key.

A pooled sweep over one program leaves one ``numerics/`` entry and plan
entries that name no blob.  Every plan read from disk, and every uniproc
or msgpass cell, takes the stored record (its arrays lent), so a cache
evaluates each program at most once, and two programs never share one.
"""

import numpy as np
import pytest

from repro.runtime import phases
from repro.serve import ResultStore, RunRequest, ServeSession, execute_request
from repro.serve.keys import numerics_key
from repro.serve.runner import PlanCache
from repro.tempest.config import SwitchConfig, small_config

#: 128 KiB per array, so the record's arrays leave its entry for blobs/
PARAMS = {"n": 128, "iters": 1}


def request(**overrides) -> RunRequest:
    kwargs = dict(app="jacobi", params=PARAMS, config=small_config())
    kwargs.update(overrides)
    return RunRequest(**kwargs)


def sweep() -> list[RunRequest]:
    """jacobi's {opt off/on} x {switch off/on}: two plans, one program."""
    return [
        request(optimize=optimize, config=small_config(switch=SwitchConfig(enabled=switch)))
        for optimize in (False, True)
        for switch in (False, True)
    ]


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """A store filled by a pooled sweep, and the sweep's served cells."""
    cache = str(tmp_path_factory.mktemp("numerics") / "cache")
    with ServeSession(jobs=2, cache_dir=cache) as session:
        served = session.run_batch(sweep())
    return cache, served


def blob_table(path) -> list:
    verified = ResultStore._verify(path.read_bytes())
    assert verified is not None, path
    return verified[0]


class TestLayout:
    def test_one_record_and_plans_that_name_no_blob(self, swept):
        cache, served = swept
        store = ResultStore(cache)
        [entry] = store.entries(ResultStore.NUMERICS)
        assert entry.stem == numerics_key(sweep()[0])
        assert len(blob_table(entry)) == 2  # jacobi's two arrays
        plans = store.entries(ResultStore.PLANS)
        assert len(plans) == 2
        for plan in plans:
            assert blob_table(plan) == []
        for cell in served:
            assert cell.result.exact_equal(execute_request(cell.request))

    def test_a_plan_read_from_disk_views_the_lent_record(self, swept):
        cache, served = swept
        store = ResultStore(cache)
        plans = PlanCache(store)
        req = sweep()[1]
        plan = plans.get_or_build(req)
        assert (plans.disk_hits, plans.built) == (1, 0)
        record = store.get(ResultStore.NUMERICS, numerics_key(req))
        # the sweep's served results still borrow the record's arrays, so
        # both the plan's record and this read are lent them
        assert store.stats.blob_lends == 2 * len(record.arrays) > 0
        result = execute_request(req, plans)
        assert result.exact_equal(served[1].result)
        for name, arr in plan.numerics.arrays.items():
            assert not arr.flags.writeable
            assert np.shares_memory(arr, record.arrays[name])
            assert np.shares_memory(result.arrays[name], arr)


class TestEvaluatedOncePerCache:
    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        real = phases.eval_parallel_assign

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(phases, "eval_parallel_assign", counting)
        return calls

    def test_a_fresh_session_takes_every_backend_s_record_from_the_store(
        self, swept, evaluations
    ):
        cache, _ = swept
        new_cells = [
            request(backend="uniproc"),
            request(backend="msgpass"),
            request(optimize=True, rt_elim=True),  # a plan the sweep never built
        ]
        with ServeSession(cache_dir=cache) as session:
            served = session.run_batch(new_cells)
            stats = session.stats()
        assert evaluations == []
        assert stats["computed"] == 3 and stats["plans_built"] == 1
        assert [s.source for s in served] == ["computed"] * 3
        assert len(ResultStore(cache).entries(ResultStore.NUMERICS)) == 1
        del evaluations[:]
        for cell in served:
            assert cell.result.exact_equal(execute_request(cell.request))

    def test_a_missing_record_is_evaluated_once_and_put_again(
        self, tmp_path, evaluations
    ):
        cache = str(tmp_path / "cache")
        cells = [request(backend="uniproc"), request(), request(backend="msgpass")]
        with ServeSession(cache_dir=cache) as session:
            session.run(cells[0])
        once = len(evaluations)
        assert once > 0
        store = ResultStore(cache)
        [entry] = store.entries(ResultStore.NUMERICS)
        entry.write_bytes(b"\x00" * 10)  # a torn record: quarantined, a miss
        with ServeSession(cache_dir=cache) as session:
            session.run_batch(cells[1:])
            assert session.store.stats.corrupt == 1
        assert len(evaluations) == 2 * once
        assert [p.stem for p in store.entries(ResultStore.NUMERICS)] == [entry.stem]
        with ServeSession(cache_dir=cache) as session:
            session.run(request(optimize=True))
        assert len(evaluations) == 2 * once


def test_two_programs_keep_two_records(tmp_path):
    """Sizes differ, so a record served to the wrong program would show."""
    cells = [
        request(backend="uniproc"),
        request(backend="uniproc", params={"n": 96, "iters": 1}),
        request(params={"n": 96, "iters": 1}),
    ]
    cache = str(tmp_path / "cache")
    with ServeSession(cache_dir=cache) as session:
        session.run(cells[0])
    with ServeSession(cache_dir=cache) as session:
        served = session.run_batch(cells[1:])
    assert len(ResultStore(cache).entries(ResultStore.NUMERICS)) == 2
    for cell in served:
        assert cell.result.exact_equal(execute_request(cell.request))


def test_an_inline_batch_over_a_store_holds_each_array_once(tmp_path):
    """The record a cell evaluated is the one the next cells take, not a
    second copy read back from the store."""
    cells = [request(backend="uniproc"), request(), request(backend="msgpass")]
    with ServeSession(cache_dir=str(tmp_path / "cache")) as session:
        served = session.run_batch(cells)
    first = served[0].result.arrays
    for cell in served[1:]:
        for name, arr in cell.result.arrays.items():
            assert np.shares_memory(arr, first[name]), (cell.request.backend, name)
