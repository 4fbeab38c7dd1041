"""Request execution: plan memoization, process pool, dedup, caching.

The serving pipeline for one request:

1. result-cache lookup (``ResultStore``) — hit returns the stored
   RunResult, which is exactly what recomputing would produce;
2. in-flight dedup — an identical key already being computed is joined,
   not recomputed;
3. compute — on the process pool when the request is picklable and the
   session has workers, else inline — with the functional pass
   (:class:`~repro.runtime.shmem.ShmemPlan`) served from a small
   in-memory LRU backed by the on-disk plan cache, so a wire-ablation
   matrix builds each (program, geometry, flags) plan once.  A plan is
   structure only; its program's numerics record is stored once under
   :func:`~repro.serve.keys.numerics_key`, so over a store each program
   is evaluated at most once per cache.

Workers re-check the result store before computing (another worker may
have finished the same key between submit and execution) and publish
what they compute, so warm-cache hit rates hold across processes.

Arrays are held once per process: docs/serve.md ("Numerics keys",
"Read-only arrays are lent" and "The session") has the rules.
"""

from __future__ import annotations

import threading
import weakref
from collections import Counter, OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, replace

from repro.hpf.ast import Program
from repro.runtime.msgpass import run_msgpass
from repro.runtime.phases import Numerics, attach_numerics, numerics
from repro.runtime.results import RunResult
from repro.runtime.shmem import build_shmem_plan, execute_shmem_plan
from repro.runtime.uniproc import run_uniproc
from repro.serve.keys import numerics_key, plan_key, request_key
from repro.serve.request import RunRequest
from repro.serve.store import ResultStore, StoreStats

__all__ = [
    "PlanCache", "ServeResult", "ServeSession", "batch_order", "execute_request",
]


@dataclass
class ServeResult:
    """One served cell: the RunResult plus its provenance.

    Provenance lives *here*, never inside ``RunResult.extra`` — a cached
    result must stay dataclass-equal to a fresh in-process run.
    """

    key: str
    request: RunRequest
    result: RunResult
    source: str  # 'computed' | 'cache' | 'deduped'
    where: str   # 'pool' | 'inline'


class PlanCache:
    """Two-level ShmemPlan cache: small in-memory LRU over the disk store.

    A memoized plan holds its program's numerics record, so the memory
    tier stays tiny (default 4 entries); the disk tier shares the result
    store's crash-safety.  A stored plan is structure only, and every
    plan read from disk has its program's stored record attached (see
    docs/serve.md, "Numerics keys").
    """

    def __init__(self, store: ResultStore | None, capacity: int = 4) -> None:
        self.store = store
        self.capacity = capacity
        self._memo: OrderedDict[str, object] = OrderedDict()
        #: numerics key -> a record this cache handed out that still lives
        self._records: weakref.WeakValueDictionary[str, Numerics] = (
            weakref.WeakValueDictionary()
        )
        self.memo_hits = 0
        self.disk_hits = 0
        self.built = 0

    def get_or_build(self, request: RunRequest, programs: dict | None = None):
        """The request's plan; a build takes its program from ``programs``
        (see :func:`request_program`)."""
        pkey = plan_key(request)
        plan = self._memo.get(pkey)
        if plan is not None:
            self._memo.move_to_end(pkey)
            self.memo_hits += 1
            return plan
        if self.store is not None:
            plan = self.store.get(ResultStore.PLANS, pkey)
            if plan is not None:
                self.disk_hits += 1
                plan.numerics = self._record(request, programs)
                self._remember(pkey, plan)
                return plan
        plan = build_shmem_plan(
            self.program(request, programs), request.config,
            **request.build_options(),
        )
        self.built += 1
        if self.store is not None:
            self.store.put(ResultStore.PLANS, pkey, plan)
        self._remember(pkey, plan)
        return plan

    def program(self, request: RunRequest, programs: dict | None = None) -> Program:
        """The program ``request`` names (see :func:`request_program`).
        Over a store it holds its numerics record (see :meth:`_record`),
        so running or building from it evaluates nothing the cache has."""
        program = request_program(request, programs)
        if self.store is not None:
            attach_numerics(program, self._record(request, programs, program))
        return program

    def _record(
        self, request: RunRequest, programs: dict | None, program: Program | None = None
    ) -> Numerics:
        """The numerics record of the request's program: one this cache
        handed out that still lives, else the store's, else evaluated and
        stored.  A missing or quarantined entry is a miss.  Only the last
        builds a program, unless one is given."""
        nkey = numerics_key(request)
        record = self._records.get(nkey)
        if record is None:
            record = self.store.get(ResultStore.NUMERICS, nkey)
        if record is None:
            if program is None:
                program = request_program(request, programs)
            record = numerics(program)
            self.store.put(ResultStore.NUMERICS, nkey, record)
        self._records[nkey] = record
        return record

    def _remember(self, pkey: str, plan) -> None:
        self._memo[pkey] = plan
        self._memo.move_to_end(pkey)
        while len(self._memo) > self.capacity:
            self._memo.popitem(last=False)

    def stats(self) -> dict:
        return {
            "plan_memo_hits": self.memo_hits,
            "plan_disk_hits": self.disk_hits,
            "plans_built": self.built,
        }


def request_program(request: RunRequest, programs: dict | None = None) -> Program:
    """The program ``request`` names.  ``programs`` (registry spec ->
    ``Program``) shares one built program between the requests that
    name it, and so one numerics record; ``None`` builds afresh."""
    if programs is None or request.program is not None:
        return request.build_program()
    spec = request.registry_spec()
    if spec not in programs:
        programs[spec] = request.build_program()
    return programs[spec]


def execute_request(
    request: RunRequest,
    plan_cache: PlanCache | None = None,
    programs: dict | None = None,
    obs=None,
) -> RunResult:
    """Compute one request in this process (no result-cache involvement);
    a program it needs comes from ``programs`` (see :func:`request_program`).
    ``obs`` attaches a bus to a shmem run, as ``run_shmem``'s does (unkeyed)."""
    if plan_cache is None:
        plan_cache = PlanCache(store=None)
    if request.backend != "shmem":
        if obs is not None:
            raise ValueError(f"obs instruments the shmem backend, not {request.backend!r}")
        run = run_uniproc if request.backend == "uniproc" else run_msgpass
        return run(plan_cache.program(request, programs), request.config)
    plan = plan_cache.get_or_build(request, programs)
    return execute_shmem_plan(plan, request.config, obs=obs, **request.execute_options())


# --------------------------------------------------------------------- #
# pool worker (module-level: must pickle by reference under fork/spawn)
# --------------------------------------------------------------------- #
_worker_store: ResultStore | None = None
_worker_plans: PlanCache | None = None
_worker_cache_dir: str | None = None


def _pool_worker(
    request: RunRequest, cache_dir: str | None, key: str, hand_back: bool = False
):
    """Serve one request inside a worker process.

    Returns ``(result, from_cache, store_counts)``.  ``key`` is the
    request key the parent already computed.  The worker re-checks the
    result store (a sibling may have published the key since the parent's
    check) and publishes what it computes; its plan cache persists for
    the process's lifetime, so same-geometry cells arriving at the same
    worker skip the functional pass.  ``store_counts`` is what this call
    added to the worker's :class:`StoreStats`, for the session to total.
    Over a store, ``result`` is ``None`` unless ``hand_back``: the entry
    is published, and the parent reads it through its own handle.
    """
    global _worker_store, _worker_plans, _worker_cache_dir
    if cache_dir != _worker_cache_dir or _worker_plans is None:
        _worker_store = ResultStore(cache_dir) if cache_dir else None
        _worker_plans = PlanCache(_worker_store)
        _worker_cache_dir = cache_dir
    store = _worker_store
    if store is None:
        return execute_request(request, _worker_plans), False, {}
    store.stats = StoreStats()
    result = store.get(ResultStore.RESULTS, key)
    from_cache = result is not None
    if not from_cache:
        result = execute_request(request, _worker_plans)
        store.put(ResultStore.RESULTS, key, result)
    return result if hand_back else None, from_cache, store.stats.as_dict()


def batch_order(requests) -> list[int]:
    """Submission order for a pooled batch, as indices into ``requests``.

    The first request of each distinct :func:`plan_key` (its *leader*)
    goes first, then everything else, both in their original relative
    order.  With at least as many distinct plans as workers, every worker
    starts on a plan of its own and publishes it before a follower asks
    for it; with fewer plans than workers the spare workers start on
    followers and build their plan alongside its leader, as before.
    """
    seen: set[str] = set()
    leaders, followers = [], []
    for i, request in enumerate(requests):
        pkey = plan_key(request)
        (followers if pkey in seen else leaders).append(i)
        seen.add(pkey)
    return leaders + followers


# --------------------------------------------------------------------- #
# session
# --------------------------------------------------------------------- #
class ServeSession:
    """Front end: submit/run/run_batch with caching, dedup, pool.

    ``jobs=1`` (default) computes inline; ``jobs>1`` fans picklable
    requests across a process pool.  ``cache_dir=None`` (default) keeps
    everything in-process — no disk is touched; pass a directory to get
    the persistent result + plan cache.  Degraded runs
    (``completed=False``) are cached like any other: they are
    deterministic outcomes of their (program, config, seed) key.
    """

    def __init__(self, jobs: int = 1, cache_dir: str | None = None) -> None:
        self.jobs = max(1, int(jobs))
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.store = ResultStore(self.cache_dir) if self.cache_dir else None
        self.plans = PlanCache(self.store)
        self._pool: ProcessPoolExecutor | None = None
        self._inflight: dict[str, Future] = {}
        #: the ``programs`` of :func:`request_program` while
        #: :meth:`run_batch` submits: its inline cells share their numerics
        self._batch_programs: dict | None = None
        #: store counters the pool workers report back, call by call;
        #: folded from executor callback threads, hence the lock
        self._pool_store_counts: Counter = Counter()
        self._pool_store_lock = threading.Lock()
        self.counters = {
            "requests": 0,
            "cache_hits": 0,
            "computed": 0,
            "deduped": 0,
            "pool": 0,
            "inline": 0,
        }

    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def submit(self, request: RunRequest) -> Future:
        """Serve one request; returns a Future of :class:`ServeResult`.

        Cache hits resolve immediately; identical in-flight keys are
        joined (the duplicate's ServeResult says ``source='deduped'``).
        """
        self.counters["requests"] += 1
        key = request_key(request)

        if self.store is not None:
            cached = self.store.get(ResultStore.RESULTS, key)
            if cached is not None:
                self.counters["cache_hits"] += 1
                fut: Future = Future()
                fut.set_result(
                    ServeResult(key, request, cached, "cache", "inline")
                )
                return fut

        base = self._inflight.get(key)
        if base is not None:
            self.counters["deduped"] += 1
            dup: Future = Future()

            def _copy(done: Future, dup=dup, request=request) -> None:
                exc = done.exception()
                if exc is not None:
                    dup.set_exception(exc)
                else:
                    dup.set_result(
                        replace(done.result(), request=request, source="deduped")
                    )

            base.add_done_callback(_copy)
            return dup

        self.counters["computed"] += 1
        if self.jobs > 1 and request.picklable:
            self.counters["pool"] += 1
            raw = self._ensure_pool().submit(
                _pool_worker, request, self.cache_dir, key
            )
            fut = Future()

            def _wrap(
                done: Future, fut=fut, key=key, request=request, from_cache=None
            ) -> None:
                exc = done.exception()
                if exc is not None:
                    self._inflight.pop(key, None)
                    fut.set_exception(exc)
                    return
                result, cached, store_counts = done.result()
                with self._pool_store_lock:
                    self._pool_store_counts.update(store_counts)
                if from_cache is None:
                    from_cache = cached
                if result is None:
                    # the worker published the entry: take it back lent
                    result = self.store.get(ResultStore.RESULTS, key)
                if result is None:
                    # damaged between publish and read: once more, by pipe
                    try:
                        again = self._pool.submit(
                            _pool_worker, request, self.cache_dir, key, True
                        )
                    except RuntimeError as exc:  # the session closed meanwhile
                        self._inflight.pop(key, None)
                        fut.set_exception(exc)
                        return
                    again.add_done_callback(
                        lambda done: _wrap(done, from_cache=from_cache)
                    )
                    return
                self._inflight.pop(key, None)
                fut.set_result(
                    ServeResult(
                        key,
                        request,
                        result,
                        "cache" if from_cache else "computed",
                        "pool",
                    )
                )

            self._inflight[key] = fut
            raw.add_done_callback(_wrap)
            return fut

        # Inline: compute synchronously (also the fallback for inline
        # Programs, whose initializer closures don't survive pickling).
        self.counters["inline"] += 1
        fut = Future()
        self._inflight[key] = fut
        try:
            result = execute_request(request, self.plans, self._batch_programs)
            if self.store is not None:
                self.store.put(ResultStore.RESULTS, key, result)
        except BaseException as exc:
            self._inflight.pop(key, None)
            fut.set_exception(exc)
            return fut
        self._inflight.pop(key, None)
        fut.set_result(ServeResult(key, request, result, "computed", "inline"))
        return fut

    # ------------------------------------------------------------------ #
    def run(self, request: RunRequest) -> ServeResult:
        return self.submit(request).result()

    def run_batch(self, requests, on_done=None) -> list[ServeResult]:
        """Serve many requests; results come back in request order.

        ``on_done(future)`` is called as each request's future resolves
        (possibly from a pool callback thread).  When workers share a
        plan store the batch is submitted in :func:`batch_order`, so two
        workers do not build the same plan side by side; otherwise
        (inline, or nothing to share plans through) in the order given.
        The cells computed inline build each registry program once, so
        the batch evaluates it once.
        """
        requests = list(requests)
        if self.jobs > 1 and self.store is not None:
            order = batch_order(requests)
        else:
            order = range(len(requests))
        futures: list[Future | None] = [None] * len(requests)
        self._batch_programs = {}
        try:
            for i in order:
                futures[i] = self.submit(requests[i])
                if on_done is not None:
                    futures[i].add_done_callback(on_done)
        finally:
            self._batch_programs = None
        return [f.result() for f in futures]

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        out = dict(self.counters)
        out.update(self.plans.stats())
        if self.store is not None:
            # this process's handle plus what the pool workers reported
            out["store"] = {
                name: count + self._pool_store_counts[name]
                for name, count in self.store.stats.as_dict().items()
            }
        served = self.counters["requests"]
        out["hit_rate"] = (
            self.counters["cache_hits"] / served if served else 0.0
        )
        return out

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ServeSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
