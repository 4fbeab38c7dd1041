"""``repro.serve`` — content-addressed sweep orchestration.

The paper's evaluation is a matrix of (program, protocol, optimization
flags, scale) cells; production use multiplies that matrix by fault
profiles, seeds and topologies.  This package treats every cell as a
*request* with a deterministic content-addressed key and serves it the
cheapest way available:

1. from the on-disk result cache (a finished :class:`RunResult` for the
   same key — byte-identical to recomputing, because runs are
   deterministic),
2. by joining an identical request already in flight (dedup),
3. by computing it — in-process, or fanned across a process pool — with
   the compiler analysis (:class:`repro.runtime.shmem.ShmemPlan`)
   memoized in memory and on disk so wire-config ablations rebuild it
   once instead of per cell, and each program's numerics stored once
   under a key of their own so a cache evaluates each program once.

Public surface:

``RunRequest``       one cell: program spec + config + run options
``ServeSession``     submit/run_batch/gather front end with caching + pool
``ResultStore``      the crash-safe content-addressed on-disk store
``request_key``      the cache-key function (see docs/serve.md)
``assert_results_equal``  exact RunResult equality (ndarray-aware)

See ``docs/serve.md`` for the cache-key contract and invalidation rules.
"""

from repro.serve.compare import assert_results_equal
from repro.serve.keys import (
    CODE_VERSION,
    canonical,
    fingerprint,
    numerics_key,
    plan_key,
    program_fingerprint,
    request_key,
)
from repro.serve.request import RunRequest
from repro.serve.runner import ServeResult, ServeSession, execute_request
from repro.serve.store import ResultStore

__all__ = [
    "CODE_VERSION",
    "ResultStore",
    "RunRequest",
    "ServeResult",
    "ServeSession",
    "assert_results_equal",
    "canonical",
    "execute_request",
    "fingerprint",
    "numerics_key",
    "plan_key",
    "program_fingerprint",
    "request_key",
]
