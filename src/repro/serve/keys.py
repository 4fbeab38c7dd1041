"""Deterministic content-addressed cache keys for simulation requests.

The key contract (see docs/serve.md for the full rules):

* A key is the SHA-256 of a *canonical* JSON encoding of everything that
  can influence a run's result: the canonicalized program (structure AND
  initial array contents), the full :class:`ClusterConfig` (including the
  fault seed, per-link overlays, partition windows and crash scenarios),
  the run options (backend, optimize/bulk/rt_elim/pre/advisory, protocol,
  home policy, per-barrier auditing, profiling), and a *code-version salt*.
* Canonicalization is semantic, not syntactic: dict/field ordering,
  default-vs-explicit config values, and overlay tuple ordering all
  collapse to one encoding — requests that mean the same run share a key.
* Anything that does NOT influence the result — the app registry name,
  host, worker count, cache settings — is excluded, so two spellings of
  the same program (app name vs inline AST) also share a key.
* Bumping :data:`CODE_VERSION` invalidates every existing entry at once;
  do that whenever a change makes old cached results stale (cost model,
  protocol, planner, stats layout).

Nothing here uses Python's randomized ``hash()``; keys are stable across
processes, machines and interpreter restarts.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

import numpy as np

from repro.core.symbolic import Lin, Sym
from repro.hpf.ast import Program
from repro.runtime.shmem import trace_geometry
from repro.tempest.config import ClusterConfig

__all__ = [
    "CODE_VERSION",
    "canonical",
    "config_canonical",
    "fingerprint",
    "numerics_key",
    "plan_key",
    "program_fingerprint",
    "request_key",
]

#: The code-version salt.  Bump the integer whenever simulation results
#: change for identical inputs (cost-model retune, protocol fix, stats
#: schema change): every cached entry is invalidated in one stroke, no
#: cache deletion required.
#: /3: RunResult gains critical_path.  /4: RunResult derives ``completed``
#: from its stats, and ``extra`` and ShmemPlan stop echoing config and options.
#: /5: a stored ShmemPlan is structure only; numerics have their own key.
CODE_VERSION = "repro-serve/5"


# --------------------------------------------------------------------- #
# canonical encoding
# --------------------------------------------------------------------- #
def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-encodable canonical form.

    Dataclasses become ``[class-name, {field: value}]`` with fields
    iterated in sorted order (so declaration order and construction order
    never matter); dicts sort by key; sets/frozensets sort their canonical
    elements; ndarrays hash their bytes.  Unknown object types raise
    ``TypeError`` — silently guessing would risk two different requests
    sharing a key, the one failure mode a content-addressed store must
    never have.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips floats exactly; json.dumps does too, but pin it.
        return ["f", repr(obj)]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__name__, obj.name]
    if isinstance(obj, np.generic):
        return canonical(obj.item())
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return [
            "ndarray",
            str(arr.dtype),
            list(arr.shape),
            hashlib.sha256(arr.tobytes()).hexdigest(),
        ]
    if isinstance(obj, dict):
        items = [(str(k), canonical(v)) for k, v in obj.items()]
        items.sort(key=lambda kv: kv[0])
        return ["dict", items]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonical(v) for v in obj]]
    if isinstance(obj, (set, frozenset)):
        elems = [canonical(v) for v in obj]
        elems.sort(key=lambda e: json.dumps(e, sort_keys=True))
        return ["set", elems]
    if isinstance(obj, Lin):
        return ["lin", obj.const, sorted(obj.terms.items())]
    if isinstance(obj, Sym):
        return ["sym", obj.name]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = sorted(f.name for f in dataclasses.fields(obj))
        return [
            type(obj).__name__,
            {name: canonical(getattr(obj, name)) for name in fields},
        ]
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for cache keying; "
        f"teach repro.serve.keys.canonical about it explicitly"
    )


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical encoding."""
    blob = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------- #
# configs
# --------------------------------------------------------------------- #
def config_canonical(config: ClusterConfig) -> Any:
    """Canonical form of a full cluster config.

    Overlay tuples whose order is semantically irrelevant — per-link
    profiles (keyed by ``(src, dst)``), partition windows (named) and
    crash scenarios (one per node) — are sorted before encoding, so two
    configs listing them in different orders share a key.  Two configs
    that *differ* in any effective field (a different drop probability on
    one link, a partition window one microsecond longer, a never-healing
    vs healing cut) canonicalize differently and therefore never collide.
    """
    faults = config.faults
    faults = dataclasses.replace(
        faults,
        link_faults=tuple(sorted(faults.link_faults, key=lambda lf: lf.key)),
        partitions=tuple(sorted(faults.partitions, key=lambda s: s.name)),
        crashes=tuple(sorted(faults.crashes, key=lambda c: c.node)),
    )
    return canonical(dataclasses.replace(config, faults=faults))


# --------------------------------------------------------------------- #
# programs
# --------------------------------------------------------------------- #
def program_fingerprint(program: Program) -> str:
    """Content-address a program: structure plus initial data.

    The AST canonicalizes recursively (declarations sorted by name, the
    statement list in order).  Initializers are callables, so their
    *identity* is meaningless across processes; what matters is the data
    they produce — each one is evaluated against a zeroed array of the
    declared shape and the resulting bytes are hashed.  Two programs that
    compute the same phases over the same initial data share a
    fingerprint no matter how they were spelled.
    """
    init_hashes = {}
    for name, fn in program.initializers.items():
        decl = program.arrays[name]
        arr = np.zeros(decl.shape, order="F")
        arr[...] = np.asarray(fn(decl.shape), dtype=np.float64)
        init_hashes[name] = hashlib.sha256(
            np.ascontiguousarray(arr).tobytes()
        ).hexdigest()
    payload = {
        "name": program.name,
        "arrays": {n: canonical(d) for n, d in sorted(program.arrays.items())},
        "body": canonical(program.body),
        "scalars": {n: canonical(v) for n, v in sorted(program.scalars.items())},
        "initializers": init_hashes,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------- #
# request / plan keys
# --------------------------------------------------------------------- #
def request_key(request, salt: str = CODE_VERSION) -> str:
    """The content-addressed key of one run request.

    Covers everything that pins the result: program content, the full
    config (fault seed included), backend and run options, and the salt.
    """
    payload = {
        "schema": "request/1",
        "salt": salt,
        "backend": request.backend,
        "program": request.resolved_fingerprint(),
        "config": config_canonical(request.config),
        "options": canonical(request.run_options()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def plan_key(request) -> str:
    """The key of the memoized compiler analysis for a request.

    Deliberately coarser than :func:`request_key`: only the config fields
    a plan depends on (:func:`repro.runtime.shmem.trace_geometry`) are
    hashed, so every cell of a wire-ablation matrix maps to the same plan
    entry and the functional pass runs once per (program, geometry,
    optimizer flags).
    """
    payload = {
        "schema": "plan/1",
        "salt": CODE_VERSION,
        "program": request.resolved_fingerprint(),
        "geometry": canonical(trace_geometry(request.config)),
        "options": canonical(request.build_options()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def numerics_key(request) -> str:
    """The key of a program's numerics record (``runtime.phases.Numerics``).

    Coarser still than :func:`plan_key`: the record depends on the
    program alone, so every backend, geometry and option of one program
    shares it, and a cache evaluates each program once.
    """
    payload = {
        "schema": "numerics",
        "salt": CODE_VERSION,
        "program": request.resolved_fingerprint(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
