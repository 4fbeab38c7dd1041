"""Source path -> layer table, and cProfile self-time bucketing by layer.

The traced run profiles the timed body with ``cProfile`` and charges every
function's *self* time to the layer that owns its source file.  Built-in,
NumPy and stdlib self time has no ``repro`` file of its own, so it is
charged to the ``repro`` function that called it, along the profiler's
caller edges (exact per direct caller; spread over indirect callers in
proportion to edge time).  Nothing is dropped, so the layer times sum to
the profile's total.

Layers are keyed on source *paths*, never on function names, so a refactor
that renames or moves functions inside a file leaves the ledger intact, and
one that moves a file needs a one-line edit here.  A table entry that
matches no file on disk is reported, not fatal.
"""

from __future__ import annotations

import os

#: (layer, paths relative to ``src/repro/``); a path ending in ``/`` is a
#: directory prefix.  First match wins, so the per-package fallbacks
#: (``runtime/``, ``tempest/``) come after the files they do not own.
LAYER_PATHS: list[tuple[str, tuple[str, ...]]] = [
    ("apps", ("apps/",)),
    ("hpf.front", ("hpf/ast.py", "hpf/dsl.py", "hpf/parser.py",
                   "hpf/lowering.py", "hpf/procedures.py")),
    ("hpf.eval", ("hpf/eval.py",)),
    ("core.analysis", ("core/access.py", "core/sections.py", "core/symbolic.py")),
    ("core.blocks", ("core/blocks.py",)),
    ("core.planner", ("core/planner.py", "core/calls.py", "core/contract.py",
                      "core/pre.py", "core/pre_static.py")),
    ("runtime.build", ("runtime/shmem.py", "runtime/phases.py")),
    ("runtime.replay", ("runtime/traces.py",)),
    ("runtime.other", ("runtime/",)),
    ("sim.engine", ("sim/engine.py",)),
    ("sim.resource", ("sim/resource.py", "sim/process.py")),
    ("tempest.protocol", ("tempest/protocol.py", "tempest/protocol_update.py",
                          "tempest/directory.py", "tempest/access.py",
                          "tempest/extensions.py")),
    ("tempest.network", ("tempest/network.py", "tempest/node.py")),
    ("tempest.transport", ("tempest/transport.py",)),
    ("tempest.sync", ("tempest/barrier.py", "tempest/collectives.py")),
    ("tempest.recovery", ("tempest/recovery.py",)),
    ("tempest.other", ("tempest/",)),
    ("obs.bus", ("obs/bus.py",)),
    ("obs.analysis", ("obs/metrics.py", "obs/profile.py", "obs/critical.py")),
    ("obs.export", ("obs/chrome.py", "obs/schema.py")),
    ("serve.keys", ("serve/keys.py",)),
    ("serve.store", ("serve/store.py",)),
    ("serve.runner", ("serve/runner.py", "serve/request.py")),
]

#: everything else: the harness's own frames, ``repro`` files outside the
#: table, and foreign time no ``repro`` caller can be found for
OTHER = "other"

LAYERS: list[str] = [layer for layer, _ in LAYER_PATHS] + [OTHER]


def layers_unmatched(repro_root: str) -> list[str]:
    """Layers none of whose table paths exists under ``repro_root``."""
    return [
        layer
        for layer, paths in LAYER_PATHS
        if not any(os.path.exists(os.path.join(repro_root, p)) for p in paths)
    ]


def _layer_of_path(rel: str) -> str:
    for layer, paths in LAYER_PATHS:
        for p in paths:
            if rel == p or (p.endswith("/") and rel.startswith(p)):
                return layer
    return OTHER


class LayerMap:
    """Maps a profiled code object to its owning layer (``None`` = foreign)."""

    def __init__(self, repro_root: str, harness_root: str) -> None:
        self._repro = os.path.join(os.path.realpath(repro_root), "")
        self._harness = os.path.join(os.path.realpath(harness_root), "")
        self._memo: dict[str, str | None] = {}

    def owner(self, code) -> str | None:
        if isinstance(code, str):  # a built-in: "<built-in method ...>"
            return None
        filename = code.co_filename
        if filename in self._memo:
            return self._memo[filename]
        real = os.path.realpath(filename)
        if real.startswith(self._repro):
            rel = real[len(self._repro):].replace(os.sep, "/")
            layer = _layer_of_path(rel)
        elif real.startswith(self._harness):
            layer = OTHER
        else:
            layer = None
        self._memo[filename] = layer
        return layer


def bucket_profile(entries, layer_map: LayerMap) -> dict[str, dict]:
    """Reduce ``cProfile.Profile.getstats()`` to ``{layer: {self_s, calls}}``.

    ``calls`` counts invocations of functions defined in the layer's own
    files; module-level frames (executed once, at import) are excluded so a
    layer that was merely imported reads zero.
    """
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    owner = {id(e.code): layer_map.owner(e.code) for e in entries}

    # caller edges of foreign callees: callee -> [(caller, edge self, edge total)]
    callers: dict[int, list[tuple[int, float, float]]] = {}
    for e in entries:
        for sub in e.calls or ():
            if owner[id(sub.code)] is None:
                callers.setdefault(id(sub.code), []).append(
                    (id(e.code), sub.inlinetime, sub.totaltime)
                )

    inherited: dict[int, float] = {}

    def charge(caller_id: int, amount: float) -> None:
        layer = owner[caller_id]
        if layer is not None:
            out[layer]["self_s"] += amount
        else:
            inherited[caller_id] = inherited.get(caller_id, 0.0) + amount

    for e in entries:
        layer = owner[id(e.code)]
        if layer is not None:
            out[layer]["self_s"] += e.inlinetime
            if e.code.co_name != "<module>":
                out[layer]["calls"] += e.callcount
            continue
        edges = callers.get(id(e.code), ())
        for caller_id, edge_self, _ in edges:
            charge(caller_id, edge_self)
        # self time of a foreign root (entered with no profiled caller)
        out[OTHER]["self_s"] += e.inlinetime - sum(s for _, s, _ in edges)

    # Foreign code called by foreign code: pass the time up the caller
    # edges until a repro frame takes it.  Foreign call chains are shallow;
    # the cap only stops foreign recursion from looping.
    for _ in range(64):
        if not inherited:
            break
        pending, inherited = inherited, {}
        for callee_id, amount in pending.items():
            edges = callers.get(callee_id, ())
            weight = sum(t for _, _, t in edges)
            if weight <= 0.0:
                out[OTHER]["self_s"] += amount
                continue
            for caller_id, _, edge_total in edges:
                charge(caller_id, amount * edge_total / weight)
    out[OTHER]["self_s"] += sum(inherited.values())
    return out
