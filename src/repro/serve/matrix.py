"""Matrix specs → RunRequest lists (the ``repro sweep`` front end).

A sweep is the cross product of an app list and named *axes*.  Each axis
contributes one dimension; every combination becomes one
:class:`~repro.serve.request.RunRequest` cell:

    expand_matrix(["jacobi", "cg"],
                  axes={"optimize": ["off", "on"],
                        "drop": ["0", "0.05"]})
    # -> 2 apps x 2 x 2 = 8 requests

Axes (CLI spelling ``--axis name=v1,v2,...``):

=============== ======================================================
``optimize``    ``off``/``on`` — compiler-optimized communication
``bulk``        ``off``/``on`` — bulk payload coalescing
``rt_elim``     ``off``/``on`` — run-time overhead elimination
``pre``         ``off``/``on`` — redundant-communication elimination
``protocol``    coherence protocol name (``invalidate``/``update``)
``combine``     ``off``/``on`` — control-message combining
``switch``      ``off``/``on`` — shared-switch contention model
``drop``        frame drop probability (float)
``dup``         frame duplication probability (float)
``jitter_us``   extra latency bound in microseconds (float)
``seed``        fault-model RNG seed (int)
``nodes``       cluster size (int)
``scale``       app parameter scale (``default``/``paper``)
``profile``     ``off``/``on`` — per-phase breakdown + critical path
=============== ======================================================
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.tempest.config import ClusterConfig, CombineConfig, SwitchConfig

from repro.serve.request import RunRequest

__all__ = ["AXES", "expand_matrix", "parse_axis_specs"]

_BOOL = {"on": True, "off": False, "true": True, "false": False, "1": True, "0": False}


def _flag(value) -> bool:
    if not isinstance(value, str):
        return bool(value)
    try:
        return _BOOL[value.strip().lower()]
    except KeyError:
        raise ValueError(f"expected on/off, got {value!r}") from None


#: axis name -> value parser (CLI passes strings; API may pass typed values)
AXES = {
    "optimize": _flag,
    "bulk": _flag,
    "rt_elim": _flag,
    "pre": _flag,
    "protocol": str,
    "combine": _flag,
    "switch": _flag,
    "drop": float,
    "dup": float,
    "jitter_us": float,
    "seed": int,
    "nodes": int,
    "scale": str,
    "profile": _flag,
}


def parse_axis_specs(specs: list[str]) -> dict[str, list]:
    """Parse CLI ``name=v1,v2,...`` strings into typed axis values."""
    axes: dict[str, list] = {}
    for spec in specs:
        name, _, values = spec.partition("=")
        name = name.strip()
        if name not in AXES:
            raise ValueError(
                f"unknown axis {name!r}; choose from {sorted(AXES)}"
            )
        if not values:
            raise ValueError(f"axis {spec!r} needs =v1,v2,...")
        parse = AXES[name]
        try:
            axes[name] = [parse(v.strip()) for v in values.split(",")]
        except ValueError as e:
            raise ValueError(f"axis {spec!r}: {e}") from None
    return axes


def _cell_request(
    app: str,
    scale: str,
    cell: dict,
    base_config: ClusterConfig,
) -> RunRequest:
    config = base_config
    kwargs: dict = {}
    faults = config.faults
    for name, value in cell.items():
        if name in ("optimize", "bulk", "rt_elim", "pre", "protocol"):
            kwargs[name] = value
        elif name == "profile":
            kwargs["profile_phases"] = value
            kwargs["critical_path"] = value
        elif name == "combine":
            config = config.scaled(
                combine=dataclasses.replace(
                    config.combine if value else CombineConfig(), enabled=value
                )
            )
        elif name == "switch":
            config = config.scaled(
                switch=dataclasses.replace(
                    config.switch if value else SwitchConfig(), enabled=value
                )
            )
        elif name == "drop":
            faults = dataclasses.replace(faults, drop_prob=value)
        elif name == "dup":
            faults = dataclasses.replace(faults, dup_prob=value)
        elif name == "jitter_us":
            faults = dataclasses.replace(faults, jitter_ns=int(value * 1000))
        elif name == "seed":
            faults = dataclasses.replace(faults, seed=value)
        elif name == "nodes":
            config = config.scaled(n_nodes=value)
        elif name == "scale":
            scale = value
        else:  # pragma: no cover — parse_axis_specs already validated
            raise ValueError(f"unknown axis {name!r}")
    if faults is not config.faults:
        config = config.scaled(faults=faults)
    return RunRequest(app=app, scale=scale, config=config, **kwargs)


def expand_matrix(
    apps: list[str],
    axes: dict[str, list] | None = None,
    scale: str = "default",
    base_config: ClusterConfig | None = None,
) -> list[RunRequest]:
    """Cross apps with every axis combination; returns one request/cell."""
    axes = axes or {}
    base_config = base_config or ClusterConfig()
    names = sorted(axes)
    requests = []
    for app in apps:
        for combo in itertools.product(*(axes[n] for n in names)):
            cell = dict(zip(names, combo))
            try:
                requests.append(_cell_request(app, scale, cell, base_config))
            except ValueError as e:
                settings = ",".join(f"{n}={v}" for n, v in cell.items())
                raise ValueError(f"cell {settings or '-'}: {e}") from None
    return requests


def cell_label(request: RunRequest) -> str:
    """Stable column describing one cell's axis settings for the table."""
    bits = []
    bits.append("opt" if request.optimize else "unopt")
    if request.config.combine.enabled:
        bits.append("combine")
    if request.config.switch.enabled:
        bits.append("switch")
    f = request.config.faults
    if f.drop_prob:
        bits.append(f"drop={f.drop_prob:g}")
    if f.dup_prob:
        bits.append(f"dup={f.dup_prob:g}")
    if f.jitter_ns:
        bits.append(f"jitter={f.jitter_ns / 1000:g}us")
    if f.seed:
        bits.append(f"seed={f.seed}")
    if request.critical_path or request.profile_phases:
        bits.append("profile")
    bits.append(f"n={request.config.n_nodes}")
    return " ".join(bits)
