"""Matrix specs → RunRequest lists (the ``repro sweep`` front end).

A sweep is the cross product of an app list and named *axes*.  Each axis
contributes one dimension; every combination becomes one
:class:`~repro.serve.request.RunRequest` cell:

    expand_matrix(["jacobi", "cg"],
                  axes={"optimize": ["off", "on"],
                        "drop": ["0", "0.05"]})
    # -> 2 apps x 2 x 2 = 8 requests

The axis vocabulary (CLI spelling ``--axis name=v1,v2,...``) is not
listed here: an axis *is* an ``axis=`` name on a field of ``RunRequest``
or of the config dataclasses under it (see :mod:`repro.spec`), and
:data:`AXES`, the axis setter and :func:`cell_label` are all derived from
those declarations.  ``repro sweep --help`` and docs/serve.md print the
table.
"""

from __future__ import annotations

import dataclasses
import itertools
import textwrap

from repro import spec
from repro.tempest.config import ClusterConfig

from repro.serve.request import RunRequest

__all__ = ["AXES", "axis_help", "cell_label", "expand_matrix", "parse_axis_specs"]

#: axis name -> [(path from the request to the owning dataclass, field)];
#: an axis declared on several fields (``profile``) sets them all
AXES: dict[str, list] = {}
for _path, _field in spec.walk(RunRequest):
    if _field.metadata["axis"]:
        AXES.setdefault(_field.metadata["axis"], []).append((_path, _field))


def axis_help() -> str:
    """One line per axis: name, value type, what it varies."""
    lines = []
    for name, targets in AXES.items():
        f = targets[0][1]
        kind = "off/on" if spec.kind(f) is bool else spec.kind(f).__name__
        lines.append(textwrap.fill(
            f"  {name:<10} {kind:<7} {f.metadata['help']}",
            width=78, subsequent_indent=" " * 21,
        ))
    return "\n".join(lines)


def parse_axis_specs(specs: list[str]) -> dict[str, list]:
    """Parse CLI ``name=v1,v2,...`` strings into typed axis values."""
    axes: dict[str, list] = {}
    for text in specs:
        name, _, values = text.partition("=")
        name = name.strip()
        if name not in AXES:
            raise ValueError(
                f"unknown axis {name!r}; choose from {sorted(AXES)}"
            )
        if not values:
            raise ValueError(f"axis {text!r} needs =v1,v2,...")
        f = AXES[name][0][1]
        try:
            axes[name] = [spec.from_text(f, v.strip()) for v in values.split(",")]
        except ValueError as e:
            raise ValueError(f"axis {text!r}: {e}") from None
    return axes


def _replaced(obj, path: tuple, changes: dict):
    """``obj`` (the dataclass at ``path`` under the request) with its own
    changed fields, and every dataclass below it that has any, replaced —
    one ``replace`` (so one ``__post_init__`` validation) per dataclass."""
    kwargs = dict(changes.get(path, ()))
    depth = len(path)
    for child in {p[depth] for p in changes if len(p) > depth and p[:depth] == path}:
        kwargs[child] = _replaced(getattr(obj, child), path + (child,), changes)
    return dataclasses.replace(obj, **kwargs) if kwargs else obj


def _cell_request(request: RunRequest, cell: dict) -> RunRequest:
    changes: dict[tuple, dict] = {}  # owner path -> {field name: value}
    for axis, value in cell.items():
        for path, f in AXES[axis]:
            changes.setdefault(path, {})[f.name] = spec.to_field(
                f, spec.from_text(f, value)
            )
    return _replaced(request, (), changes)


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
        base = RunRequest(app=app, scale=scale, config=base_config)
        for combo in itertools.product(*(axes[n] for n in names)):
            cell = dict(zip(names, combo))
            try:
                requests.append(_cell_request(base, cell))
            except ValueError as e:
                settings = ",".join(
                    f"{n}={('off', 'on')[v] if isinstance(v, bool) else v}"
                    for n, v in cell.items()
                )
                raise ValueError(f"cell {settings or '-'}: {e}") from None
    return requests


def cell_label(request: RunRequest) -> str:
    """Stable column describing one cell's axis settings for the table:
    every axis that differs from its default (``optimize`` and ``nodes``
    always), so cells of one matrix never share a label."""
    bits = []
    for axis, targets in AXES.items():
        path, f = targets[0]
        owner = request
        for attr in path:
            owner = getattr(owner, attr)
        value = getattr(owner, f.name)
        label = f.metadata["label"]
        if spec.kind(f) is bool:
            on, off = label or ((axis, "") if not f.default else ("", f"no-{axis}"))
            word = on if value else off
        elif value != f.default or f.metadata["always"]:
            shown = spec.to_flag(f, value)
            word = f"{label or axis}={shown:g}" if isinstance(shown, float) \
                else f"{label or axis}={shown}"
        else:
            continue
        if word:
            bits.append(word)
    return " ".join(bits)
