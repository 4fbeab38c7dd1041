"""One description of the config space.

A user-settable field of a config dataclass is declared once, with
:func:`opt`: its default plus, in ``dataclasses.field(metadata=...)``, the
CLI flag that sets it, the sweep axis that varies it, the unit scale
between the two spellings (flags and axes speak microseconds, fields
nanoseconds), its bounds and its help text.  Everything that used to
re-spell the field reads that declaration instead: ``repro``'s argparse
flags (:func:`add_flags` / :func:`from_args`), ``repro sweep``'s axes and
cell labels (``repro.serve.matrix``, via :func:`walk`) and the
``__post_init__`` range checks (:func:`check_bounds`).
"""

from __future__ import annotations

import argparse
import dataclasses
import typing

__all__ = [
    "OptionError", "add_flags", "check_bounds", "from_args", "from_text",
    "kind", "opt", "to_field", "to_flag", "walk",
]

_KINDS = {"bool": bool, "int": int, "float": float, "str": str}
_ON_OFF = {"on": True, "off": False, "true": True, "false": False, "1": True, "0": False}


def opt(default=dataclasses.MISSING, flag=None, help=None, *, axis=None,
        label=None, always=False, unit=1, metavar=None, choices=None,
        ge=None, gt=None, lt=None):
    """A dataclass field that carries its own flag / axis / bounds spec.

    ``flag`` spelled ``--[no-]name`` is an on/off pair; a plain flag on a
    bool field is ``store_true``.  ``unit`` multiplies a flag or axis value
    into the field (``unit=1000``: microseconds in, nanoseconds stored).
    ``label`` names the axis in a cell label (an ``(on, off)`` word pair
    for a bool axis); ``always`` prints it even at its default.  Bounds
    (``ge``/``gt``/``lt``/``choices``) apply to the stored value.
    """
    spec = dict(flag=flag, help=help, axis=axis, label=label, always=always,
                unit=unit, metavar=metavar, choices=choices, ge=ge, gt=gt, lt=lt)
    return dataclasses.field(default=default, metadata=spec)


def kind(f: dataclasses.Field) -> type:
    """The type a flag or axis value of ``f`` parses to."""
    return float if f.metadata["unit"] != 1 else _KINDS[f.type.split(" | ")[0]]


def from_text(f: dataclasses.Field, text):
    """An axis value (a CLI string, or already typed) in flag units."""
    if kind(f) is not bool or not isinstance(text, str):
        return kind(f)(text)
    try:
        return _ON_OFF[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected on/off, got {text!r}") from None


def to_field(f: dataclasses.Field, value):
    """Flag/axis units -> the stored field value."""
    unit = f.metadata["unit"]
    return value if unit == 1 else int(value * unit)


def to_flag(f: dataclasses.Field, value):
    """The stored field value -> flag/axis units."""
    unit = f.metadata["unit"]
    return value if unit == 1 or value is None else value / unit


def check_bounds(obj) -> None:
    """Raise ``ValueError`` naming the first field of ``obj`` outside its
    declared bounds (``None`` — "inherit"/"auto" — is always in range)."""
    for f in dataclasses.fields(obj):
        m, v = f.metadata, getattr(obj, f.name)
        if "unit" not in m or v is None:
            continue
        choices, ge, gt, lt = m["choices"], m["ge"], m["gt"], m["lt"]
        if choices is not None and v not in choices:
            raise ValueError(f"{f.name} must be one of {list(choices)}; got {v!r}")
        if ge is not None and lt is not None and not ge <= v < lt:
            raise ValueError(f"{f.name} must be in [{ge}, {lt}); got {v}")
        if ge is not None and v < ge:
            raise ValueError(f"{f.name} must be >= {ge}; got {v}")
        if gt is not None and v <= gt:
            raise ValueError(f"{f.name} must be > {gt}; got {v}")


class OptionError(ValueError):
    """``fields`` (dotted paths) refused together, and ``why``."""

    def __init__(self, fields, why: str) -> None:
        super().__init__(tuple(fields), why)
        self.fields, self.why = tuple(fields), why

    def __str__(self) -> str:
        return f"{', '.join(self.fields)}: {self.why}"


def _flagged(cls, only=None):
    """``(field, flag, dest)`` for the flags ``cls`` declares."""
    for f in dataclasses.fields(cls):
        flag = (f.metadata.get("flag") or "").replace("[no-]", "")
        if flag and (only is None or f.name in only):
            yield f, flag, flag.lstrip("-").replace("-", "_")


def add_flags(parser, cls, only=None) -> None:
    """Add the flags ``cls`` declares (all, or the fields named in
    ``only``) to an argparse parser or argument group."""
    for f, flag, _ in _flagged(cls, only):
        m = f.metadata
        if kind(f) is not bool:
            default = to_flag(f, f.default)
            shown = "" if default is None else " (default %(default)s)"
            parser.add_argument(
                flag, type=kind(f), default=default, metavar=m["metavar"],
                choices=m["choices"], help=(m["help"] or "") + shown,
            )
        elif "[no-]" in m["flag"]:
            parser.add_argument(
                flag, action=argparse.BooleanOptionalAction, default=f.default,
                help=m["help"],
            )
        else:
            parser.add_argument(flag, action="store_true", help=m["help"])


def from_args(cls, args, **extra):
    """Build ``cls`` from parsed args: every declared flag the parser has
    (at the user's value or its default) plus the ``extra`` fields.  A
    ``ValueError`` that names a flagged field is re-raised naming the flag."""
    flags = {f.name: (f, flag, dest) for f, flag, dest in _flagged(cls)}
    kwargs = dict(extra)
    for name, (f, _, dest) in flags.items():
        value = getattr(args, dest, None)
        if value is not None and name not in extra:
            kwargs[name] = to_field(f, value)
    try:
        return cls(**kwargs)
    except ValueError as e:
        named = flags.get(str(e).split(" ", 1)[0])
        if named is None:
            raise
        raise ValueError(f"{named[1]}: {e}") from None


def walk(cls, path: tuple = ()):
    """Yield ``(path, field)`` for every :func:`opt` field reachable from
    ``cls`` through dataclass-typed fields (``path``: attribute names from
    the root to the field's owner)."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from walk(hints[f.name], path + (f.name,))
        elif "unit" in f.metadata:
            yield path, f

