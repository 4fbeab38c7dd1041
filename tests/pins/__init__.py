"""The pin ledger: every table of pinned values in one registry.

A pin is a stored value that a refactor must leave alone: a digest of a
simulated schedule or a plan, a tuple of counts, a cache key, a CLI run's
stdout.  :func:`tables` maps each table to its cells and holds, per
table, the function that computes a cell's *unhashed* record (plain
data: dicts, lists, tuples, strings, bytes, numbers, ndarrays) and the
table's encoder, which turns a record into the stored value.  Stored
values live in ``tests/pins/<table>.json`` beside the table's provenance
(the commit each value was recorded on, and every re-record); the
``cli`` table's values are the files of ``tests/cli_golden/``.  Tier-1
tests read their expected values through :func:`stored`.

    python -m tests.pins print [TABLE]
    python -m tests.pins compare REV [--allow FIELD,...]

``print`` computes every cell of the tree and prints the values it would
store.  ``compare`` runs the tables over REV's ``src/`` and over the
tree's in two processes, names the record fields that moved in each
moved cell (:func:`walk`), and with ``--allow`` re-records the moved
cells when every moved field is allowed (:func:`ledger`).
"""

from __future__ import annotations

import difflib
import functools
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

DATA = Path(__file__).parent
ROOT = DATA.parent.parent


class Table(NamedTuple):
    cells: tuple[str, ...]
    #: cell name -> the cell's unhashed record
    record: Callable[[str], Any]
    #: record -> the stored value (JSON-shaped)
    encode: Callable[[Any], Any]


def fields(record: dict) -> list:
    """The encoder of a table whose stored value is its record's fields."""
    return list(record.values())


def same(record):
    return record


@functools.cache
def tables() -> dict[str, Table]:
    """The registry.  Importing it imports every table's module."""
    from repro.apps import APPS
    from tests import plan_digest as plan
    from tests import test_cli_golden as cli
    from tests import test_spec as spec
    from tests.obs import attribution_matrix as attribution
    from tests.obs import counters_matrix as counters
    from tests.obs import lineage_digests as lineage
    from tests.obs import test_trace_bytes as trace_bytes
    from tests.runtime import test_backends as backends
    from tests.tempest import transport_digests as transport

    return {
        "plan_structure": Table(
            tuple(f"{app}/{variant}" for app, variant in plan.CELLS),
            lambda cell: plan.structure_record(plan.build_cell(*cell.split("/"))),
            plan.structure_digest,
        ),
        "plan_numerics": Table(
            tuple(plan.PARAMS),
            lambda app: plan.numerics_record(plan.build_cell(app, "unopt")),
            plan.numerics_digest,
        ),
        "transport": Table(
            tuple(str(i) for i in range(len(transport.CONFIGS))),
            lambda cell: transport.schedule(transport.run_config(transport.CONFIGS[int(cell)])),
            transport.schedule_digest,
        ),
        "attribution": Table(tuple(attribution.CELLS), attribution.record, attribution.encode),
        "counters": Table(tuple(counters.CELLS), counters.record, counters.digest),
        "lineage": Table(tuple(lineage.CELLS), lineage.record, lineage.encode),
        "trace_bytes": Table(tuple(trace_bytes.RUNS), trace_bytes.written, trace_bytes.encode),
        "msgpass": Table(tuple(sorted(APPS)), backends.msgpass_schedule, fields),
        "cache_keys": Table(
            tuple(spec.TestParentCompatibility.REQUESTS), spec.cache_keys, fields
        ),
        "cli": Table(tuple(cli.RUNS), cli.stdout, same),
    }


# --------------------------------------------------------------------- #
# data files
# --------------------------------------------------------------------- #
def load(name: str, data: Path = DATA) -> dict:
    """A table's data file: its provenance, and its cells unless a
    ``golden`` directory holds them."""
    return json.loads((data / f"{name}.json").read_text(encoding="utf-8"))


def dumps(doc: dict) -> str:
    """A data file's text: one stored value per line or per item."""
    return json.dumps(doc, indent=1, ensure_ascii=False) + "\n"


def stored(name: str, data: Path = DATA) -> dict[str, Any]:
    """Cell -> stored value of one table."""
    doc = load(name, data)
    if "golden" not in doc:
        return doc["cells"]
    golden = ROOT / doc["golden"]
    return {path.stem: path.read_text() for path in sorted(golden.glob("*.txt"))}


def store(name: str, values: dict[str, Any], entry: dict, data: Path = DATA) -> None:
    """Write new stored values for some cells of a table and append
    ``entry`` to its provenance."""
    doc = load(name, data)
    doc["provenance"].append(entry)
    if "golden" in doc:
        for cell, text in values.items():
            (ROOT / doc["golden"] / f"{cell}.txt").write_text(text)
    else:
        doc["cells"].update(values)
    (data / f"{name}.json").write_text(dumps(doc), encoding="utf-8")


# --------------------------------------------------------------------- #
# the field walk
# --------------------------------------------------------------------- #
class Leaf(NamedTuple):
    """One moved leaf: where it is, its field name (the last dict key or
    text label on its path) and its two values."""

    path: tuple
    name: str
    old: Any
    new: Any


class _Absent:
    def __repr__(self) -> str:
        return "<absent>"


#: the other side of a key or text line present on one side only
ABSENT = _Absent()


def label(line: str) -> str:
    """A text line's field: its label before the first ``:``."""
    return line.split(":", 1)[0].strip()


def _parsed(data: bytes):
    try:
        return json.loads(data)
    except ValueError:
        return data


def _same_leaf(old, new) -> bool:
    if isinstance(old, np.ndarray):
        return (old.dtype, old.shape) == (new.dtype, new.shape) and old.tobytes() == new.tobytes()
    if isinstance(old, float):  # -0.0 and nan included
        return repr(old) == repr(new)
    return bool(old == new)


def walk(old, new, path: tuple = (), name: str = "") -> list[Leaf]:
    """Every leaf of two records that differs, at least as strictly as the
    encoders see them: a type, a dict's key order and a list's length all
    count.  Bytes are parsed as JSON first; a string with lines is a text
    whose lines are matched by :mod:`difflib` and named by :func:`label`."""
    if isinstance(old, bytes) and isinstance(new, bytes):
        old, new = _parsed(old), _parsed(new)
    if type(old) is not type(new):
        return [Leaf(path, name, old, new)]
    if isinstance(old, dict):
        out = []
        for key in [*old, *(k for k in new if k not in old)]:
            sub = key if isinstance(key, str) else name
            if key in old and key in new:
                out += walk(old[key], new[key], (*path, key), sub)
            else:
                out.append(Leaf((*path, key), sub, old.get(key, ABSENT), new.get(key, ABSENT)))
        if old.keys() == new.keys() and list(old) != list(new):
            out.append(Leaf(path, name, list(old), list(new)))
        return out
    if isinstance(old, (list, tuple)):
        if len(old) != len(new):
            return [Leaf(path, name, old, new)]
        return [leaf for i, (a, b) in enumerate(zip(old, new))
                for leaf in walk(a, b, (*path, i), name)]
    if isinstance(old, str) and "\n" in old + new:
        return _walk_text(old.splitlines(), new.splitlines(), path)
    return [] if _same_leaf(old, new) else [Leaf(path, name, old, new)]


def _walk_text(old: list[str], new: list[str], path: tuple) -> list[Leaf]:
    out = []
    matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "equal":
            continue
        if i2 - i1 == j2 - j1:
            pairs = list(zip(old[i1:i2], new[j1:j2]))
        else:
            pairs = [(line, ABSENT) for line in old[i1:i2]]
            pairs += [(ABSENT, line) for line in new[j1:j2]]
        for a, b in pairs:
            names = {label(line) for line in (a, b) if line is not ABSENT}
            out += [Leaf((*path, n), n, a, b) for n in sorted(names)]
    return out


def render(path: tuple) -> str:
    text = "".join(f"[{c!r}]" if not isinstance(c, str) else f".{c}" for c in path)
    return text.lstrip(".") or "(record)"


def _show(value) -> str:
    if isinstance(value, np.ndarray):
        return f"<ndarray {value.dtype} {value.shape}>"
    if isinstance(value, (list, tuple, dict)) and len(repr(value)) > 60:
        return f"<{type(value).__name__} of {len(value)}>"
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _pair(old, new) -> str:
    """``old -> new``; two long strings are shown from a little before
    where they first differ."""
    if isinstance(old, str) and isinstance(new, str):
        start = max(len(os.path.commonprefix([old, new])) - 20, 0)
        if start:
            old, new = "..." + old[start:], "..." + new[start:]
    return f"{_show(old)} -> {_show(new)}"


def report(leaves: list[Leaf]) -> list[str]:
    """One line per moved field, its first instance shown, with a count of
    the rest (paths differing only in list indices are one field)."""
    groups: dict[str, list[Leaf]] = {}
    for leaf in leaves:
        shape = re.sub(r"\[\d+\]", "[]", render(leaf.path))
        groups.setdefault(shape, []).append(leaf)
    lines = []
    for group in groups.values():
        first = group[0]
        more = f"  (+{len(group) - 1} more)" if len(group) > 1 else ""
        lines.append(f"  {render(first.path)}: {_pair(first.old, first.new)}{more}")
    return lines


# --------------------------------------------------------------------- #
# the ledger
# --------------------------------------------------------------------- #
#: table -> cell -> (record, encoded value), as a ``records`` process computes them
Results = dict[str, dict[str, tuple[Any, Any]]]


def ledger(old: Results, new: Results, allow: set[str] | None, against: str,
           data: Path = DATA) -> int:
    """Compare two sides' records cell by cell, print what moved and check
    the new side against the stored values.  With ``allow``, store the
    moved cells' new values if every moved field is in it.  Returns the
    exit status: 0 when nothing moved and every cell matches its stored
    value, or when the moved cells were re-recorded; 1 otherwise, having
    written nothing."""
    moved: dict[str, dict[str, list[Leaf]]] = {}
    stale = []
    for name, cells in new.items():
        pinned = stored(name, data)
        for cell, (record, value) in cells.items():
            old_record, old_value = old[name][cell]
            leaves = walk(old_record, record)
            if not leaves and old_value != value:
                leaves = [Leaf(("encoded",), "(encoded)", old_value, value)]
            if leaves:
                moved.setdefault(name, {})[cell] = leaves
                print(f"{name} {cell}: {len(leaves)} moved")
                print("\n".join(report(leaves)))
            elif pinned.get(cell) != value:
                stale.append(f"{name} {cell}")
    n_moved = sum(map(len, moved.values()))
    print(f"{n_moved} of {sum(map(len, new.values()))} cells moved against {against}")
    if stale:
        print(f"{len(stale)} unmoved cells differ from their stored values: {', '.join(stale)}")
    if allow is None or stale:
        return 1 if moved or stale else 0
    names = {leaf.name for cells in moved.values() for leaves in cells.values()
             for leaf in leaves}
    if names - allow:
        print(f"moved fields not allowed: {', '.join(sorted(names - allow))}; nothing written")
        return 1
    for name, cells in moved.items():
        pinned = stored(name, data)
        values = {cell: new[name][cell][1] for cell in cells}
        values = {cell: value for cell, value in values.items() if pinned.get(cell) != value}
        if values:
            store(name, values, {
                "re-recorded against": against,
                "cells": list(values),
                "moved": sorted({leaf.name for cell in values for leaf in cells[cell]}),
            }, data)
            print(f"{name}: re-recorded {len(values)} cells")
    return 0
