"""The flag and axis reference tables in the docs list exactly what the
parsers and the field spec declare — no more, no fewer."""

import pathlib
import re

from repro.cli import build_parser
from repro.serve.matrix import AXES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _table_rows(path: str, heading: str) -> list[list[str]]:
    """Cells of every body row of the first table after ``heading``."""
    text = (ROOT / path).read_text().split(heading, 1)[1]
    rows = []
    for line in text.splitlines():
        if line.startswith("|"):
            rows.append([c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]])
        elif rows:
            break
    return rows[2:]  # drop the header and the |---| rule


def _flags(cell: str) -> set[str]:
    return set(re.findall(r"`(--[a-z-]+)", cell))


def test_readme_flag_reference_matches_the_parser():
    documented = set()
    for row in _table_rows("README.md", "## Command-line flags"):
        documented |= _flags(row[0])
    declared = {
        s for a in build_parser()._actions for s in a.option_strings
    } - {"-h", "--help"}
    assert documented == declared


def test_faults_doc_flag_table_matches_the_fault_group():
    documented = set()
    for row in _table_rows("docs/faults.md", "CLI flags (the *fault injection* group"):
        documented |= _flags(row[0])
    (group,) = [
        g for g in build_parser()._action_groups
        if g.title.startswith("fault injection")
    ]
    declared = {s for a in group._group_actions for s in a.option_strings}
    assert documented == declared


def test_serve_doc_axis_table_matches_the_spec():
    rows = _table_rows("docs/serve.md", "## Axes")
    documented = {
        row[0].strip("`"): sorted(re.findall(r"`([a-z_.]+)`", row[2])) for row in rows
    }
    declared = {
        axis: sorted(".".join(path + (f.name,)) for path, f in targets)
        for axis, targets in AXES.items()
    }
    assert documented == declared
