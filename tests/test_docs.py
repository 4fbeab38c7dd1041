"""The flag, axis, event and counter reference tables and the rule lists
in the docs list exactly what the parsers, the field spec, the emit
sites, the counter declarations and the rule rows say — no more, no
fewer."""

import ast
import pathlib
import re

from repro.cli import build_parser
from repro.serve.matrix import AXES
from repro.serve.request import RunRequest
from repro.tempest.faults import FaultConfig
from repro.tempest.stats import COUNTERS

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


def _rule_list(path: str, heading: str) -> list[tuple[str, ...]]:
    """The fields each bullet of the first list after ``heading`` opens
    with (``- `a`, `b`: ...``)."""
    bullets: list[str] = []
    for line in (ROOT / path).read_text().split(heading, 1)[1].splitlines():
        if line.startswith("- "):
            bullets.append(line)
        elif line.startswith("  ") and bullets:
            bullets[-1] += " " + line.strip()
        elif bullets:
            break
    return [
        tuple(re.findall(r"`([^`]+)`", re.match(r"- ((?:`[^`]+`(?:, )?)+):", b).group(1)))
        for b in bullets
    ]


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


def test_rule_lists_name_exactly_the_declared_rows():
    assert _rule_list("docs/faults.md", "The rules across fields") == [
        row[0] for row in FaultConfig.RULES
    ]
    assert _rule_list("docs/serve.md", "## What a request refuses") == [
        row[0] for row in RunRequest.RULES
    ]


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


def emit_sites() -> dict[str, list[set[str]]]:
    """Event kind -> the payload key names of each payload shape an
    ``.emit("kind", t_ns, dur_ns, node, parent, {...})`` call under
    ``src/`` publishes (a ``**mapping`` entry contributes none)."""
    sites: dict[str, list[set[str]]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                payload = node.args[5]
                # ``{...} if cond else {...}`` publishes either shape
                shapes = (
                    [payload.body, payload.orelse]
                    if isinstance(payload, ast.IfExp) else [payload]
                )
                for shape in shapes:
                    assert isinstance(shape, ast.Dict), ast.unparse(node)
                    sites.setdefault(node.args[0].value, []).append(
                        {k.value for k in shape.keys if isinstance(k, ast.Constant)}
                    )
    return sites


def test_observability_doc_event_taxonomy_matches_the_emit_sites():
    documented = []
    for row in _table_rows("docs/observability.md", "## Event taxonomy"):
        # "`frame.send` / `.accept`" abbreviates frame.send, frame.accept
        for token in re.findall(r"`([a-z.]+)`", row[0]):
            prefix = documented[-1].rsplit(".", 1)[0] if token.startswith(".") else ""
            documented.append(prefix + token)
    assert len(documented) == len(set(documented))
    assert set(documented) == set(emit_sites())


def test_observability_doc_counter_table_matches_the_declarations():
    def cell(value, suffix=""):
        return f"`{value}`{suffix}" if value else "—"

    declared = []
    for cls, f in COUNTERS:
        m = f.metadata
        scale = f" (÷ {int(m['scale']):,})" if m["scale"] != 1 else ""
        declared.append([
            cell(f.name), cell(cls.__name__), cell(m["event"]), cell(m["arg"]),
            cell(m["total"]), cell(m["summary"], scale),
        ])
    documented = _table_rows("docs/observability.md", "## Counter cross-check")
    assert documented == declared, "\n".join(
        "| " + " | ".join(row) + " |" for row in declared
    )
