"""The reach table's decision record names only code that exists: a
function or class deleted or renamed under ``src/`` must leave ``KEEP``
with it."""

from tests.reach_table import KEEP, src_functions


def test_every_kept_name_is_a_src_function_or_class():
    functions = src_functions()
    missing = [
        name for name in KEEP
        if not any(f == name or f.startswith(name + ".") for f in functions)
    ]
    assert missing == []


def test_every_kept_name_gives_a_reason():
    assert all(reason.strip() for reason in KEEP.values())
