"""The reach table's decision records name only code that exists: a
function or class deleted or renamed under ``src/`` must leave ``KEEP``
with it, and an attribute no code reads must be deleted or named in
``WRITE_ONLY_KEEP``."""

from tests.reach_table import KEEP, WRITE_ONLY_KEEP, src_functions, write_only_state


def test_every_kept_name_is_a_src_function_or_class():
    functions = src_functions()
    missing = [
        name for name in KEEP
        if not any(f == name or f.startswith(name + ".") for f in functions)
    ]
    assert missing == []


def test_every_kept_name_gives_a_reason():
    assert all(reason.strip() for reason in KEEP.values())


def test_no_write_only_state():
    assert write_only_state() == {}


def test_every_write_only_keep_entry_is_needed():
    # Each entry must name something the pass would otherwise report.
    unkept = write_only_state(keep={})
    owners = {name.split(".")[0] for name in unkept}
    stale = [
        name for name in WRITE_ONLY_KEEP
        if name not in unkept
        and not (name.endswith(".*") and name[:-2] in owners)
    ]
    assert stale == []
