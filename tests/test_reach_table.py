"""The reach table's decision records name only code that exists: a
function or class deleted or renamed under ``src/`` must leave ``KEEP``
with it, an attribute no code reads must be deleted or named in
``WRITE_ONLY_KEEP``, and a keyword every caller leaves at its default
must be deleted or named in ``KEYWORD_KEEP``, and a field a class with a
``restore`` changes must be in its checkpoint cut, cleared by its
``restore`` or named in ``CUT_KEEP``.  A function a bench or an example
calls counts as reached without a ``KEEP`` row."""

from tests.reach_table import (
    CUT_KEEP,
    KEEP,
    KEYWORD_KEEP,
    WRITE_ONLY_KEEP,
    checkpoint_cut,
    loaded_names,
    own_name,
    single_valued_keywords,
    src_functions,
    write_only_state,
)


def test_every_kept_name_is_a_src_function_or_class():
    functions = src_functions()
    missing = [
        name for name in KEEP
        if not any(f == name or f.startswith(name + ".") for f in functions)
    ]
    assert missing == []


def test_a_name_a_benchmark_calls_counts_as_reached(tmp_path):
    (tmp_path / "bench_planted.py").write_text(
        "from planted import helper\n"
        "def measure(arr):\n"
        "    arr.cached = helper(arr.block_range())\n"
    )
    names = loaded_names([str(tmp_path)])
    assert {"helper", "block_range", "arr"} <= names
    assert "cached" not in names  # stored, not loaded
    assert own_name("repro.tempest.memory:GlobalArray.block_range") in loaded_names()


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


def test_write_only_pass_tells_apart_classes_sharing_a_name(tmp_path):
    (tmp_path / "planted.py").write_text(
        "class Reader:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "    def next(self):\n"
        "        return self.count + 1\n"
        "class Writer:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "        self.size = 1\n"
        "class Grower(Writer):\n"
        "    def grow(self):\n"
        "        return self.size * 2\n"
    )
    # Reader's load of count reads no other class's; a subclass's load of
    # size reads its base's
    found = write_only_state(str(tmp_path), keep={})
    assert {name: [site.rpartition(".")[2] for site in sites]
            for name, sites in found.items()} == {"Writer.count": ["planted:8"]}


def test_no_single_valued_keywords():
    assert single_valued_keywords() == []


def test_every_keyword_keep_entry_is_needed():
    unkept = single_valued_keywords(keep={})
    assert [name for name in KEYWORD_KEEP if name not in unkept] == []


def test_keyword_pass_flags_a_keyword_no_caller_passes(tmp_path):
    (tmp_path / "lonely.py").write_text(
        "def nobody_calls_this(x, flag=False, *, scale=1):\n    return x\n"
    )
    found = single_valued_keywords(str(tmp_path))
    assert [name.rpartition(":")[2] for name in found] == [
        "nobody_calls_this(flag)", "nobody_calls_this(scale)",
    ]


def test_checkpoint_cut_is_complete():
    assert checkpoint_cut() == {}


def test_every_cut_keep_entry_is_needed():
    unkept = checkpoint_cut(keep={})
    assert [name for name in CUT_KEEP if name not in unkept] == []


def test_cut_pass_flags_a_changed_field_the_cut_forgets(tmp_path):
    (tmp_path / "planted.py").write_text(
        "class Planted:\n"
        "    def __init__(self, engine):\n"
        "        self.engine = engine\n"
        "        self.count = 0\n"
        "        self.seen = []\n"
        "    def bump(self):\n"
        "        self.engine.call_now(print)\n"
        "        self.count += 1\n"
        "        self.seen.append(self.count)\n"
        "    def snapshot(self):\n"
        "        return self.count\n"
        "    def restore(self, cut):\n"
        "        self.count = cut\n"
    )
    # count is in the cut; engine is a constructor reference only called
    found = checkpoint_cut(str(tmp_path))
    assert {name: [site.rpartition(".")[2] for site in sites]
            for name, sites in found.items()} == {"Planted.seen": ["planted:9"]}
