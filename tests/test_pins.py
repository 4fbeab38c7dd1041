"""The pin ledger itself (:mod:`tests.pins`), on in-memory records.

The field walk must name exactly the path that moved, ``--allow`` must
write nothing unless every moved field is allowed, and every table's
data file must hold exactly the cells the table declares.
"""

import json

import numpy as np
import pytest

from tests import pins


def names(old, new):
    return [(pins.render(leaf.path), leaf.name) for leaf in pins.walk(old, new)]


def test_walk_names_a_nested_dict_leaf():
    old = {"summary": {"misses": 3, "spurious_retransmits": 8}, "elapsed_ns": 5}
    new = {"summary": {"misses": 3, "spurious_retransmits": 0}, "elapsed_ns": 5}
    assert names(old, new) == [("summary.spurious_retransmits", "spurious_retransmits")]


def test_walk_names_a_list_whose_length_changed():
    old = {"trace": {"traceEvents": [{"a": 1}, {"a": 2}]}, "n": 1}
    new = {"trace": {"traceEvents": [{"a": 1}, {"a": 2}, {"a": 3}]}, "n": 1}
    assert names(old, new) == [("trace.traceEvents", "traceEvents")]


def test_walk_names_an_ndarray_leaf():
    old = {"arrays": {"a": np.arange(4), "b": np.zeros(2)}}
    same_values_other_dtype = {"arrays": {"a": np.arange(4), "b": np.zeros(2, np.float32)}}
    new = {"arrays": {"a": np.arange(4), "b": np.array([0.0, 1.0])}}
    assert names(old, new) == [("arrays.b", "b")]
    assert names(old, same_values_other_dtype) == [("arrays.b", "b")]
    assert names(old, {"arrays": {"a": np.arange(4), "b": np.zeros(2)}}) == []


def test_walk_names_a_text_line_by_its_label():
    old = "backend:  shmem\nreliability:  288 retransmits (288 spurious)\naudit: clean\n"
    new = "backend:  shmem\nreliability:  288 retransmits (0 spurious)\naudit: clean\n"
    assert names(old, new) == [("reliability", "reliability")]


def test_walk_parses_bytes_as_json():
    def trace(spurious):
        return json.dumps({"traceEvents": [
            {"name": "frame.send", "args": {"seq": 1}},
            {"name": "frame.retransmit", "args": {"seq": 1, "spurious": spurious}},
        ]}).encode()

    assert names(trace(True), trace(False)) == [
        ("traceEvents[1].args.spurious", "spurious"),
    ]


def test_walk_is_as_strict_as_the_encoders():
    assert names({"n": 1}, {"n": 1.0}) == [("n", "n")]
    assert names({"t": (1, 2)}, {"t": [1, 2]}) == [("t", "t")]
    assert names({"x": -0.0}, {"x": 0.0}) == [("x", "x")]
    assert names({"f": float("nan")}, {"f": float("nan")}) == []
    # a dict's key order moves a JSON digest
    assert names({"k": {"a": 1, "b": 2}}, {"k": {"b": 2, "a": 1}}) == [("k", "k")]


@pytest.fixture
def ledger_data(tmp_path):
    """A one-table data directory and the records behind its cells."""
    doc = {
        "provenance": [{"recorded on": "0000000"}],
        "cells": {"a": [1, 8], "b": [2, 0]},
    }
    (tmp_path / "toy.json").write_text(pins.dumps(doc))
    old = {"toy": {
        "a": ({"misses": 1, "spurious": 8}, [1, 8]),
        "b": ({"misses": 2, "spurious": 0}, [2, 0]),
    }}
    new = {"toy": {
        "a": ({"misses": 1, "spurious": 0}, [1, 0]),
        "b": ({"misses": 2, "spurious": 0}, [2, 0]),
    }}
    return tmp_path, old, new


def test_an_unmoved_ledger_passes(ledger_data):
    data, old, _ = ledger_data
    assert pins.ledger(old, old, None, "HEAD", data) == 0
    assert pins.ledger(old, old, {"spurious"}, "HEAD", data) == 0


def test_a_moved_cell_fails_without_allow(ledger_data):
    data, old, new = ledger_data
    before = (data / "toy.json").read_bytes()
    assert pins.ledger(old, new, None, "HEAD", data) == 1
    assert (data / "toy.json").read_bytes() == before


def test_allow_that_omits_a_moved_field_writes_nothing(ledger_data, capsys):
    data, old, new = ledger_data
    new["toy"]["b"] = ({"misses": 3, "spurious": 0}, [3, 0])
    before = (data / "toy.json").read_bytes()
    assert pins.ledger(old, new, {"spurious"}, "HEAD", data) == 1
    assert (data / "toy.json").read_bytes() == before
    assert "moved fields not allowed: misses" in capsys.readouterr().out


def test_allow_naming_every_moved_field_re_records_the_moved_cells(ledger_data):
    data, old, new = ledger_data
    assert pins.ledger(old, new, {"spurious", "misses"}, "abc123", data) == 0
    doc = pins.load("toy", data)
    assert doc["cells"] == {"a": [1, 0], "b": [2, 0]}
    assert doc["provenance"][-1] == {
        "re-recorded against": "abc123", "cells": ["a"], "moved": ["spurious"],
    }
    assert pins.ledger(old, new, None, "abc123", data) == 1  # still moved against REV
    assert pins.ledger(new, new, None, "abc123", data) == 0


def test_a_stale_stored_value_fails_and_blocks_writing(ledger_data):
    data, old, new = ledger_data
    doc = pins.load("toy", data)
    doc["cells"]["b"] = [9, 9]
    (data / "toy.json").write_text(pins.dumps(doc))
    before = (data / "toy.json").read_bytes()
    assert pins.ledger(old, new, {"spurious"}, "HEAD", data) == 1
    assert (data / "toy.json").read_bytes() == before


@pytest.mark.parametrize("name", sorted(p.stem for p in pins.DATA.glob("*.json")))
def test_stored_cells_are_the_declared_cells(name):
    table = pins.tables()[name]
    assert set(pins.stored(name)) == set(table.cells)
    doc = pins.load(name)
    assert doc["provenance"]
    path = pins.DATA / f"{name}.json"
    assert path.read_text(encoding="utf-8") == pins.dumps(doc)


def test_every_table_has_a_data_file():
    assert set(pins.tables()) == {p.stem for p in pins.DATA.glob("*.json")}
