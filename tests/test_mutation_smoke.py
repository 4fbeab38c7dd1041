"""The mutation smoke's table stays applicable: each mutant's text occurs
once in the tree it names and changes one line, and every test it names
exists (``python -m tests.mutation_smoke`` runs them in CI)."""

import os
import shutil

import pytest

from tests.mutation_smoke import MUTANTS, ROOT, mutate


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_to_one_line(mutant, tmp_path):
    target = tmp_path / "repro" / mutant.path
    target.parent.mkdir(parents=True)
    shutil.copy(os.path.join(ROOT, "src", "repro", mutant.path), target)
    assert mutate(str(tmp_path), mutant)  # raises unless once, one line
    assert all(os.path.exists(os.path.join(ROOT, test)) for test in mutant.tests)


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
