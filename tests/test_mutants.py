"""The mutant table in ``mutants.py`` still points at the code it breaks.

The kill run itself is slow and runs by hand (``python tests/mutants.py``);
this gate only checks that each row's old text occurs exactly once in its
file and that each row names tests to run.
"""

from __future__ import annotations

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_exactly_once(mutant):
    text = (mutants.ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.tests


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
