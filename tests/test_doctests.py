"""Docstring examples stay correct."""

import doctest
from pathlib import Path

import pytest

import qsym.combinatorics
import qsym.core
import qsym.expansion


@pytest.mark.parametrize("module", [qsym.combinatorics, qsym.core, qsym.expansion])
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_quick_tour():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(
        str(readme), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.failed == 0
    assert result.attempted > 0
