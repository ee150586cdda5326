"""The library quick start in README.md and PAPER.md runs as written."""

import doctest

import pytest
from conftest import ROOT


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_quick_start_examples(name):
    result = doctest.testfile(str(ROOT / name), module_relative=False, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
