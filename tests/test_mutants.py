"""tests/mutants.py still points at the code and the tests it mutates.

A mutant whose text has left src/ (or occurs twice) shows as "stale" only
when someone runs tests/mutants.py by hand, which takes minutes. These
checks read its table, run no mutant, and take milliseconds.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    """tests/mutants.py as a module (standard library only, runs nothing on import)."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


MUTANTS = _mutants().MUTANTS


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_replaces_text_found_once_in_its_file(name):
    file, text, replacement, tests, expected, _ = MUTANTS[name]
    assert (ROOT / "src" / "lissscan" / file).read_text().count(text) == 1
    assert replacement != text and expected in ("killed", "survived")
    for test in tests:
        path, function = test.split("::")
        assert f"\ndef {function}(" in (ROOT / path).read_text(), test
