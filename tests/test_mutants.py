"""The mutation gate's table stays in step with the program: every
mutant replaces exactly one existing line, so a rename or an edit of a
mutated line fails here, in the ordinary test run, rather than only in
the slower ``tools/mutants.py`` job."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
sys.modules["mutants"] = mutants  # dataclasses resolve annotations through it
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_to_one_line(mutant):
    text = (ROOT / "src" / "displacement" / mutant.module).read_text()
    mutated = mutants.mutate(text, mutant)
    before, after = text.splitlines(), mutated.splitlines()
    assert len(before) == len(after)
    changed = [(a, b) for a, b in zip(before, after) if a != b]
    assert len(changed) == 1
    old, new = changed[0]
    assert old.strip() == mutant.old and new.strip() == mutant.new
    for test in mutant.tests:
        if test.startswith("tests/"):
            assert (ROOT / test).is_file()


def test_mutate_rejects_a_missing_or_repeated_line():
    m = mutants.Mutant("m", "x.py", "a = 1", "a = 2", ())
    with pytest.raises(ValueError):
        mutants.mutate("b = 1\n", m)
    with pytest.raises(ValueError):
        mutants.mutate("a = 1\na = 1\n", m)
    scoped = mutants.Mutant("m", "x.py", "a = 1", "a = 2", (), within="def g(")
    text = "def f():\n    a = 1\n\n\ndef g():\n    a = 1\n"
    assert mutants.mutate(text, scoped) == "def f():\n    a = 1\n\n\ndef g():\n    a = 2\n"
