"""Tests of the benchmark's tracer.

    python3 -m pytest bench/test_tracer.py

They import the program from ``src/`` of the same checkout.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import displacement.cli  # noqa: E402,F401  (loads every module the CLI uses)
from displacement import checkers, core, hnn, matrices, wreath  # noqa: E402
from displacement.perms import symmetric_group  # noqa: E402

from tracer import Tracer  # noqa: E402


def test_search_candidates_match_closed_form():
    """Reduced words over b(Sym(3)) with at most two stable letters:
    36 base letters, 36 * 2 * 36 one-letter words, and for two letters
    2 * 66 admissible middle bases (a pinch needs the middle base in the
    6-element associated subgroup, so opposite signs leave 30 of 36)."""
    tracer = Tracer()
    tracer.install()
    try:
        pres = hnn.binate_presentation(symmetric_group(3))
        count = sum(1 for _ in hnn.iter_reduced_words(pres, 2))
    finally:
        tracer.uninstall()
    expected = 36 + 36 * 2 * 36 + 36 * 2 * 66 * 36
    assert expected == 173_700
    assert count == expected
    assert tracer.stats["hnn.iter_reduced_words"].yields == expected
    assert tracer.stats["hnn.presentation_build"].calls == 1


def test_names_imported_into_several_modules_are_all_patched():
    originals = {m: m.commutator for m in (core, wreath, matrices, checkers)}
    commute = core.subgroups_commute
    tracer = Tracer()
    tracer.install()
    try:
        for module, original in originals.items():
            assert module.commutator is not original
            assert module.commutator.__wrapped__ is original
        for module in (core, wreath, matrices, checkers):
            assert module.subgroups_commute.__wrapped__ is commute
        assert hnn.enumerate_subgroup is core.enumerate_subgroup
    finally:
        tracer.uninstall()
    for module, original in originals.items():
        assert module.commutator is original


def test_recursive_generator_counts_outermost_yields_only():
    """Sym(3) wr Z/3 has 6^3 * 3 = 648 elements; the level-0 elements
    that the recursion enumerates underneath do not count."""
    tracer = Tracer()
    tracer.install()
    try:
        tower = wreath.TowerSpec(symmetric_group(3), ("prefix", (3,)))
        elements = list(wreath.enumerate_level(tower, 1))
    finally:
        tracer.uninstall()
    stat = tracer.stats["wreath.enumerate_level"]
    assert len(elements) == 648
    assert stat.yields == 648
    assert stat.calls == 2


def test_self_time_excludes_traced_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(200_000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    o, i = tracer.stats["outer"], tracer.stats["inner"]
    assert i.calls == 2 and o.calls == 1
    assert abs(o.total_s - (o.self_s + i.total_s)) < 1e-9
    assert o.self_s < i.total_s
