"""Mutation gate: each named one-line mutant of the program must be
caught by the tests named for it.

    python3 tools/mutants.py

Run from anywhere; paths are resolved from this file.  For each mutant
the script copies ``src/`` to a fresh temporary directory, replaces one
line of one module in the copy, and runs the mutant's tests with pytest
against the copy (``PYTHONPATH`` points at it, and the script first
checks that ``displacement`` really imports from there).  A mutant
survives when its tests pass.  Before any mutant, each distinct test
selection must pass on an unmutated copy.  Hypothesis runs with a fixed
seed, so a verdict repeats.

Exits 0 when every mutant is killed, and 1 when one survives, when a
mutant's line is not found exactly once, or when a baseline run fails.
Standard library only; the tests need pytest, hypothesis and sympy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    """Replace the one line of ``module`` (under src/displacement) that
    reads ``old``, ignoring indentation, by ``new``.  With ``within``,
    the line is looked for only in the top-level definition whose first
    line starts with it."""

    name: str
    module: str
    old: str
    new: str
    tests: Tuple[str, ...]
    within: Optional[str] = None


MATRIX_TESTS = ("tests/test_matrices.py", "tests/test_matrices_sympy.py")
PL_TESTS = ("tests/test_plmaps.py",)
DESCENT_TESTS = ("tests/test_hnn.py", "-k", "descent")
ENGINE_TESTS = ("tests/test_hnn.py", "-k", "engine")
ORBIT_TESTS = ("tests/test_hnn.py", "-k", "orbit")
WREATH_TESTS = ("tests/test_wreath.py",)
COMMUTES_TESTS = ("tests/test_commutes.py",)
CHECKER_TESTS = ("tests/test_checkers.py", "tests/test_wreath.py")
SCENARIO_TESTS = ("tests/test_serialize.py", "tests/test_cli.py")

MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        "matrix-gcd-dropped", "matrices.py",
        "if g != 1:", "if g == -1:", MATRIX_TESTS,
    ),
    Mutant(
        "matrix-den-sign-flipped", "matrices.py",
        "if den < 0:", "if den > 0:", MATRIX_TESTS,
    ),
    Mutant(
        "bareiss-wrong-previous-pivot", "matrices.py",
        "prev = p", "prev = prev if pivots else p", MATRIX_TESTS,
    ),
    Mutant(
        "matrix-trim-skipped", "matrices.py",
        "while m > 1:", "while False:", MATRIX_TESTS,
    ),
    Mutant(
        "pl-gcd-dropped", "plmaps.py",
        "g = gcd(g, x, y)", "g = 1", PL_TESTS,
    ),
    Mutant(
        "compose-wrong-cross-multiplication", "plmaps.py",
        "if i < m and (j == k or gb[i][1] * F < fb[j][0] * G):",
        "if i < m and (j == k or gb[i][1] * G < fb[j][0] * F):",
        PL_TESTS,
    ),
    Mutant(
        "compose-wrong-interpolation-bound", "plmaps.py",
        "if 0 < j < k:", "if 0 <= j < k:", PL_TESTS,
    ),
    Mutant(
        "collinearity-reversed", "plmaps.py",
        "if dx0 and dy * dx0 == dy0 * dx:",
        "if dx0 and dy * dy0 == dx0 * dx:",
        PL_TESTS,
    ),
    Mutant(
        "compose-disjoint-hulls-touching", "plmaps.py",
        "if gb[-1][0] * F < fb[0][0] * G or fb[-1][0] * G < gb[0][0] * F:",
        "if gb[-1][0] * F <= fb[0][0] * G or fb[-1][0] * G <= gb[0][0] * F:",
        PL_TESTS,
    ),
    Mutant(
        "interval-disjoint-closed", "plmaps.py",
        "l0 * E < r1 * D and l1 * D < r0 * E",
        "l0 * E <= r1 * D and l1 * D <= r0 * E",
        PL_TESTS,
    ),
    Mutant(
        "interval-gcd-dropped", "plmaps.py",
        "g = gcd(den, *flat)", "g = 1", PL_TESTS,
    ),
    Mutant(
        "displaces-power-loop-one-short", "plmaps.py",
        "for p in range(1, p_max + 1):", "for p in range(1, p_max):", PL_TESTS,
        within="def displaces(",
    ),
    Mutant(
        "descent-stops-at-distance-1", "hnn.py",
        "for dist in range(1, radius + 1):",
        "for dist in range(1, min(radius, 1) + 1):",
        DESCENT_TESTS, within="def fixed_vertices(",
    ),
    Mutant(
        "descent-carries-parent-code", "hnn.py",
        "nxt.append((child, carried))", "nxt.append((child, c))", DESCENT_TESTS,
        within="def fixed_vertices(",
    ),
    Mutant(
        "descent-swaps-phi", "hnn.py",
        "carried = pres._across[x][sign][a]", "carried = pres._across[x][-sign][a]",
        DESCENT_TESTS,
    ),
    Mutant(
        "descent-conjugates-the-wrong-way", "hnn.py",
        "a = pres.mul(pres.mul(pres.inv(r), c), r)",
        "a = pres.mul(pres.mul(r, c), pres.inv(r))",
        DESCENT_TESTS,
    ),
    Mutant(
        "stack-pass-skips-retest-after-pinch", "hnn.py",
        "top = stack[-1] = (y, g, mul(b, merged))",
        "stack[-1] = (y, g, mul(b, merged)); top = None",
        ENGINE_TESTS,
    ),
    Mutant(
        "stack-pass-pinches-with-the-wrong-sign", "hnn.py",
        "mid = pres._across[x][-f][c]", "mid = pres._across[x][f][c]", ENGINE_TESTS,
    ),
    Mutant(
        "word-mul-without-seam-reduction", "hnn.py",
        "b0 = _push_letters(pres, b0, stack, lv)", "stack.extend(lv)", ENGINE_TESTS,
    ),
    Mutant(
        "push-table-from-phi", "hnn.py",
        "across = self._across[x][sign]", "across = self._across[x][-1]", ENGINE_TESTS,
    ),
    Mutant(
        "coset-sweep-rows-swapped", "hnn.py",
        "row1, row2 = gmul[b // n], gmul[b % n]",
        "row1, row2 = gmul[b % n], gmul[b // n]",
        ENGINE_TESTS,
    ),
    Mutant(
        "confluence-comparison-never-runs", "suites.py",
        "if first != second and (", "if False and (", ENGINE_TESTS,
    ),
    Mutant(
        "sampler-draws-sign-plus-only", "suites.py",
        "x, sign = signed[q // size]", "x, sign = signed[q // size][0], 1", ENGINE_TESTS,
    ),
    Mutant(
        "level-order-enumerates-under-full-budget", "wreath.py",
        "size = len(tower.base_elements(cap))", "size = len(tower.base_elements(budget))",
        WREATH_TESTS,
    ),
    Mutant(
        "wreath-merge-factors-swapped", "wreath.py",
        "values[m] = v if u is None else u * v",
        "values[m] = v if u is None else v * u",
        WREATH_TESTS,
    ),
    Mutant(
        "wreath-merge-shifts-backwards", "wreath.py",
        "m = (i + k) % n", "m = (i - k) % n", WREATH_TESTS,
    ),
    Mutant(
        "commutes-always-true", "core.py",
        "return a * b == b * a", "return True", COMMUTES_TESTS,
    ),
    Mutant(
        "conjugate-by-the-inverse", "core.py",
        "K.generators = tuple(t * g * t_inv for g in self.generators)",
        "K.generators = tuple(t_inv * g * t for g in self.generators)",
        COMMUTES_TESTS,
    ),
    Mutant(
        "tree-walk-without-pinch-back-skip", "hnn.py",
        "if r == back:", "if False:", ("tests/test_hnn.py",),
    ),
    Mutant(
        "cznc-power-loop-one-short", "checkers.py",
        "failure = _conjugates_commute(H, t, n)",
        "failure = _conjugates_commute(H, t, n - 1)",
        CHECKER_TESTS,
    ),
    Mutant(
        "czc-power-loop-one-short", "checkers.py",
        "failure = _conjugates_commute(H, t, p_max + 1)",
        "failure = _conjugates_commute(H, t, p_max)",
        CHECKER_TESTS,
    ),
    Mutant(
        "support-tested-before-it-is-pushed", "checkers.py",
        "moved = supp", "moved = push(supp, t.inverse())", CHECKER_TESTS,
    ),
    Mutant(
        "support-of-the-first-generator-only", "checkers.py",
        "supp = support(H.generators)", "supp = support(H.generators[:1])",
        CHECKER_TESTS,
    ),
    Mutant(
        "powering-path-builds-one-power-short", "checkers.py",
        "tn = _power(t, n)", "tn = _power(t, n - 1)", CHECKER_TESTS,
    ),
    Mutant(
        "lagging-conjugate-caught-up-one-step", "checkers.py",
        "while q < p:", "if q < p:", CHECKER_TESTS,
    ),
    Mutant(
        "union-merges-touching-intervals", "plmaps.py",
        "if merged and l < merged[-1][1]:", "if merged and l <= merged[-1][1]:", PL_TESTS,
    ),
    Mutant(
        "symmetric-group-contexts-held-for-good", "perms.py",
        "weakref.WeakValueDictionary()", "{}", ("tests/test_perms.py",),
    ),
    Mutant(
        "sym-zn-gate-charges-one-permutation", "suites.py",
        "if SYM_ZN_HELD * degree * n > budget:", "if degree * n > budget:",
        ("tests/test_cli.py", "-k", "charges"),
    ),
    Mutant(
        "czc-claims-an-unbounded-pass", "checkers.py",
        'return PropertyReport.bounded([f"[H, t^p H t^-p] = 1 for p = 1..{p_max}"])',
        'return PropertyReport.passing([f"[H, t^p H t^-p] = 1 for p = 1..{p_max}"])',
        CHECKER_TESTS,
    ),
    Mutant(
        "brute-search-verdicts-swapped", "suites.py",
        "if t is None:", "if t is not None:", ("tests/test_cli.py",),
    ),
    Mutant(
        "torsion-verdicts-swapped", "suites.py",
        "if rep.ok:", "if not rep.ok:", WREATH_TESTS,
    ),
    Mutant(
        "orbit-gcd-dropped", "wreath.py",
        "d = gcd(k, n)", "d = 1", WREATH_TESTS,
    ),
    Mutant(
        "orbit-class-member-not-minimum", "wreath.py",
        "minima.append(cls[0])", "minima.append(cls[-1])", WREATH_TESTS,
    ),
    Mutant(
        "orbit-class-at-least-point", "wreath.py",
        "values = {n - d + c: g for c, g in enumerate(choice)}",
        "values = {c: g for c, g in enumerate(choice)}",
        WREATH_TESTS,
    ),
    Mutant(
        "normality-gate-forced-true", "wreath.py",
        "return all(s * x * s.inverse() in inner for s in G.generators for x in values)",
        "return True",
        WREATH_TESTS,
    ),
    Mutant(
        "scenario-level-check-off-by-one", "suites.py",
        "if level > len(orders):", "if level > len(orders) + 1:", ("tests/test_cli.py",),
    ),
    Mutant(
        "tower-depth-check-off-by-one", "suites.py",
        "if depth > plmaps.MAX_TOWER_DEPTH:", "if depth > plmaps.MAX_TOWER_DEPTH + 1:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "max-letters-check-off-by-one", "suites.py",
        "if letters > most:", "if letters > most + 1:", ("tests/test_cli.py",),
    ),
    Mutant(
        "undeclared-param-accepted", "suites.py",
        "if extra:", "if False:", ("tests/test_cli.py",),
    ),
    Mutant(
        "presentation-limit-off", "hnn.py",
        "elems = enumerate_subgroup([base.context.identity, *base.generators], MAX_BASE_ORDER)",
        "elems = enumerate_subgroup([base.context.identity, *base.generators])",
        ("tests/test_hnn.py", "-k", "base_group_over_its_limit"),
    ),
    Mutant(
        "sym-base-gate-skipped", "suites.py",
        "for k in range(2, degree + 1):", "for k in range(0):",
        ("tests/test_cli.py", "-k", "huge_degree"),
    ),
    Mutant(
        "cc-search-verdict-negated", "hnn.py",
        "if check_cc(minus, t).ok:", "if not check_cc(minus, t).ok:",
        ("tests/test_hnn.py", "-k", "cc_search"),
    ),
    Mutant(
        "orbit-walk-carries-the-parent-set", "hnn.py",
        "nxt.append((child, carried))", "nxt.append((child, C))",
        ORBIT_TESTS, within="def _orbit_walk(",
    ),
    Mutant(
        "orbit-walk-child-orbits-under-all-of-GxG", "hnn.py",
        "for c in C:", "for c in range(pres.size):",
        ORBIT_TESTS, within="def _orbit_walk(",
    ),
    Mutant(
        "cc-search-budget-admits-one-less", "hnn.py",
        "if covered > budget:", "if covered >= budget:", ORBIT_TESTS,
    ),
    Mutant(
        "walker-minimum-off-by-one", "serialize.py",
        'if "minimum" in schema and value < schema["minimum"]:',
        'if "minimum" in schema and value < schema["minimum"] - 1:',
        SCENARIO_TESTS,
    ),
    Mutant(
        "walker-accepts-additional-properties", "serialize.py",
        "if extra:", "if False:", SCENARIO_TESTS, within="def _walk(",
    ),
    Mutant(
        "walker-integer-accepts-bool", "serialize.py",
        "if not isinstance(value, _TYPES[kind]) or isinstance(value, bool):",
        "if not isinstance(value, _TYPES[kind]):",
        SCENARIO_TESTS,
    ),
    Mutant(
        "walker-integer-accepts-integral-float", "serialize.py",
        "if not isinstance(value, _TYPES[kind]) or isinstance(value, bool):",
        "if not isinstance(value, _TYPES[kind]) and not (kind == 'integer'"
        " and isinstance(value, float) and value.is_integer()) or isinstance(value, bool):",
        SCENARIO_TESTS,
    ),
    Mutant(
        "schema-load-accepts-any-keyword", "serialize.py",
        "if _KEYWORDS.get(key) != kind:", "if False:", SCENARIO_TESTS,
    ),
    Mutant(
        "program-fault-exits-as-user-error", "cli.py",
        "except ScenarioError as exc:", "except ValueError as exc:", ("tests/test_cli.py",),
    ),
)


def _region(lines: List[str], within: Optional[str]) -> range:
    """Indices of the lines a mutant may touch: the whole module, or the
    top-level definition starting with ``within`` up to the next one."""
    if within is None:
        return range(len(lines))
    starts = [i for i, line in enumerate(lines) if line.startswith(within)]
    if len(starts) != 1:
        raise ValueError(f"{len(starts)} top-level lines start with {within!r}")
    end = next(
        (i for i in range(starts[0] + 1, len(lines))
         if lines[i].startswith(("def ", "class ", "@"))),
        len(lines),
    )
    return range(starts[0], end)


def mutate(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's line replaced; raises ValueError unless
    exactly one line in its region reads ``old``."""
    lines = text.splitlines(keepends=True)
    hits = [i for i in _region(lines, mutant.within) if lines[i].strip() == mutant.old]
    if len(hits) != 1:
        raise ValueError(f"{mutant.name}: {len(hits)} lines read {mutant.old!r}")
    line = lines[hits[0]]
    indent = line[: len(line) - len(line.lstrip())]
    lines[hits[0]] = indent + mutant.new + "\n"
    return "".join(lines)


def _copy_src(mutant: Optional[Mutant]) -> str:
    """A temporary directory holding src/, mutated if a mutant is given."""
    tmp = tempfile.mkdtemp(prefix="mutant-")
    shutil.copytree(SRC, os.path.join(tmp, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = os.path.join(tmp, "src", "displacement", mutant.module)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(mutate(text, mutant))
    return tmp


def _tests_pass(tmp: str, tests: Sequence[str]) -> bool:
    """Run the tests against the copy in tmp; True when they all pass."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import displacement; print(displacement.__file__)"],
        cwd=tmp, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not where.startswith(os.path.join(tmp, "src") + os.sep):
        raise RuntimeError(f"displacement imported from {where}, not from the copy")
    args = [os.path.join(ROOT, t) if t.startswith("tests/") else t for t in tests]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *args],
        cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return run.returncode == 0


def run(mutants: Sequence[Mutant]) -> int:
    """Run the baselines, then every mutant; returns the exit code."""
    for m in mutants:  # fail early on a stale mutant
        with open(os.path.join(SRC, "displacement", m.module)) as fh:
            mutate(fh.read(), m)
    failed = False
    for tests in dict.fromkeys(m.tests for m in mutants):
        tmp = _copy_src(None)
        try:
            ok = _tests_pass(tmp, tests)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"{'baseline ok' if ok else 'BASELINE FAILS':16s} {' '.join(tests)}", flush=True)
        failed |= not ok
    if failed:
        return 1
    for m in mutants:
        tmp = _copy_src(m)
        try:
            survived = _tests_pass(tmp, m.tests)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"{'SURVIVED' if survived else 'killed':16s} {m.name}", flush=True)
        failed |= survived
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
