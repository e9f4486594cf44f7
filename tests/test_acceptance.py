"""End-to-end acceptance checks.

Each test covers one headline behavior of the library, times itself
against a wall-clock budget, and prints a single pass/fail line.  Run
with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
lines while passing).
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from displacement.checkers import (
    GeneratorMap,
    check_binate,
    check_cznc,
    check_czc,
    check_mitotic,
    verify_certificate,
)
from displacement.core import FgSubgroup, commutator, conj, element_order
from displacement.hnn import (
    bass_serre_fixed_vertices,
    binate_presentation,
    britton_reduce,
    cc_witness_search_b1,
    is_identity,
    iter_reduced_words,
    mitosis_check,
    mitosis_presentation,
    normal_form,
    stable_letter_count,
)
from displacement.matrices import (
    RationalMatrix,
    block_conjugate,
    centralizer_space,
    gl2z_generators,
    gl_block_swap_witness,
    matrices_of,
)
from displacement.perms import Permutation, symmetric_group
from displacement.plmaps import (
    IntervalSet,
    displaces,
    pl_support,
    thompson_generators,
    tower_gamma,
    unique_fixed_point_element,
)
from displacement.serialize import dump_report
from displacement.suites import run_suite, _random_pl_word
from displacement.wreath import (
    TowerSpec,
    brute_search_zp_witness,
    embed_subgroup,
    enumerate_level,
    sym_zn_witness,
    zn_witness,
)

F = Fraction
S3 = symmetric_group(3)


def _timed(num: int, desc: str, limit: float, fn) -> None:
    start = time.monotonic()
    ok = False
    try:
        fn()
        ok = True
    finally:
        elapsed = time.monotonic() - start
        status = "PASS" if ok and elapsed <= limit else "FAIL"
        print(f"criterion {num:2d} [{elapsed:7.2f}s / {limit:.0f}s] {desc}: {status}")
    assert elapsed <= limit, f"criterion {num} took {elapsed:.2f}s (limit {limit}s)"


def test_criterion_01_wreath_witnesses():
    def body():
        tower = TowerSpec(S3, ("prefix", (2, 2, 2, 2)))
        for level in range(1, 5):
            cert, rep = zn_witness(tower, tower.base, level, 2)
            assert rep.ok and verify_certificate(cert).ok
        t4 = TowerSpec(S3, ("prefix", (4,)))
        cert, rep = zn_witness(t4, t4.base, 1, 2)
        assert rep.ok
        assert cert.payload["t"].shift == 2  # k = n / p
        assert verify_certificate(cert).ok

    _timed(1, "wreath shift witnesses verify at levels 1-4", 5, body)


def test_criterion_02_wreath_exhaustive_negative():
    def body():
        tower = TowerSpec(S3, ("prefix", (3,)))
        H = embed_subgroup(S3, tower, 1)
        assert brute_search_zp_witness(tower, 1, H, 2) is None

    _timed(2, "no Z/2 witness among all 648 elements over Z/3", 10, body)


def test_criterion_03_torsion_obstruction():
    def body():
        tower = TowerSpec(S3, ("prefix", (3,)))
        H = embed_subgroup(S3, tower, 1)
        for t in enumerate_level(tower, 1):
            assert not check_czc(H, t, element_order(t)).ok

    _timed(3, "every torsion conjugator fails the unbounded check", 30, body)


def test_criterion_04_block_conjugation_identity():
    def body():
        rng = random.Random(101)

        def invertible(n):
            while True:
                entries = [
                    [F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)
                ]
                try:
                    return RationalMatrix(entries)
                except ValueError:
                    continue

        for _ in range(200):
            X = invertible(2)
            g = invertible(4)
            assert block_conjugate(X, g) == conj(RationalMatrix(X.padded(4)), g)

    _timed(4, "block conjugation matches full conjugation on 200 inputs", 5, body)


def test_criterion_05_centralizer_dimension():
    def body():
        tests = [
            RationalMatrix([[-1, 0], [0, 1]]),
            RationalMatrix([[1, 0], [0, -1]]),
            RationalMatrix([[1, 0], [1, 1]]),
        ]
        space = centralizer_space(tests, ambient=4)
        assert space.dim == 5
        for M in matrices_of(space, 4):
            assert M[0][0] == M[1][1] and M[0][1] == 0 and M[1][0] == 0
            for i in range(2):
                for j in range(2, 4):
                    assert M[i][j] == 0 and M[j][i] == 0

    _timed(5, "centralizer of the test matrices is 5-dimensional", 2, body)


def test_criterion_06_gl_z2_witness():
    def body():
        H = gl2z_generators()
        cert, rep = gl_block_swap_witness(H)
        assert rep.ok
        t = cert.payload["t"]
        assert check_cznc(H, t, 2).ok
        assert not check_czc(H, t, 2).ok

    _timed(6, "block swap is a Z/2 witness but not an unbounded one", 2, body)


def test_criterion_07_pl_tower():
    def body():
        gens, dissipators, intervals = tower_gamma(3)
        rng = random.Random(103)
        for i in (1, 2):
            t = dissipators[i - 1]
            I = IntervalSet([intervals[i - 1]])
            assert displaces(t, I, 50).ok
            level = FgSubgroup(f"Gamma_{i}", gens[: i + 1])
            assert check_czc(level, t, 10).verdict == "bounded-pass"
        level_sets = [IntervalSet([iv]) for iv in intervals[:-1]]
        for _ in range(200):
            g = _random_pl_word(rng, gens, 8)
            sup = pl_support(g)
            for (l0, r0), (l1, r1) in zip(sup.intervals, sup.intervals[1:]):
                assert r0 <= l1
            for I in level_sets:
                gi = I.image(g)
                assert gi.is_disjoint_from(I) or gi == I

    _timed(7, "depth-3 tower: displacement, bounded checks, dichotomy", 60, body)


def test_criterion_08_unique_fixed_point():
    def body():
        h = unique_fixed_point_element()
        half = F(1, 2)
        assert h(half) == half
        assert pl_support(h) == IntervalSet([(0, half), (half, 1)])
        x0, x1 = thompson_generators()
        rng = random.Random(107)
        power = h
        for k in range(50):
            assert power(half) == half
            power = power * (h if k % 2 else h.inverse())
        for k in range(50):
            u = _random_pl_word(rng, (x0, x1), 6)
            if commutator(u, h).is_identity():
                assert u(half) == half

    _timed(8, "the one-fixed-point element and its centralizer fix 1/2", 10, body)


def test_criterion_09_britton_engine():
    def body():
        bp = binate_presentation(S3)
        mp = mitosis_presentation(S3)
        e = S3.context.identity
        d = bp.stable_letter("d")
        for g in bp.group_elems:
            assert conj(d, bp.base_element(e, g)) == bp.base_element(g, g)
        for pres in (bp, mp):
            for word in iter_reduced_words(pres, 1):
                if stable_letter_count(word) == 1:
                    assert not is_identity(pres, word)
        rng = random.Random(109)
        for _ in range(500):
            m = rng.randint(0, 6)
            letters = tuple(
                (rng.choice(mp.letters), rng.choice((1, -1)), rng.randrange(mp.size))
                for _ in range(m)
            )
            w = (rng.randrange(mp.size), letters)
            a = britton_reduce(mp, w)
            b = britton_reduce(mp, w, rng=rng)
            assert normal_form(mp, a) == normal_form(mp, b)

    _timed(9, "rewriting engine: relations, reduced words, confluence", 60, body)


def test_criterion_10_bass_serre_fixed_vertices():
    def body():
        bp = binate_presentation(S3)
        e = S3.context.identity
        for g in bp.group_elems:
            if g == e:
                continue
            fixed = bass_serre_fixed_vertices(bp, bp.base_element(g, e), 3)
            assert len(fixed) == 1 and fixed[0].distance == 0
            diag = bass_serre_fixed_vertices(bp, bp.base_element(g, g), 1)
            assert len(diag) >= 2

    _timed(10, "left factors fix one tree vertex, diagonals fix more", 120, body)


def test_criterion_11_no_commuting_conjugates():
    def body():
        assert cc_witness_search_b1(S3, 2).verdict == "none"

    _timed(11, "no conjugator among all words with up to 2 letters", 300, body)


def test_criterion_12_mitosis():
    def body():
        assert mitosis_check(S3).ok
        pres = mitosis_presentation(S3)
        minus = pres.minus_subgroup()
        s = pres.stable_letter("s")
        d = pres.stable_letter("d")
        assert check_mitotic(minus, s, d * s).ok
        f = GeneratorMap.from_callable(minus, lambda h: conj(s, h))
        assert check_binate(minus, f, d).ok

    _timed(12, "splitting data passes both the mitosis and binate checks", 10, body)


def test_criterion_13_symmetric_group_witnesses():
    def body():
        for n in (2, 3, 4):
            cert, rep = sym_zn_witness(S3, n)
            assert rep.ok
            # the witness lives in Sym(3n) alongside the extended copy
            assert check_cznc(cert.subject, cert.payload["t"], n).ok

    _timed(13, "block-permutation witnesses verify for n = 2, 3, 4", 2, body)


def test_criterion_14_full_suite():
    def body():
        report = run_suite("all")
        assert report["totals"]["violations"] == 0
        assert report["totals"]["checks"] >= 18
        # the byte-stable report of `--suite all --seed 0`
        golden = Path(__file__).parent / "golden" / "all-seed0.json"
        assert dump_report(report) == golden.read_text()

    _timed(14, "full verification suite runs clean end to end", 600, body)
