"""Britton rewriting, normal forms, the tree, and bounded searches."""

import random

import pytest

from displacement.checkers import check_cc
from displacement.core import BudgetExceededError, commutator, conj
from displacement.freewords import FreeGroupContext
from displacement.hnn import (
    BASE_VERTEX_LABEL,
    BinateTower,
    BrittonElement,
    ElementHnnPresentation,
    b_tower_embed,
    bass_serre_fixed_vertices,
    binate_presentation,
    britton_reduce,
    canonical_vertex,
    cc_witness_search_b1,
    fixes_vertex,
    is_identity,
    is_reduced,
    iter_reduced_words,
    mitosis_check,
    mitosis_presentation,
    normal_form,
    stable_letter_count,
    tree_ball,
    word_inv,
    word_mul,
)
from displacement.perms import Permutation, symmetric_group

S3 = symmetric_group(3)
E3 = S3.context.identity
G = Permutation.from_cycles(3, [(1, 2, 3)])
H = Permutation.from_cycles(3, [(1, 2)])


@pytest.fixture(scope="module")
def bp():
    return binate_presentation(S3)


@pytest.fixture(scope="module")
def mp():
    return mitosis_presentation(S3)


def test_defining_relation_rewrites(bp):
    d = bp.stable_letter("d")
    for g in bp.group_elems:
        assert conj(d, bp.base_element(E3, g)) == bp.base_element(g, g)
        assert conj(d.inverse(), bp.base_element(g, g)) == bp.base_element(E3, g)


def test_non_pinch_words_stay_reduced(bp):
    # d (g,1) d^-1 does not reduce for g != 1
    code = bp.encode(G, E3)
    word = (bp.identity_code, (("d", 1, code), ("d", -1, bp.identity_code)))
    assert is_reduced(bp, word)
    assert britton_reduce(bp, word) == word


def test_pinch_removal(bp):
    e = bp.identity_code
    word = (e, (("d", 1, e), ("d", -1, e)))
    assert is_identity(bp, word)
    # (g,g)^-1 d (1,g) d^-1 is trivial
    word2 = (
        bp.inv(bp.encode(G, G)),
        (("d", 1, bp.encode(E3, G)), ("d", -1, e)),
    )
    assert is_identity(bp, word2)
    assert not is_identity(bp, (e, (("d", 1, e),)))


def test_britton_lemma_exhaustive_one_letter(bp, mp):
    count = 0
    for pres in (bp, mp):
        for word in iter_reduced_words(pres, 1):
            if stable_letter_count(word) == 1:
                assert not is_identity(pres, word)
                count += 1
    assert count == 2 * 36 * 36 + 4 * 36 * 36


def test_normal_form_is_canonical(bp):
    rng = random.Random(31)
    for _ in range(200):
        m = rng.randint(0, 4)
        letters = tuple(
            ("d", rng.choice((1, -1)), rng.randrange(bp.size)) for _ in range(m)
        )
        w = (rng.randrange(bp.size), letters)
        nf = normal_form(bp, w)
        # the normal form represents the same element
        assert is_identity(bp, word_mul(bp, w, word_inv(bp, nf)))
        # and is stable under renormalization
        assert normal_form(bp, nf) == nf


def test_equal_words_share_normal_form(bp):
    rng = random.Random(37)
    for _ in range(100):
        m = rng.randint(0, 3)
        letters = tuple(
            ("d", rng.choice((1, -1)), rng.randrange(bp.size)) for _ in range(m)
        )
        w = (rng.randrange(bp.size), letters)
        # multiply by a trivial relator instance at the end
        g = bp.group_elems[rng.randrange(36 // 6)]
        trivial = (
            bp.inv(bp.encode(g, g)),
            (("d", 1, bp.encode(E3, g)), ("d", -1, bp.identity_code)),
        )
        w2 = word_mul(bp, w, trivial)
        assert normal_form(bp, w2) == normal_form(bp, w)


def test_confluence_randomized_orders(bp, mp):
    rng = random.Random(41)
    for pres in (bp, mp):
        for _ in range(200):
            m = rng.randint(0, 6)
            letters = tuple(
                (rng.choice(pres.letters), rng.choice((1, -1)), rng.randrange(pres.size))
                for _ in range(m)
            )
            w = (rng.randrange(pres.size), letters)
            a = britton_reduce(pres, w)
            b = britton_reduce(pres, w, rng=rng)
            assert normal_form(pres, a) == normal_form(pres, b)


def test_element_interface(bp):
    d = bp.stable_letter("d")
    x = bp.base_element(G, E3)
    assert (d * d.inverse()).is_identity()
    assert (x * x * x).is_identity()
    w = d * x * d.inverse()
    assert not w.is_identity()
    assert w * w.inverse() == bp.identity
    assert hash(d * x) == hash((d * x) * bp.identity)


def test_tree_ball_counts(bp):
    assert len(tree_ball(bp, 0)) == 1
    assert len(tree_ball(bp, 1)) == 13  # base + 6 d-children + 6 d^-1-children
    assert len(tree_ball(bp, 2)) == 13 + 12 * 11
    with pytest.raises(BudgetExceededError):
        tree_ball(bp, 5)


def test_vertex_labels_are_coset_invariants(bp):
    rng = random.Random(43)
    ball = tree_ball(bp, 2)
    for v in ball:
        # right-multiplying the representative by a base element must not
        # change the canonical label
        b = rng.randrange(bp.size)
        moved = word_mul(bp, v.word, (b, ()))
        assert canonical_vertex(bp, moved) == v.label


def test_unique_fixed_vertex_for_left_factor(bp):
    for g in S3.generators:
        elem = bp.base_element(g, E3)
        fixed = bass_serre_fixed_vertices(bp, elem, 3)
        assert len(fixed) == 1
        assert fixed[0].label == BASE_VERTEX_LABEL


def test_diagonal_fixes_the_d_edge(bp):
    for g in (G, H):
        elem = bp.base_element(g, g)
        fixed = bass_serre_fixed_vertices(bp, elem, 1)
        assert len(fixed) >= 2
        labels = {v.label for v in fixed}
        assert BASE_VERTEX_LABEL in labels


def test_identity_fixes_everything(bp):
    fixed = bass_serre_fixed_vertices(bp, bp.identity, 2)
    assert len(fixed) == len(tree_ball(bp, 2))


def test_stabilizers_at_radius_one(bp):
    """g fixes a distance-1 vertex r d^e (base) iff r^-1 g r lies in the
    associated subgroup on the matching side."""
    for v in tree_ball(bp, 1):
        if v.distance == 0:
            continue
        r = v.word[0]
        sign = v.word[1][0][1]
        member = bp._in_B["d"] if sign == 1 else bp._in_A["d"]
        for code in range(bp.size):
            expected = member[bp.mul(bp.mul(bp.inv(r), code), r)]
            assert fixes_vertex(bp, (code, ()), v) == expected


def test_centralizing_elements_preserve_fixed_sets(bp):
    """If [g, u] = 1 then u permutes the fixed vertices of g."""
    g = bp.base_element(G, G)
    ball2 = {v.label: v for v in tree_ball(bp, 2)}
    ball3 = {v.label: v for v in tree_ball(bp, 3)}
    fixed = {v.label for v in bass_serre_fixed_vertices(bp, g, 2)}
    candidates = [
        bp.base_element(G, G),
        bp.base_element(G.inverse(), G.inverse()),
        bp.stable_letter("d").inverse(),
    ]
    checked = 0
    for u in candidates:
        if not commutator(g, u).is_identity():
            continue
        for label in fixed:
            moved = word_mul(bp, u.word, ball2[label].word)
            moved_label = canonical_vertex(bp, moved)
            if moved_label in ball3:
                assert fixes_vertex(bp, g.word, ball3[moved_label])
                checked += 1
    assert checked > 0


def test_cc_search_small_cases():
    z2 = symmetric_group(2)
    rep = cc_witness_search_b1(z2, 0)
    assert rep.verdict == "some" and rep.counterexample.is_identity()
    assert cc_witness_search_b1(S3, 0).verdict == "none"
    rep = cc_witness_search_b1(S3, 1)
    assert rep.verdict == "none"
    assert rep.checks == (
        "no commuting-conjugates witness among 13 Bass-Serre vertices within distance 1",
    )
    # the radius-3 ball over Sym(3) has 1,597 vertices
    with pytest.raises(BudgetExceededError):
        cc_witness_search_b1(S3, 3, budget=1000)


def _landing(pres, max_letters):
    """Each reduced word with at most max_letters stable letters, with
    the ball vertex it lands on."""
    ball = {v.label: v for v in tree_ball(pres, max_letters)}
    for w in iter_reduced_words(pres, max_letters):
        v = ball[canonical_vertex(pres, w)]
        assert v.distance == stable_letter_count(w)
        yield w, v


@pytest.mark.parametrize("degree, max_letters", [(2, 2), (3, 1)])
def test_cc_verdict_of_a_word_is_that_of_its_vertex(degree, max_letters):
    """The word search that the vertex search replaced, as its oracle."""
    pres = binate_presentation(symmetric_group(degree))
    minus = pres.minus_subgroup()
    for w, v in _landing(pres, max_letters):
        on_word = check_cc(minus, BrittonElement(pres, w)).ok
        assert on_word == check_cc(minus, BrittonElement(pres, v.word)).ok


def test_two_letter_words_cover_the_sym3_ball(bp):
    hit = {v.label for _, v in _landing(bp, 2)}
    assert len(hit) == len(tree_ball(bp, 2)) == 145


def test_mitosis_check():
    assert mitosis_check(S3).ok
    assert mitosis_check(symmetric_group(2)).ok


def test_mitosis_splitting_elementwise(mp):
    s = mp.stable_letter("s")
    ds = mp.stable_letter("d") * s
    for g in (G, H, G * H):
        h = mp.base_element(g, E3)
        assert conj(s, h) == mp.base_element(E3, g)
        assert conj(ds, h) == h * conj(s, h)


def test_binate_tower_stages():
    tower = BinateTower(S3, 3)
    x = G
    lifted1 = b_tower_embed(x, tower, 0)
    assert not lifted1.is_identity()
    lifted2 = b_tower_embed(lifted1, tower, 1)
    lifted3 = b_tower_embed(lifted2, tower, 2)
    assert not lifted3.is_identity()
    # homomorphism on a random pair at stage 1 -> 2
    a = b_tower_embed(G, tower, 0)
    b = b_tower_embed(H, tower, 0)
    assert b_tower_embed(a * b, tower, 1) == b_tower_embed(a, tower, 1) * b_tower_embed(
        b, tower, 1
    )
    with pytest.raises(BudgetExceededError):
        BinateTower(S3, 4)


def test_stage_two_relation():
    """The d-relation holds at stage 2 where the base is pairs of
    stage-1 words."""
    tower = BinateTower(S3, 2)
    p2 = tower.presentation(2)
    d = p2.stable_letter("d")
    inner = tower.presentation(1)
    g = inner.base_element(G, E3) * inner.stable_letter("d")
    x = p2.base_element(inner.identity, g)
    assert conj(d, x) == p2.base_element(g, g)
    assert not x.is_identity()


def test_free_group_base():
    """Identity testing over a free-group base uses reduced words."""
    pres = ElementHnnPresentation(FreeGroupContext(2), ("d",), "b(F2)")
    a = FreeGroupContext(2).generator(1)
    d = pres.stable_letter("d")
    x = pres.base_element(FreeGroupContext(2).identity, a)
    assert conj(d, x) == pres.base_element(a, a)
    y = pres.base_element(a, FreeGroupContext(2).identity)
    assert not conj(d, y).is_identity()
    assert stable_letter_count(conj(d, y).word) == 2
