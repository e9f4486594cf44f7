"""Britton rewriting, normal forms, the tree, and bounded searches."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from displacement import hnn, suites
from displacement.checkers import check_cc, check_mitotic
from displacement.core import BudgetExceededError, commutator, conj
from displacement.hnn import (
    BrittonElement,
    FiniteHnnPresentation,
    binate_presentation,
    britton_reduce,
    cc_witness_search_b1,
    fixed_vertices,
    fixes_vertex,
    is_identity,
    is_reduced,
    iter_reduced_words,
    mitosis_data,
    mitosis_presentation,
    normal_form,
    reduced_normal_form,
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


BRITTON_PRESENTATIONS = (binate_presentation(S3), mitosis_presentation(S3))


def _concat(pres, u, v):
    """The word u v as written, without reduction."""
    (b0u, lu), (b0v, lv) = u, v
    if not lu:
        return (pres.mul(b0u, b0v), lv)
    x, e, b = lu[-1]
    return (b0u, lu[:-1] + ((x, e, pres.mul(b, b0v)),) + lv)


def _reversed_inverse(pres, u):
    """The word u^-1 as written: the syllables of u, inverted, in reverse
    order, without reduction."""
    b0, letters = u
    e = pres.identity_code
    syllables = [(pres.inv(b0), ())]
    for x, sign, b in letters:
        syllables += [(e, ((x, -sign, e),)), (pres.inv(b), ())]
    out = (e, ())
    for w in reversed(syllables):
        out = _concat(pres, out, w)
    return out


@st.composite
def reduced_word_pairs(draw):
    """A presentation and two Britton-reduced words over it, with base
    letters often in an associated subgroup, so that seams pinch."""
    pres = draw(st.sampled_from(BRITTON_PRESENTATIONS))
    assoc = [
        c
        for c in range(pres.size)
        if any(pres._in_A[x][c] or pres._in_B[x][c] for x in pres.letters)
    ]
    base = st.one_of(st.integers(0, pres.size - 1), st.sampled_from(assoc))
    letter = st.tuples(st.sampled_from(pres.letters), st.sampled_from((1, -1)), base)
    word = st.tuples(base, st.lists(letter, max_size=4).map(tuple))
    return pres, britton_reduce(pres, draw(word)), britton_reduce(pres, draw(word))


@settings(max_examples=300, deadline=None)
@given(reduced_word_pairs())
def test_products_and_inverses_of_reduced_words_are_reduced(case):
    """word_mul and word_inv return reduced words equal to the reduction
    of the raw concatenation, so BrittonElement products and inverses
    need no second reduction."""
    pres, u, v = case
    raw_product, raw_inverse = _concat(pres, u, v), _reversed_inverse(pres, u)
    prod, inv = word_mul(pres, u, v), word_inv(pres, u)
    assert is_reduced(pres, prod) and is_reduced(pres, inv)
    assert normal_form(pres, prod) == normal_form(pres, britton_reduce(pres, raw_product))
    assert normal_form(pres, inv) == normal_form(pres, britton_reduce(pres, raw_inverse))
    a, b = BrittonElement(pres, u), BrittonElement(pres, v)
    assert (a * b).word == BrittonElement(pres, raw_product).word
    assert a * b == BrittonElement(pres, raw_product)
    assert a.inverse() == BrittonElement(pres, raw_inverse)
    assert (a * b).is_identity() == is_identity(pres, raw_product)
    assert (a * a.inverse()).is_identity()


# -- the site-list engine, kept as the reference of the one-pass one ------


def reference_pinch_sites(pres, letters):
    """Indices i where letters i, i+1 form a pinch."""
    sites = []
    for i in range(len(letters) - 1):
        x1, e1, b1 = letters[i]
        x2, e2, _ = letters[i + 1]
        if x1 != x2 or e1 != -e2:
            continue
        if (pres._in_A if e1 == 1 else pres._in_B)[x1][b1]:
            sites.append(i)
    return sites


def reference_reduce(pres, word, rng=None):
    """Britton reduction by rescanning the whole word for pinch sites
    after every pinch, pinching at the leftmost site, or at a random one
    drawn with ``rng.randrange``."""
    b0, letters = word
    letters = list(letters)
    while True:
        sites = reference_pinch_sites(pres, letters)
        if not sites:
            break
        i = sites[0] if rng is None else sites[rng.randrange(len(sites))]
        x1, e1, b1 = letters[i]
        _, _, b2 = letters[i + 1]
        mid = (pres._phi if e1 == 1 else pres._phi_inv)[x1][b1]
        merged = pres.mul(mid, b2)
        if i == 0:
            b0 = pres.mul(b0, merged)
        else:
            xp, ep, bp = letters[i - 1]
            letters[i - 1] = (xp, ep, pres.mul(bp, merged))
        del letters[i : i + 2]
    return (b0, tuple(letters))


def reference_normal_form(pres, word):
    """The normal form of a reduced word by decomposing each base letter
    as b = r c, with r = rep(b) and c = r^-1 b, and pushing phi_x^-+1(c)
    through the next stable letter."""
    b0, letters = word
    bases = [b0] + [b for _, _, b in letters]
    for i, (x, e, _) in enumerate(letters):
        side = "B" if e == 1 else "A"
        r = pres._coset_rep[(side, x)][bases[i]]
        c = pres.mul(pres.inv(r), bases[i])
        bases[i] = r
        pushed = (pres._phi_inv if e == 1 else pres._phi)[x][c]
        bases[i + 1] = pres.mul(pushed, bases[i + 1])
    return (bases[0], tuple((x, e, bases[i + 1]) for i, (x, e, _) in enumerate(letters)))


ENGINE_PRESENTATIONS = (
    binate_presentation(S3),
    mitosis_presentation(S3),
    mitosis_presentation(symmetric_group(2)),
)


@st.composite
def engine_words(draw, max_letters=8):
    """A presentation and a word of up to ``max_letters`` stable letters
    over it, with base letters often trivial or in an associated
    subgroup and stable letters from a small pool, so that pinches
    chain."""
    pres = draw(st.sampled_from(ENGINE_PRESENTATIONS))
    assoc = [
        c
        for c in range(pres.size)
        if any(pres._in_A[x][c] or pres._in_B[x][c] for x in pres.letters)
    ]
    base = st.one_of(
        st.integers(0, pres.size - 1),
        st.sampled_from(assoc),
        st.just(pres.identity_code),
    )
    letter = st.tuples(st.sampled_from(pres.letters), st.sampled_from((1, -1)), base)
    word = st.tuples(base, st.lists(letter, max_size=max_letters).map(tuple))
    return pres, draw(word), draw(word)


@settings(max_examples=250, deadline=None)
@given(engine_words())
def test_engine_one_pass_reduction_is_the_leftmost_reduction(case):
    """The stack pass returns exactly the word that leftmost-first
    rescanning returns, and the randomized order makes the same draws
    and pinches as the site-list loop."""
    pres, w, v = case
    reduced = britton_reduce(pres, w)
    assert reduced == reference_reduce(pres, w)
    assert is_reduced(pres, reduced)
    seed = v[0] + 7 * len(v[1])
    assert britton_reduce(pres, w, rng=random.Random(seed)) == reference_reduce(
        pres, w, rng=random.Random(seed)
    )


@settings(max_examples=250, deadline=None)
@given(engine_words())
def test_engine_seam_product_is_the_reduced_concatenation(case):
    """word_mul of reduced words, which pinches only at the seam, is
    exactly the reduction of the raw concatenation; so is word_mul of a
    reduced word and an unreduced one."""
    pres, w1, w2 = case
    u, v = reference_reduce(pres, w1), reference_reduce(pres, w2)
    assert word_mul(pres, u, v) == reference_reduce(pres, _concat(pres, u, v))
    assert word_mul(pres, u, w2) == reference_reduce(pres, _concat(pres, u, w2))


@pytest.mark.parametrize("make", [binate_presentation, mitosis_presentation])
def test_engine_normal_form_tables_match_decomposition(make):
    """On every reduced word of Sym(3) with one or two stable letters,
    the push-table normal form equals the decomposition one, word for
    word.  The reference of (b0, x^e b1, y^f b2) is that of the word with
    b2 = 1, whose last base letter is then multiplied by b2."""
    pres = make(S3)
    N, e1 = pres.size, pres.identity_code
    shapes = [(x, e) for x in pres.letters for e in (1, -1)]
    checked = 0
    for x, e in shapes:
        for b0, b1 in itertools.product(range(N), repeat=2):
            one = (b0, ((x, e, b1),))
            assert reduced_normal_form(pres, one) == reference_normal_form(pres, one)
            checked += 1
    for (x, e), (y, f) in itertools.product(shapes, repeat=2):
        member = pres._in_A[x] if e == 1 else pres._in_B[x]
        for b0, b1 in itertools.product(range(N), repeat=2):
            if x == y and e == -f and member[b1]:
                continue  # a pinch: not reduced
            r0, (first, (_, _, last)) = reference_normal_form(
                pres, (b0, ((x, e, b1), (y, f, e1)))
            )
            for b2 in range(N):
                expected = (r0, (first, (y, f, pres.mul(last, b2))))
                assert reduced_normal_form(pres, (b0, ((x, e, b1), (y, f, b2)))) == expected
                checked += 1
    n = len(pres.group_elems)
    pinched = len(shapes) * N * n * N  # one inverse shape per shape
    assert checked == len(shapes) * N * N + len(shapes) ** 2 * N**3 - pinched
    word = (b0, ((x, e, b1), (y, f, b2)))
    assert normal_form(pres, word) == reference_normal_form(pres, word)


@pytest.mark.parametrize("degree", [3, 4])
def test_engine_product_table_is_the_permutation_product(degree):
    """The product table, built on image tuples, holds the index of
    ``Permutation.__mul__``'s product for every pair."""
    pres = binate_presentation(symmetric_group(degree))
    for i, a in enumerate(pres.group_elems):
        for j, b in enumerate(pres.group_elems):
            assert pres._gmul[i][j] == pres._index[a * b]


@pytest.mark.parametrize("make", [binate_presentation, mitosis_presentation])
def test_engine_sampler_splits_one_draw_into_each_signed_letter_once(make):
    """A sampled letter comes from one draw q in range(2 |letters| size),
    and q -> (x, sign, q % size) is a bijection onto the signed letters."""
    pres = make(S3)
    total = 2 * len(pres.letters) * pres.size

    class Draws:
        def randint(self, lo, hi):
            return 1

        def randrange(self, stop):
            self.stops.append(stop)
            return self.q if stop == total else 0

    rng = Draws()
    signed = [(x, sign) for x in pres.letters for sign in (1, -1)]
    drawn = []
    for q in range(total):
        rng.q, rng.stops = q, []
        b0, (letter,) = suites._random_britton_word(rng, pres, signed, 6)
        assert rng.stops == [total, pres.size] and b0 == 0
        drawn.append(letter)
    expected = itertools.product(pres.letters, (1, -1), range(pres.size))
    assert sorted(drawn) == sorted(expected)


def test_engine_check_reports_a_confluence_break(monkeypatch):
    """A randomized reduction with a different normal form fails the
    confluence comparison before the identity test."""
    reduce = hnn.britton_reduce

    def skewed(pres, word, rng=None):
        b0, letters = reduce(pres, word, rng)
        if rng is not None:
            b0 = pres.mul(b0, pres.encode(G, E3))
        return (b0, letters)

    monkeypatch.setattr(hnn, "britton_reduce", skewed)
    rep = suites.run_britton_engine({}, random.Random(1), degree=3, samples=5)
    assert rep.verdict == "fail"
    assert rep.checks[-1] == "confluence breaks at sample 0"


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


@pytest.mark.parametrize(
    "build, degree, radii",
    [
        (binate_presentation, 1, range(5)),  # tree degree 2: a line
        (binate_presentation, 2, range(5)),
        (binate_presentation, 3, range(5)),
        (binate_presentation, 4, [2]),
        (mitosis_presentation, 2, range(4)),
    ],
)
def test_tree_ball_size_is_the_walk_count(build, degree, radii):
    pres = build(symmetric_group(degree))
    for radius in radii:
        assert hnn.tree_ball_size(pres, radius) == len(tree_ball(pres, radius))
    with pytest.raises(BudgetExceededError):
        hnn.tree_ball_size(pres, hnn.MAX_TREE_RADIUS + 1)


@pytest.mark.parametrize("build", [binate_presentation, mitosis_presentation])
def test_presentation_refuses_a_base_group_over_its_limit(monkeypatch, build):
    """A presentation stops enumerating its base group past
    ``MAX_BASE_ORDER`` elements: Sym(3), of order 6, is refused under a
    limit of 5 and accepted under 6."""
    monkeypatch.setattr(hnn, "MAX_BASE_ORDER", 5)
    with pytest.raises(BudgetExceededError, match="^base group larger than budget 5$"):
        build(S3)
    monkeypatch.setattr(hnn, "MAX_BASE_ORDER", 6)
    assert len(build(S3).group_elems) == 6


def canonical_vertex(pres, word):
    """The representative word of the coset w * (base group): the normal
    form of w with its last base letter set to the identity.  Two words
    lie in the same coset iff their representatives coincide."""
    b0, letters = normal_form(pres, word)
    e = pres.identity_code
    if not letters:
        return (e, ())
    x, sign, _ = letters[-1]
    return (b0, letters[:-1] + ((x, sign, e),))


def scanned_fixed_vertices(pres, g, radius):
    """The vertices within the radius that g fixes, in ``tree_ball`` order,
    by testing every vertex of the ball with ``fixes_vertex``."""
    return [v for v in tree_ball(pres, radius) if fixes_vertex(pres, g.word, v)]


def _reference_walk(pres, max_distance):
    """The tree walk by normal forms: every candidate child w r x^sign of
    every vertex w is normalized, and kept when its coset is new."""
    e = pres.identity_code
    ball = [((e, ()), 0)]
    seen = {(e, ())}
    frontier = [(e, ())]
    for dist in range(1, max_distance + 1):
        nxt = []
        for w in frontier:
            for x in pres.letters:
                for sign in (1, -1):
                    for r in pres._transversal[("B" if sign == 1 else "A", x)]:
                        step = (r, ((x, sign, e),))
                        child = canonical_vertex(pres, word_mul(pres, w, step))
                        if child not in seen:
                            seen.add(child)
                            ball.append((child, dist))
                            nxt.append(child)
        frontier = nxt
    return ball


@pytest.mark.parametrize(
    "make, degree, radius",
    [
        (binate_presentation, 2, 2),
        (binate_presentation, 3, 3),
        (binate_presentation, 4, 2),
        (mitosis_presentation, 2, 2),
        (mitosis_presentation, 3, 2),
    ],
)
def test_tree_walk_yields_normal_form_words(make, degree, radius):
    """Each vertex word is its own coset representative, with one stable
    letter per step of distance; the ball of the tree of valence
    2 * |letters| * |G| has the closed-form size, in the order of the walk
    by normal forms."""
    pres = make(symmetric_group(degree))
    ball = tree_ball(pres, radius)
    words = [v.word for v in ball]
    assert len(set(words)) == len(words)
    for v in ball:
        assert canonical_vertex(pres, v.word) == v.word
        assert v.distance == stable_letter_count(v.word)
    valence = 2 * len(pres.letters) * len(pres.group_elems)
    assert len(ball) == 1 + sum(valence * (valence - 1) ** k for k in range(radius))
    assert [(v.word, v.distance) for v in ball] == _reference_walk(pres, radius)


def test_vertex_labels_are_coset_invariants(bp):
    rng = random.Random(43)
    ball = tree_ball(bp, 2)
    for v in ball:
        # right-multiplying the representative by a base element must not
        # change the vertex word
        b = rng.randrange(bp.size)
        moved = word_mul(bp, v.word, (b, ()))
        assert canonical_vertex(bp, moved) == v.word


def test_unique_fixed_vertex_for_left_factor(bp):
    for g in S3.generators:
        elem = bp.base_element(g, E3)
        fixed = scanned_fixed_vertices(bp, elem, 3)
        assert len(fixed) == 1
        assert fixed[0].distance == 0


def test_diagonal_fixes_the_d_edge(bp):
    for g in (G, H):
        elem = bp.base_element(g, g)
        fixed = scanned_fixed_vertices(bp, elem, 1)
        assert len(fixed) >= 2
        assert any(v.distance == 0 for v in fixed)


def test_identity_fixes_everything(bp):
    fixed = scanned_fixed_vertices(bp, bp.identity, 2)
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
    ball2 = {v.word: v for v in tree_ball(bp, 2)}
    ball3 = {v.word: v for v in tree_ball(bp, 3)}
    fixed = {v.word for v in scanned_fixed_vertices(bp, g, 2)}
    candidates = [
        bp.base_element(G, G),
        bp.base_element(G.inverse(), G.inverse()),
        bp.stable_letter("d").inverse(),
    ]
    checked = 0
    for u in candidates:
        if not commutator(g, u).is_identity():
            continue
        for word in fixed:
            moved = canonical_vertex(bp, word_mul(bp, u.word, ball2[word].word))
            if moved in ball3:
                assert fixes_vertex(bp, g.word, ball3[moved])
                checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "make, degree, radius",
    [
        (binate_presentation, 3, 3),
        (binate_presentation, 2, 3),
        (mitosis_presentation, 3, 2),
    ],
)
def test_descent_finds_the_scanned_fixed_set(make, degree, radius):
    """For every base element, the descent through fixed vertices returns
    exactly the vertices that the word-algebra test finds in the ball,
    in the same order; the identity fixes the whole ball."""
    pres = make(symmetric_group(degree))
    ball = tree_ball(pres, radius)
    for code in range(pres.size):
        scan = [v for v in ball if fixes_vertex(pres, (code, ()), v)]
        assert fixed_vertices(pres, code, radius) == scan
    assert fixed_vertices(pres, pres.identity_code, radius) == ball
    with pytest.raises(BudgetExceededError):
        fixed_vertices(pres, pres.identity_code, 5)


def test_descent_reaches_fixed_vertices_beyond_radius_one(bp):
    """A diagonal (g,g) fixes the edge to d (base) and, beyond it, a
    subtree: the descent must go past distance 1 to find all of it."""
    for g in (G, H):
        elem = bp.base_element(g, g)
        scan = scanned_fixed_vertices(bp, elem, 3)
        assert any(v.distance >= 2 for v in scan)
        assert fixed_vertices(bp, bp.encode(g, g), 3) == scan


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
    ball = {v.word: v for v in tree_ball(pres, max_letters)}
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
    hit = {v.word for _, v in _landing(bp, 2)}
    assert len(hit) == len(tree_ball(bp, 2)) == 145


def test_mitosis_check():
    for base in (S3, symmetric_group(2)):
        minus, s, d = mitosis_data(base)
        assert check_mitotic(minus, s, d * s).ok


def test_mitosis_splitting_elementwise(mp):
    s = mp.stable_letter("s")
    ds = mp.stable_letter("d") * s
    for g in (G, H, G * H):
        h = mp.base_element(g, E3)
        assert conj(s, h) == mp.base_element(E3, g)
        assert conj(ds, h) == h * conj(s, h)


def test_unknown_stable_letter_is_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown stable letter 't'"):
        FiniteHnnPresentation(S3, ("d", "t"), "bad")
