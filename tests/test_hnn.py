"""Britton rewriting, normal forms, the tree, and bounded searches."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from displacement import hnn, suites
from displacement.checkers import check_cc, check_mitotic
from displacement.core import BudgetExceededError, PropertyReport, commutator, conj
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
        if any(c in pres._across[x][sign] for x in pres.letters for sign in (1, -1))
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
        if b1 in pres._across[x1][-e1]:
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
        mid = pres._across[x1][-e1][b1]
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
    as b = r c, with r the least code of the coset b S, scanned over the
    |G| members of S (the keys of ``_across[x][e]``), and c = r^-1 b, and
    pushing phi_x^-+1(c) through the next stable letter."""
    b0, letters = word
    bases = [b0] + [b for _, _, b in letters]
    for i, (x, e, _) in enumerate(letters):
        r = min(pres.mul(bases[i], s) for s in pres._across[x][e])
        c = pres.mul(pres.inv(r), bases[i])
        bases[i] = r
        pushed = pres._across[x][e][c]
        bases[i + 1] = pres.mul(pushed, bases[i + 1])
    return (bases[0], tuple((x, e, bases[i + 1]) for i, (x, e, _) in enumerate(letters)))


ENGINE_PRESENTATIONS = (
    binate_presentation(S3),
    mitosis_presentation(S3),
    binate_presentation(symmetric_group(2)),
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
        if any(c in pres._across[x][sign] for x in pres.letters for sign in (1, -1))
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


class NoDraws:
    def randrange(self, stop):
        raise AssertionError("a word with no pinch site needs no draw")


@pytest.mark.parametrize("make", [binate_presentation, mitosis_presentation])
def test_engine_short_and_pinch_free_words_come_back_as_they_stand(make):
    """Every word of at most two stable letters over Sym(2): one with
    fewer than two, on both paths, and one with no pinch site, under an
    ``rng``, comes back as the very word given, with no draw; given its
    letters as a list, it comes back equal, with a tuple of letters."""
    pres = make(symmetric_group(2))
    letters = list(itertools.product(pres.letters, (1, -1), range(pres.size)))
    short = pinch_free = 0
    for m in range(3):
        for b0, word in itertools.product(range(pres.size), itertools.product(letters, repeat=m)):
            if m == 2 and reference_pinch_sites(pres, word):
                continue
            w = (b0, word)
            short, pinch_free = short + (m < 2), pinch_free + (m == 2)
            for rng in [NoDraws()] + [None] * (m < 2):
                assert britton_reduce(pres, w, rng=rng) is w
                b, got = britton_reduce(pres, (b0, list(word)), rng=rng)
                assert (b, got) == w and type(got) is tuple
    assert short == pres.size * (1 + len(letters))
    assert 0 < pinch_free < pres.size * len(letters) ** 2


@settings(max_examples=250, deadline=None)
@given(engine_words())
def test_engine_reduced_words_pass_through_both_paths(case):
    """A Britton-reduced word of up to 8 stable letters has no pinch
    site: both paths return it as it stands, the ``rng`` one with no
    draw, and the product with the identity is the word itself."""
    pres, w, _ = case
    reduced = reference_reduce(pres, w)
    assert britton_reduce(pres, reduced) == reduced
    assert britton_reduce(pres, reduced, rng=NoDraws()) is reduced
    assert word_mul(pres, reduced, (pres.identity_code, ())) == reduced


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
        member = pres._across[x][-e]
        for b0, b1 in itertools.product(range(N), repeat=2):
            if x == y and e == -f and b1 in member:
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


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_engine_product_table_is_the_permutation_product(degree):
    """Each product row, composed on image tuples, holds the index of
    ``Permutation.__mul__``'s product a * b at b, for every a; at degree
    1 a column's getter returns an image, not a tuple."""
    pres = binate_presentation(symmetric_group(degree))
    elems = pres.group_elems
    for i, a in enumerate(elems):
        assert pres._gmul[i] == [pres._index[a * b] for b in elems]


@pytest.mark.parametrize("run", [
    lambda: suites.run_cc_search_b1({"budget": 10**7}, None, max_letters=1, degree=6),
    lambda: suites.run_mitosis({}, None, degree=6),
], ids=["cc-search-b1", "mitosis"])
def test_engine_rows_are_composed_on_first_use(monkeypatch, run):
    """A presentation over Sym(6) composes no product row when it is
    built, and the two checks that multiply by a few base elements each
    compose 3 of its 720 rows, each once, under its own code."""
    for make in (binate_presentation, mitosis_presentation):
        assert len(make(symmetric_group(6))._gmul) == 0
    composed = []
    missing = hnn._ProductRows.__missing__

    def compose(rows, a):
        row = missing(rows, a)
        composed.append(a)
        assert a in rows
        return row

    monkeypatch.setattr(hnn._ProductRows, "__missing__", compose)
    assert run().verdict in ("pass", "none")
    assert sorted(set(composed)) == sorted(composed) and len(composed) == 3


# (x, sign) -> (S, F): x^sign moves S(g) across to x^-sign S(g) x^sign =
# F(g), read off d (1,g) d^-1 = (g,g) and s (g,1) s^-1 = (1,g)
SIGNED_RELATIONS = {
    ("d", 1): (lambda e, g: (g, g), lambda e, g: (e, g)),
    ("d", -1): (lambda e, g: (e, g), lambda e, g: (g, g)),
    ("s", 1): (lambda e, g: (e, g), lambda e, g: (g, e)),
    ("s", -1): (lambda e, g: (g, e), lambda e, g: (e, g)),
}


@pytest.mark.parametrize("make", [binate_presentation, mitosis_presentation])
@pytest.mark.parametrize("degree", [2, 3])
def test_engine_signed_tables_follow_the_defining_relations(make, degree):
    """Every table and split at [x][sign] agrees with permutation
    arithmetic on decoded codes: S(g) is the member of g, ``_across``
    has exactly the |G| keys S(g), in g order, and sends S(g) to F(g),
    ``split`` gives the least code r of b S and c = r^-1 b, and the
    transversal lists the representatives."""
    base = symmetric_group(degree)
    pres = make(base)
    e, elems = base.context.identity, pres.group_elems
    for x in pres.letters:
        for sign in (1, -1):
            S, F = SIGNED_RELATIONS[(x, sign)]
            partner = {S(e, g): F(e, g) for g in elems}
            members = [pres._embed(x, sign, g) for g in range(pres.n)]
            across = pres._across[x][sign]
            assert [pres.decode(c) for c in members] == [S(e, g) for g in elems]
            assert len(across) == pres.n and list(across) == members
            reps = set()
            for b in range(pres.size):
                b1, b2 = pres.decode(b)
                if (b1, b2) in partner:
                    assert pres.decode(across[b]) == partner[(b1, b2)]
                else:
                    assert b not in across
                r, c = pres.split(x, sign, b)
                coset = [pres.encode(b1 * s1, b2 * s2) for s1, s2 in partner]
                assert r == min(coset)
                r1, r2 = pres.decode(r)
                assert c == pres.encode(r1.inverse() * b1, r2.inverse() * b2)
                reps.add(r)
            assert list(pres.transversal(x, sign)) == sorted(reps)


def sweep_tables(pres, x, sign):
    """The coset sweep that ``split`` and ``transversal`` replaced, as
    their oracle: in an ascending sweep over G x G the first code b of
    each coset b S is its least, so it becomes the representative of
    every b c (c in S), read off the product rows of b's two coordinates.
    Returns rep and part, with each code equal to rep[b] part[b], and the
    representatives in sweep order.  S comes from ``SIGNED_RELATIONS``."""
    n, N = pres.n, pres.size
    e = pres.group.context.identity
    S, _ = SIGNED_RELATIONS[(x, sign)]
    members = [pres.encode(*S(e, g)) for g in pres.group_elems]
    rep, part, reps = [-1] * N, [-1] * N, []
    for b in range(N):
        if rep[b] == -1:
            reps.append(b)
            row1, row2 = pres._gmul[b // n], pres._gmul[b % n]
            for c in members:
                bc = row1[c // n] * n + row2[c % n]
                rep[bc], part[bc] = b, c
    return rep, part, reps


@pytest.mark.parametrize("make", [binate_presentation, mitosis_presentation])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_engine_split_and_transversal_are_the_coset_sweep(make, degree):
    """The closed-form split and transversal equal the sweep at every
    code; they rely on the identity having code 0."""
    pres = make(symmetric_group(degree))
    e = pres.group.context.identity
    assert pres.identity_code == 0 and pres.decode(0) == (e, e)
    for x in pres.letters:
        for sign in (1, -1):
            rep, part, reps = sweep_tables(pres, x, sign)
            assert [pres.split(x, sign, b) for b in range(pres.size)] == list(zip(rep, part))
            assert list(pres.transversal(x, sign)) == reps


@pytest.mark.parametrize("make", [binate_presentation, mitosis_presentation])
def test_engine_sampler_reads_one_draw_in_mixed_radix(make):
    """A sampled word comes from one draw r in range((L + 1) size k^L),
    k = 2 |letters| size, read as m, b0 and L letter digits, each an
    index into the table of k letter tuples.  Every word
    of m <= L letters is drawn k^(L - m) times, once for each value of
    the digits it leaves unread: m is uniform and, given m, so is the
    word, as with one draw per letter."""
    pres, L = make(symmetric_group(2)), 2
    table = suites._britton_letters(pres)
    k = len(table)
    assert k == 2 * len(pres.letters) * pres.size
    total = (L + 1) * pres.size * k**L

    class Draws:
        def randrange(self, stop):
            self.stops.append(stop)
            return self.r

    rng, drawn = Draws(), collections.Counter()
    for r in range(total):
        rng.r, rng.stops = r, []
        drawn[suites._random_britton_word(rng, pres, table, L)] += 1
        assert rng.stops == [total]
    letters = list(itertools.product(pres.letters, (1, -1), range(pres.size)))
    assert drawn == {
        (b0, word): k ** (L - m)
        for m in range(L + 1)
        for b0 in range(pres.size)
        for word in itertools.product(letters, repeat=m)
    }


@pytest.mark.parametrize("degree", [2, 3])
def test_engine_check_tests_each_one_letter_word_in_walk_order(monkeypatch, degree):
    """The one-letter loop runs ``is_identity`` on exactly the one-letter
    words of ``iter_reduced_words``, b(G)'s then m(G)'s, in its order,
    and its detail line counts them."""
    base = symmetric_group(degree)
    expected = [
        (pres.label, word)
        for pres in (binate_presentation(base), mitosis_presentation(base))
        for word in iter_reduced_words(pres, 1)
        if stable_letter_count(word) == 1
    ]
    tested = []
    identity = hnn.is_identity

    def spy(pres, word):
        tested.append((pres.label, word))
        return identity(pres, word)

    monkeypatch.setattr(hnn, "is_identity", spy)
    rep = suites.run_britton_engine({}, random.Random(0), degree=degree, samples=0)
    assert rep.verdict == "pass" and tested == expected
    assert f"all {len(expected)} reduced one-stable-letter words are nontrivial" in rep.checks


def test_engine_check_counts_its_identity_tests_and_products(monkeypatch):
    """At degree 3 each check runs ``is_identity`` on all 7,776 one-letter
    words, two checks 2 x 7,776, whatever the sample count; each sample
    costs two reductions, one ``word_inv`` and one ``word_mul``, in each
    of the two presentations."""
    calls = collections.Counter()
    for name in ("is_identity", "britton_reduce", "word_mul", "word_inv"):
        def spy(*args, _name=name, _real=getattr(hnn, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(hnn, name, spy)
    counts, samples = [], 40
    for n in (0, samples):
        calls.clear()
        rep = suites.run_britton_engine({}, random.Random(1), degree=3, samples=n)
        assert rep.verdict == "pass"
        counts.append(dict(calls))
    none, some = counts
    assert none["is_identity"] + some["is_identity"] == 2 * 7776
    assert none["is_identity"] == some["is_identity"] == 6 * 6**4
    assert some["britton_reduce"] - none["britton_reduce"] == 2 * 2 * samples
    assert some["word_mul"] - none["word_mul"] == 2 * samples
    assert some["word_inv"] - none["word_inv"] == 2 * samples


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
    return [w for w in tree_ball(pres, radius) if fixes_vertex(pres, g.word, w)]


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
                    for r in pres.transversal(x, sign):
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
    assert len(set(ball)) == len(ball)
    for w in ball:
        assert canonical_vertex(pres, w) == w
    valence = 2 * len(pres.letters) * len(pres.group_elems)
    assert len(ball) == 1 + sum(valence * (valence - 1) ** k for k in range(radius))
    assert [(w, stable_letter_count(w)) for w in ball] == _reference_walk(pres, radius)


def test_vertex_labels_are_coset_invariants(bp):
    rng = random.Random(43)
    ball = tree_ball(bp, 2)
    for w in ball:
        # right-multiplying the representative by a base element must not
        # change the vertex word
        b = rng.randrange(bp.size)
        moved = word_mul(bp, w, (b, ()))
        assert canonical_vertex(bp, moved) == w


def test_unique_fixed_vertex_for_left_factor(bp):
    for g in S3.generators:
        elem = bp.base_element(g, E3)
        fixed = scanned_fixed_vertices(bp, elem, 3)
        assert len(fixed) == 1
        assert stable_letter_count(fixed[0]) == 0


def test_diagonal_fixes_the_d_edge(bp):
    for g in (G, H):
        elem = bp.base_element(g, g)
        fixed = scanned_fixed_vertices(bp, elem, 1)
        assert len(fixed) >= 2
        assert any(stable_letter_count(w) == 0 for w in fixed)


def test_identity_fixes_everything(bp):
    fixed = scanned_fixed_vertices(bp, bp.identity, 2)
    assert len(fixed) == len(tree_ball(bp, 2))


def test_stabilizers_at_radius_one(bp):
    """g fixes a distance-1 vertex r d^e (base) iff r^-1 g r lies in the
    associated subgroup on the matching side."""
    for w in tree_ball(bp, 1)[1:]:
        r, ((_, sign, _),) = w
        member = bp._across["d"][sign]
        for code in range(bp.size):
            expected = bp.mul(bp.mul(bp.inv(r), code), r) in member
            assert fixes_vertex(bp, (code, ()), w) == expected


def test_centralizing_elements_preserve_fixed_sets(bp):
    """If [g, u] = 1 then u permutes the fixed vertices of g."""
    g = bp.base_element(G, G)
    ball3 = set(tree_ball(bp, 3))
    fixed = scanned_fixed_vertices(bp, g, 2)
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
            moved = canonical_vertex(bp, word_mul(bp, u.word, word))
            if moved in ball3:
                assert fixes_vertex(bp, g.word, moved)
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
    in the same order; the identity fixes the whole ball, as the walk by
    normal forms lists it."""
    pres = make(symmetric_group(degree))
    ball = [w for w, _ in _reference_walk(pres, radius)]
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
        assert any(stable_letter_count(w) >= 2 for w in scan)
        assert fixed_vertices(bp, bp.encode(g, g), 3) == scan


def test_cc_search_small_cases():
    z2 = symmetric_group(2)
    rep = cc_witness_search_b1(z2, 0)
    assert rep.verdict == "some" and rep.counterexample.is_identity()
    assert cc_witness_search_b1(S3, 0).verdict == "none"
    rep = cc_witness_search_b1(S3, 1)
    assert rep.verdict == "none"
    assert rep.checks == (
        "no commuting-conjugates witness among 13 Bass-Serre vertices within distance 1,"
        " checked on 3 (G x G)-orbits",
    )
    # the radius-3 ball over Sym(3) has 1,597 vertices
    with pytest.raises(BudgetExceededError):
        cc_witness_search_b1(S3, 3, budget=1000)


def counting_check_cc(monkeypatch):
    """Patch the search's ``check_cc`` to count its calls."""
    calls = []

    def counted(H, t):
        calls.append(t)
        return check_cc(H, t)

    monkeypatch.setattr(hnn, "check_cc", counted)
    return calls


def orbit_of(pres, word):
    """The (G x G)-orbit of the vertex with this word, by word arithmetic:
    the vertex words of g w for every base code g."""
    return {canonical_vertex(pres, word_mul(pres, (g, ()), word)) for g in range(pres.size)}


ORBIT_CASES = [(2, 4), (3, 3), (4, 2)]


@pytest.mark.parametrize("degree, radius", ORBIT_CASES)
def test_orbit_walk_partitions_the_ball(degree, radius):
    """Every ball vertex lies in the orbit of exactly one representative,
    each representative is the least vertex of its orbit in ``tree_ball``
    order, and the orbit sizes at each distance add up to that sphere."""
    pres = binate_presentation(symmetric_group(degree))
    ball = tree_ball(pres, radius)
    position = {w: i for i, w in enumerate(ball)}
    covered = set()
    sphere = [0] * (radius + 1)
    for word, dist, _ in hnn._orbit_walk(pres, radius):
        orbit = orbit_of(pres, word)
        assert not orbit & covered
        covered |= orbit
        assert min(position[u] for u in orbit) == position[word]
        assert stable_letter_count(word) == dist
        sphere[dist] += len(orbit)
    assert covered == set(position)
    assert sphere == [sum(1 for w in ball if stable_letter_count(w) == d) for d in range(radius + 1)]


@pytest.mark.parametrize("degree, radius", ORBIT_CASES)
def test_orbit_walk_carries_the_conjugated_stabilizer(degree, radius):
    """A representative w carries the codes w^-1 g w for the base codes g
    that fix it (``fixes_vertex``), and G x G at the base."""
    pres = binate_presentation(symmetric_group(degree))
    for word, _, C in hnn._orbit_walk(pres, radius):
        wi = word_inv(pres, word)
        expected = {
            word_mul(pres, word_mul(pres, wi, (g, ())), word)[0]
            for g in range(pres.size)
            if fixes_vertex(pres, (g, ()), word)
        }
        assert set(range(pres.size) if C is None else C) == expected
        if C is not None:
            assert len(C) == len(expected) <= pres.n


@pytest.mark.parametrize(
    "degree, radius, counts",
    [
        (2, 4, [1, 2, 4, 10, 28]),
        (3, 4, [1, 2, 9, 52, 482]),
        (4, 2, [1, 2, 29]),
        (4, 3, [1, 2, 29, 324]),
    ],
)
def test_orbit_walk_counts_per_distance(degree, radius, counts):
    pres = binate_presentation(symmetric_group(degree))
    found = [0] * (radius + 1)
    for _, dist, _ in hnn._orbit_walk(pres, radius):
        found[dist] += 1
    assert found == counts


def ball_search(pres, max_letters, ok):
    """The first vertex of ``tree_ball`` order that passes ``ok``, or
    None: the vertex walk that the orbit walk replaced, as its oracle."""
    minus = pres.minus_subgroup()
    for w in tree_ball(pres, max_letters):
        if ok(minus, BrittonElement._trusted(pres, w)):
            return w
    return None


@pytest.mark.parametrize("degree, max_letters", [(1, 2), (2, 0), (2, 3), (3, 2)])
def test_orbit_search_finds_the_ball_walks_first_witness(degree, max_letters):
    pres = binate_presentation(symmetric_group(degree))
    first = ball_search(pres, max_letters, lambda H, t: check_cc(H, t).ok)
    rep = cc_witness_search_b1(symmetric_group(degree), max_letters)
    if first is None:
        assert rep.verdict == "none"
    else:
        assert rep.verdict == "some" and rep.counterexample.word == first
    if degree == 2:
        assert first == (pres.identity_code, ()) and rep.counterexample.is_identity()


@pytest.mark.parametrize("target", [5, 40, 100, 144])
def test_orbit_search_first_witness_for_an_orbit_invariant_condition(monkeypatch, target):
    """With a condition that holds on exactly one orbit of the radius-2
    ball over Sym(3), the search returns the ball walk's first witness,
    with the same word."""
    pres = binate_presentation(S3)
    orbit = orbit_of(pres, tree_ball(pres, 2)[target])

    def on_orbit(H, t):
        return canonical_vertex(pres, t.word) in orbit

    first = ball_search(pres, 2, on_orbit)
    monkeypatch.setattr(
        hnn, "check_cc", lambda H, t: PropertyReport("pass" if on_orbit(H, t) else "fail")
    )
    rep = cc_witness_search_b1(S3, 2)
    assert rep.verdict == "some" and rep.counterexample.word == first


@pytest.mark.parametrize("degree, max_letters, orbits", [(3, 3, 64), (4, 2, 32)])
def test_orbit_search_checks_each_orbit_once(monkeypatch, degree, max_letters, orbits):
    calls = counting_check_cc(monkeypatch)
    rep = cc_witness_search_b1(symmetric_group(degree), max_letters)
    assert rep.verdict == "none" and len(calls) == orbits
    assert rep.checks[0].endswith(f", checked on {orbits} (G x G)-orbits")


def test_orbit_search_budget_is_checked_before_any_check(monkeypatch):
    """The radius-3 ball over Sym(3) has 1,597 vertices: a budget of 1000
    refuses it before the first check, and a budget of 1597 admits it."""
    calls = counting_check_cc(monkeypatch)
    with pytest.raises(BudgetExceededError, match="^more than 1000 Bass-Serre vertices"):
        cc_witness_search_b1(S3, 3, budget=1000)
    assert calls == []
    assert cc_witness_search_b1(S3, 3, budget=1597).verdict == "none"


def test_orbit_search_refuses_a_radius_over_its_limit_before_any_check(monkeypatch):
    """The orbit walk has no radius gate of its own: the search refuses a
    radius over ``MAX_TREE_RADIUS`` through ``tree_ball_size``, before the
    first check."""
    calls = counting_check_cc(monkeypatch)
    limit = f"^tree radius budget is {hnn.MAX_TREE_RADIUS}$"
    with pytest.raises(BudgetExceededError, match=limit):
        cc_witness_search_b1(S3, hnn.MAX_TREE_RADIUS + 1)
    assert calls == []


def _landing(pres, max_letters):
    """Each reduced word with at most max_letters stable letters, with
    the ball vertex it lands on."""
    ball = set(tree_ball(pres, max_letters))
    for w in iter_reduced_words(pres, max_letters):
        v = canonical_vertex(pres, w)
        assert v in ball and stable_letter_count(v) == stable_letter_count(w)
        yield w, v


@pytest.mark.parametrize("degree, max_letters", [(2, 2), (3, 1)])
def test_cc_verdict_of_a_word_is_that_of_its_vertex(degree, max_letters):
    """The word search that the vertex search replaced, as its oracle."""
    pres = binate_presentation(symmetric_group(degree))
    minus = pres.minus_subgroup()
    for w, v in _landing(pres, max_letters):
        on_word = check_cc(minus, BrittonElement(pres, w)).ok
        assert on_word == check_cc(minus, BrittonElement(pres, v)).ok


def test_two_letter_words_cover_the_sym3_ball(bp):
    hit = {v for _, v in _landing(bp, 2)}
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
