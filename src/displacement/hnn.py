"""HNN extensions over a square base: Britton reduction, normal forms,
Bass-Serre vertex queries and bounded refutation searches.

Two presentations are materialized over a finite base group G:

  * the one-letter tower  ``<G x G, d | d (1,g) d^-1 = (g,g)>``
  * the two-letter mitosis ``<G x G, s, d | s (g,1) s^-1 = (1,g),
                                            d (1,g) d^-1 = (g,g)>``

Each stable letter x carries associated subgroups A_x, B_x, images of
two embeddings of G into G x G that one table defines per letter, and
the isomorphism phi_x: A_x -> B_x with x a x^-1 = phi_x(a).  The
map ``_across[x][sign]`` and the coset methods ``split`` and
``transversal`` take the signed letter x^sign that the caller holds,
for the subgroup S that x^sign moves across: S = B_x for sign +1 and
A_x for sign -1.  ``_across[x][sign]`` has one key per member c of S,
|G| in all, and maps it to x^-sign c x^sign on the far side (phi_x^-1
or phi_x), so ``c in _across[x][sign]`` is the membership test.  Words
are alternating sequences b0 x1^e1 b1 ... xm^em bm; a ``BrittonElement``
reduces its word once, and its products and inverses come reduced.
G is enumerated once and G x G is encoded as integers, so every base
operation is a lookup.  The product table of G is composed a row at a
time, on first use, from image tuples: no structure of a presentation
has |G|^2 entries until every row has been read, and a check that
multiplies by a few elements composes a few rows.

Britton reduction is one left-to-right pass that pushes the stable
letters onto a stack, each tested against the top: a pinch pops the
top and merges its base letters into the new top, which the next letter
is tested against.  The stack never holds a pinch, so the pass removes
the leftmost pinch first, the word it returns is the one that
rescanning after every pinch would return, and its cost is linear in
the word's length.  A word of fewer than two stable letters has no
pinch site, so it comes back as it stands, on the stack pass and the
random-order path alike; so does a word in which the random-order
path's first scan finds no pinch site.  Either way the letters come
back as a tuple.  ``word_mul`` pushes v's letters onto u's, so the
product of reduced words pinches only at the seam.  Normal forms of
reduced words come in closed form: every associated subgroup S is 1 x G,
G x 1 or the diagonal, so b = r c splits with c = S(g), for g the
coordinate of b that S's first flag picks, and r = b c^-1 is the least
code of b S, with the base letter x^-sign c x^sign that c becomes on the
far side of x^sign read from ``_across``.  A Bass-Serre vertex is its
normal-form word, ending in the identity base letter, with one stable
letter per step of distance.

Bass-Serre vertex queries: ``tree_ball`` lists the vertices within a
radius, and ``fixed_vertices`` the ones a base element g fixes.  The
latter descends from the base vertex through fixed vertices only, each
carrying w^-1 g w as a base code, so a child costs a few table lookups.
``fixes_vertex`` tests one vertex by word arithmetic, as an independent
oracle.  ``cc_witness_search_b1`` walks one vertex per (G x G)-orbit of
the ball instead, each carrying its stabilizer by the same rule.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .checkers import check_cc
from .core import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ContextMismatchError,
    FgSubgroup,
    PropertyReport,
    enumerate_subgroup,
)

# a word is (base, letters) with letters a tuple of (name, sign, base)
Word = Tuple[object, Tuple[Tuple[str, int, object], ...]]

# Each stable letter x conjugates one embedding of G into G x G onto
# another, x A(g) x^-1 = B(g).  An embedding is written as the pair of
# flags saying which coordinates carry g; the others carry 1.
_EMBEDDINGS = {
    "d": ((False, True), (True, True)),  # d (1,g) d^-1 = (g,g)
    "s": ((True, False), (False, True)),  # s (g,1) s^-1 = (1,g)
}


# the largest base group G a presentation is built over: all of its
# product table, |G|^2 entries, is composed once every row has been read
MAX_BASE_ORDER = 10**3


class _ProductRows(dict):
    """The product table of G, each row composed on first use: row a
    holds at b the index of a * b, whose images are p[q[i]] for p and q
    the image tuples of a and b (``Permutation.__mul__``'s formula), and
    column b's ``itemgetter`` maps p to them.  With one index (degree 1)
    an ``itemgetter`` returns the image itself, not a 1-tuple, so ``_at``
    keys each element by what column 0, the identity's getter, returns."""

    __slots__ = ("_images", "_columns", "_at")

    def __init__(self, images: List[tuple]):
        super().__init__()
        self._images = images
        self._columns = columns = [itemgetter(*q) for q in images]
        self._at = dict(zip(map(columns[0], images), range(len(images))))

    def __missing__(self, a: int) -> List[int]:
        p, at = self._images[a], self._at
        self[a] = row = [at[column(p)] for column in self._columns]
        return row


class FiniteHnnPresentation:
    """HNN/mitosis presentation over a finite permutation group G.

    Base letters are integers encoding pairs (a, b) in G x G as
    a*|G| + b, with inverses and the associated isomorphisms precomputed
    as tables, and products read from rows composed on first use.
    Raises BudgetExceededError, after
    enumerating at most ``MAX_BASE_ORDER`` elements and before any table
    is built, when G is larger."""

    def __init__(self, base: FgSubgroup, letters: Sequence[str], label: str):
        if base.context is None:
            raise ValueError("base group needs a context")
        try:
            elems = enumerate_subgroup([base.context.identity, *base.generators], MAX_BASE_ORDER)
        except BudgetExceededError:
            limit = f"base group larger than budget {MAX_BASE_ORDER}"
            raise BudgetExceededError(limit) from None
        # the identity's images (0, 1, ...) sort first, so its index and
        # code are 0, the least code of every coset that ``split`` returns
        elems.sort(key=lambda p: p.images)
        n = len(elems)
        index = {g: i for i, g in enumerate(elems)}

        self.group = base
        self.group_elems = elems
        self.n = n
        self.size = n * n
        self.identity_code = 0
        self.letters = tuple(letters)
        self.label = label
        self._index = index
        self._gmul = _ProductRows([g.images for g in elems])
        self._ginv = [index[a.inverse()] for a in elems]

        # _across[x][sign] maps each c = S(g), and only those |G| codes,
        # to x^-sign c x^sign, the code of g in the far subgroup
        self._across: Dict[str, Dict[int, Dict[int, int]]] = {}
        for x in letters:
            if x not in _EMBEDDINGS:
                raise ValueError(f"unknown stable letter {x!r}")
            across = {1: {}, -1: {}}
            for g in range(n):
                a_code, b_code = self._embed(x, -1, g), self._embed(x, 1, g)
                across[-1][a_code] = b_code
                across[1][b_code] = a_code
            self._across[x] = across

    def _embed(self, x: str, sign: int, g: int) -> int:
        """The code of S(g), for the subgroup S that x^sign moves across:
        g in each coordinate whose embedding flag is set, 1 in the other."""
        first, second = _EMBEDDINGS[x][sign > 0]
        return (g if first else 0) * self.n + (g if second else 0)

    def split(self, x: str, sign: int, b: int) -> Tuple[int, int]:
        """(r, c) with b = r c, c in the subgroup S that x^sign moves
        across and r the least code of the coset b S.  With g the first
        coordinate of b if S's first flag is set, else the second, c = S(g)
        makes that coordinate of r = b c^-1 the identity, code 0: then r's
        first coordinate is 0, or S = 1 x G fixes it across b S."""
        n = self.n
        c = self._embed(x, sign, b // n if _EMBEDDINGS[x][sign > 0][0] else b % n)
        return self.mul(b, self.inv(c)), c

    def transversal(self, x: str, sign: int) -> range:
        """The least codes of the left cosets of S, in increasing order:
        (1, b) when S's first flag is set, else (a, 1)."""
        n = self.n
        return range(n) if _EMBEDDINGS[x][sign > 0][0] else range(0, n * n, n)

    # -- base group arithmetic on codes --------------------------------

    def encode(self, a, b) -> int:
        return self._index[a] * self.n + self._index[b]

    def decode(self, code: int):
        return self.group_elems[code // self.n], self.group_elems[code % self.n]

    def mul(self, a: int, b: int) -> int:
        n = self.n
        return self._gmul[a // n][b // n] * n + self._gmul[a % n][b % n]

    def inv(self, a: int) -> int:
        n = self.n
        return self._ginv[a // n] * n + self._ginv[a % n]

    # -- element interface ---------------------------------------------

    @property
    def identity(self) -> "BrittonElement":
        return BrittonElement(self, (self.identity_code, ()))

    def base_element(self, a, b) -> "BrittonElement":
        return BrittonElement(self, (self.encode(a, b), ()))

    def stable_letter(self, x: str) -> "BrittonElement":
        if x not in self.letters:
            raise ValueError(f"no stable letter {x!r}")
        e = self.identity_code
        return BrittonElement(self, (e, ((x, 1, e),)))

    def minus_subgroup(self) -> FgSubgroup:
        """Gamma_- = Gamma x {1}, generated by the base group's generators."""
        e = self.group.context.identity
        return FgSubgroup(
            f"{self.group.label}-",
            [self.base_element(g, e) for g in self.group.generators],
            context=self,
        )

    def __repr__(self):
        return self.label


# -- word algorithms ----------------------------------------------------


def _pinch_sites(pres, letters) -> List[int]:
    sites = []
    for i in range(len(letters) - 1):
        x1, e1, b1 = letters[i]
        x2, e2, _ = letters[i + 1]
        if x1 == x2 and e1 == -e2 and b1 in pres._across[x1][-e1]:
            sites.append(i)
    return sites


def _push_letters(pres, b0: int, stack: List, letters) -> int:
    """Push ``letters`` in turn onto ``stack``, the pinch-free letters of
    a word b0 stack..., and return the word's new first base letter.

    Each letter is tested against the top: a pinch x a x^-1 (a in A_x)
    or x^-1 b x (b in B_x) pops the top, and the merged base letter goes
    to the new top, which the next letter is tested against.  The stack
    never holds a pinch, so this removes the leftmost pinch first, in
    one pass.  Products are ``pres.mul``'s, read from the rows inline."""
    gmul, n, across = pres._gmul, pres.n, pres._across
    top = stack[-1] if stack else None
    for letter in letters:
        if top is not None and top[0] == letter[0] and top[1] == -letter[1]:
            x, f, c = top
            mid = across[x][-f].get(c)
            if mid is not None:
                stack.pop()
                d = letter[2]
                m1, m2 = gmul[mid // n][d // n], gmul[mid % n][d % n]
                if stack:
                    y, g, b = stack[-1]
                    top = stack[-1] = (y, g, gmul[b // n][m1] * n + gmul[b % n][m2])
                else:
                    b0 = gmul[b0 // n][m1] * n + gmul[b0 % n][m2]
                    top = None
                continue
        stack.append(letter)
        top = letter
    return b0


def britton_reduce(pres, word: Word, rng=None) -> Word:
    """Britton reduction: remove pinches x a x^-1 (a in A_x) and
    x^-1 b x (b in B_x) until none remain, leftmost first, in one stack
    pass.  ``rng`` instead pinches at a random site each time (the
    confluence check of ``britton-engine``); the result is always equal
    to the input in the group.  A word with fewer than two stable
    letters, or with no pinch site under ``rng``, is returned as it
    stands, with its letters as a tuple."""
    b0, letters = word
    if len(letters) < 2:
        return word if type(letters) is tuple else (b0, tuple(letters))
    if rng is None:
        stack: List = []
        b0 = _push_letters(pres, b0, stack, letters)
        return (b0, tuple(stack))
    sites = _pinch_sites(pres, letters)
    if not sites:
        return word if type(letters) is tuple else (b0, tuple(letters))
    letters = list(letters)
    while sites:
        i = sites[rng.randrange(len(sites))]
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
        sites = _pinch_sites(pres, letters)
    return (b0, tuple(letters))


def is_reduced(pres, word: Word) -> bool:
    return not _pinch_sites(pres, word[1])


def word_mul(pres, u: Word, v: Word) -> Word:
    """The reduced product of a reduced word u and a word v: v's letters
    are pushed onto u's, so for a reduced v pinches happen only at the
    seam."""
    b0u, lu = u
    b0v, lv = v
    gmul, n = pres._gmul, pres.n
    stack = list(lu)
    if stack:
        x, e, b = stack[-1]
        stack[-1] = (x, e, gmul[b // n][b0v // n] * n + gmul[b % n][b0v % n])
        b0 = b0u
    else:
        b0 = gmul[b0u // n][b0v // n] * n + gmul[b0u % n][b0v % n]
    b0 = _push_letters(pres, b0, stack, lv)
    return (b0, tuple(stack))


def word_inv(pres, u: Word) -> Word:
    """bm^-1 xm^-em ... b1^-1 x1^-e1 b0^-1 for u = b0 x1^e1 b1 ... xm^em bm:
    each letter xj^ej, preceded by b(j-1), becomes xj^-ej followed by
    b(j-1)^-1, with ``pres.inv`` read from ``_ginv`` inline."""
    b0, letters = u
    ginv, n = pres._ginv, pres.n
    inverted = []
    for x, e, b in letters:
        inverted.append((x, -e, ginv[b0 // n] * n + ginv[b0 % n]))
        b0 = b
    inverted.reverse()
    return (ginv[b0 // n] * n + ginv[b0 % n], tuple(inverted))


def is_identity(pres, word: Word) -> bool:
    """Britton's lemma: w = 1 iff its reduced form has no stable letters
    and a trivial base letter."""
    b0, letters = britton_reduce(pres, word)
    return not letters and b0 == pres.identity_code


def stable_letter_count(word: Word) -> int:
    return len(word[1])


def normal_form(pres, word: Word) -> Word:
    """The normal form of any word: ``reduced_normal_form`` of its
    Britton reduction.  Canonical: two words are equal in the group iff
    their normal forms coincide."""
    return reduced_normal_form(pres, britton_reduce(pres, word))


def reduced_normal_form(pres, word: Word) -> Word:
    """The normal form of a Britton-reduced word: every base letter
    (except the last) rewritten to its left-coset transversal
    representative r, where it is r c (``split``), and the subgroup part
    c pushed rightwards through the next stable letter (``_across``).

    ``split``'s arithmetic runs inline, on the coordinates (b1, b2) of b:
    c = S(g) for g = b1 if S's first flag is set, else b2, and r = b c^-1
    is (1, b2 g^-1) or (b1, 1) for S the diagonal or 1 x G, and (1, b2)
    for S = G x 1."""
    b, letters = word
    if not letters:
        return word
    gmul, ginv, n, across = pres._gmul, pres._ginv, pres.n, pres._across
    bases = []
    for x, e, nxt in letters:
        first, second = _EMBEDDINGS[x][e > 0]
        b1, b2 = divmod(b, n)
        g = b1 if first else b2
        bases.append((0 if first else b1 * n) + (gmul[b2][ginv[g]] if second else b2))
        far = across[x][e][(g * n if first else 0) + (g if second else 0)]
        b = gmul[far // n][nxt // n] * n + gmul[far % n][nxt % n]
    return (
        bases[0],
        tuple([(x, e, r) for (x, e, _), r in zip(letters, bases[1:] + [b])]),
    )


class BrittonElement:
    """Group element of an HNN presentation: a Britton-reduced word,
    equal and hashed by its normal form."""

    __slots__ = ("context", "word", "_canon")

    def __init__(self, context, word: Word):
        self.context = context
        self.word = britton_reduce(context, word)
        self._canon = None

    @classmethod
    def _trusted(cls, context, word: Word) -> "BrittonElement":
        """The element of this word, which must already be Britton-reduced:
        for closed operations (product, inverse) and tree vertex words."""
        x = object.__new__(cls)
        x.context = context
        x.word = word
        x._canon = None
        return x

    def _canonical(self) -> Word:
        if self._canon is None:
            self._canon = reduced_normal_form(self.context, self.word)
        return self._canon

    def __mul__(self, other: "BrittonElement") -> "BrittonElement":
        if not isinstance(other, BrittonElement):
            return NotImplemented
        if self.context != other.context:
            raise ContextMismatchError("words over different presentations")
        return BrittonElement._trusted(
            self.context, word_mul(self.context, self.word, other.word)
        )

    def inverse(self) -> "BrittonElement":
        return BrittonElement._trusted(self.context, word_inv(self.context, self.word))

    def is_identity(self) -> bool:
        # Britton's lemma on the stored reduced word
        b0, letters = self.word
        return not letters and b0 == self.context.identity_code

    def __eq__(self, other):
        if not isinstance(other, BrittonElement):
            return NotImplemented
        if self.context != other.context:
            return False
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash((id(self.context), self._canonical()))

    def __repr__(self):
        b0, letters = self.word
        parts = [f"{b0!r}"]
        for x, e, b in letters:
            parts.append(x if e == 1 else x + "^-1")
            parts.append(f"{b!r}")
        return "w[" + " ".join(parts) + "]"


def binate_presentation(base: FgSubgroup) -> FiniteHnnPresentation:
    """b(G) = <G x G, d | d (1,g) d^-1 = (g,g)> for finite G."""
    return FiniteHnnPresentation(base, ("d",), f"b({base.label})")


def mitosis_presentation(base: FgSubgroup) -> FiniteHnnPresentation:
    """m(G) = <G x G, s, d | s (g,1) s^-1 = (1,g), d (1,g) d^-1 = (g,g)>."""
    return FiniteHnnPresentation(base, ("d", "s"), f"m({base.label})")


# -- Bass-Serre tree ----------------------------------------------------

MAX_TREE_RADIUS = 4


def tree_ball(pres: FiniteHnnPresentation, radius: int) -> List[Word]:
    """All vertices within the given distance of the base vertex, as
    their normal-form words, in breadth-first order with deterministic
    child ordering (stable letter, sign, transversal index)."""
    if radius > MAX_TREE_RADIUS:
        raise BudgetExceededError(f"tree radius budget is {MAX_TREE_RADIUS}")
    ball = frontier = [(pres.identity_code, ())]
    for _ in range(radius):
        frontier = [child for w in frontier for *_, child in _children(pres, w)]
        ball = ball + frontier
    return ball


def tree_ball_size(pres: FiniteHnnPresentation, radius: int) -> int:
    """``len(tree_ball(pres, radius))`` from the tree's degree k: one edge
    per left coset of each signed letter's subgroup S, of order |G| in
    G x G, so k = 2 |letters| |G|, and the ball has
    1 + k((k-1)^r - 1)/(k-2) vertices, or 2r + 1 if k = 2."""
    if radius > MAX_TREE_RADIUS:
        raise BudgetExceededError(f"tree radius budget is {MAX_TREE_RADIUS}")
    k = 2 * len(pres.letters) * pres.n
    return 1 + k * sum((k - 1) ** i for i in range(radius))


def _children(pres: FiniteHnnPresentation, word: Word):
    """The children of the vertex w (base) with word ``word``, in walk
    order, each as (x, sign, r, child word): the vertices w r x^sign
    (base) for r in the transversal of the subgroup x^sign starts from,
    already in normal form, except r = 1 after a last letter x^-sign: it
    pinches, and leads back to w's parent."""
    e = pres.identity_code
    b0, letters = word
    if letters:
        head, (y, ey, _) = letters[:-1], letters[-1]
    for x in pres.letters:
        for sign in (1, -1):
            step = (x, sign, e)
            pinch = letters and (y, ey) == (x, -sign)
            for r in pres.transversal(x, sign):
                if pinch and r == e:
                    continue
                if letters:
                    child = (b0, head + ((y, ey, r), step))
                else:
                    child = (r, (step,))
                yield x, sign, r, child


def _orbit_walk(
    pres: FiniteHnnPresentation, radius: int
) -> Iterator[Tuple[Word, int, Optional[List[int]]]]:
    """One vertex of each (G x G)-orbit within ``radius``: the least of
    its orbit in ``tree_ball`` order, yielded in that order as (word,
    distance, C) with C = w^-1 Stab(w) w, the codes that w's stabilizer
    in G x G conjugates to (None at the base, standing for G x G).

    G x G fixes the base vertex, so an orbit at distance k + 1 is an
    orbit of the children of one representative w under Stab(w), whose
    element w c w^-1 sends the child w r x^sign (base) to w c r x^sign
    (base) and fixes w's parent.  A child leads its orbit when no
    earlier child lies in it, and carries x^-sign (r^-1 c r) x^sign for
    each c in C that fixes it, the rule of ``fixed_vertices``: that is
    ``_across`` at the part in S of c r (``split``).  At the base, G x G
    is transitive on the children x^sign (base), so the first of them
    leads and carries the whole associated subgroup on the far side of
    x^sign; below the base, C has at most |G| codes."""
    if radius > MAX_TREE_RADIUS:
        raise BudgetExceededError(f"tree radius budget is {MAX_TREE_RADIUS}")
    base = (pres.identity_code, ())
    yield base, 0, None
    mul = pres.mul
    frontier = [(base, None)]
    for dist in range(1, radius + 1):
        nxt = []
        for word, C in frontier:
            seen = set()
            for x, sign, r, child in _children(pres, word):
                if (x, sign, r) in seen:
                    continue
                if C is None:
                    seen.update((x, sign, s) for s in pres.transversal(x, sign))
                    carried = [pres._embed(x, -sign, g) for g in range(pres.n)]
                else:
                    across = pres._across[x][sign]
                    carried = []
                    for c in C:
                        rep, part = pres.split(x, sign, mul(c, r))
                        if rep == r:
                            carried.append(across[part])
                        else:
                            seen.add((x, sign, rep))
                yield child, dist, carried
                nxt.append((child, carried))
        frontier = nxt


def fixed_vertices(
    pres: FiniteHnnPresentation, code: int, radius: int
) -> List[Word]:
    """The vertices within ``radius`` that the base element g with code
    ``code`` fixes, in ``tree_ball`` order.

    The fixed set of a tree automorphism is a subtree, and a base
    element fixes the base vertex, so the walk descends only through
    fixed vertices.  A fixed vertex w carries c = w^-1 g w in the base
    group.  Its child u = w r x^sign is fixed iff u^-1 g u =
    x^-sign a x^sign, with a = r^-1 c r, lies in the base group, that is
    (Britton's lemma) iff a lies in the subgroup S of x^sign; then u
    carries x^-sign a x^sign, which ``_across`` holds."""
    if radius > MAX_TREE_RADIUS:
        raise BudgetExceededError(f"tree radius budget is {MAX_TREE_RADIUS}")
    base = (pres.identity_code, ())
    fixed = [base]
    frontier = [(base, code)]
    for _ in range(radius):
        nxt = []
        for word, c in frontier:
            for x, sign, r, child in _children(pres, word):
                a = pres.mul(pres.mul(pres.inv(r), c), r)
                carried = pres._across[x][sign].get(a)
                if carried is not None:
                    fixed.append(child)
                    nxt.append((child, carried))
        frontier = nxt
    return fixed


def fixes_vertex(pres: FiniteHnnPresentation, g: Word, w: Word) -> bool:
    """g fixes the vertex wB iff w^-1 g w lies in the base group."""
    prod = word_mul(pres, word_mul(pres, word_inv(pres, w), g), w)
    return stable_letter_count(prod) == 0


# -- bounded searches and mitosis data ----------------------------------


def iter_reduced_words(pres: FiniteHnnPresentation, max_letters: int):
    """All Britton-reduced words with at most max_letters stable letters,
    base letters ranging over the whole of G x G, in canonical order
    (letter count, then lexicographic)."""
    N = pres.size
    for m in range(max_letters + 1):
        if m == 0:
            for b0 in range(N):
                yield (b0, ())
            continue
        letter_choices = [(x, s) for x in pres.letters for s in (1, -1)]
        for shape in itertools.product(letter_choices, repeat=m):
            for bases in itertools.product(range(N), repeat=m + 1):
                letters = tuple(
                    (shape[i][0], shape[i][1], bases[i + 1]) for i in range(m)
                )
                word = (bases[0], letters)
                if m < 2 or is_reduced(pres, word):  # a pinch needs two letters
                    yield word


def cc_witness_search_b1(
    base: FgSubgroup, max_letters: int, budget: int = DEFAULT_BUDGET
) -> PropertyReport:
    """Bounded refutation of commuting conjugates at tower level one.

    A reduced word with m stable letters lands on a Bass-Serre vertex at
    distance m, and [G_-, t G_- t^-1] = 1 depends only on t's vertex
    t (G x G).  G_- is normal in G x G, so for g in G x G the condition
    at g t equals the one at t conjugated by g: it depends only on the
    (G x G)-orbit of the vertex.  So ``check_cc`` runs on one vertex of
    each orbit within distance max_letters, the least of its orbit in
    ``tree_ball`` order (``_orbit_walk``), and the first witness is the
    first one the ball would give.  Reports "some" with that witness and
    the number of its orbit in walk order, or "none" naming the vertices
    covered and the orbits checked.  Raises BudgetExceededError, before
    any check, when the ball holds more than ``budget`` vertices."""
    pres = binate_presentation(base)
    covered = tree_ball_size(pres, max_letters)
    if covered > budget:
        raise BudgetExceededError(
            f"more than {budget} Bass-Serre vertices within distance {max_letters}"
        )
    minus = pres.minus_subgroup()
    orbits = 0
    for word, dist, _ in _orbit_walk(pres, max_letters):
        orbits += 1
        t = BrittonElement._trusted(pres, word)
        if check_cc(minus, t).ok:
            found = f"witness on (G x G)-orbit {orbits} of Bass-Serre vertices, distance {dist}"
            return PropertyReport("some", (found,), t)
    return PropertyReport(
        "none",
        (
            f"no commuting-conjugates witness among {covered} Bass-Serre vertices"
            f" within distance {max_letters}, checked on {orbits} (G x G)-orbits",
        ),
    )


def mitosis_data(base: FgSubgroup):
    """G_- of m(G) together with the stable letters s and d, built from
    one presentation.  The mitosis pair is (s, d*s)."""
    pres = mitosis_presentation(base)
    return pres.minus_subgroup(), pres.stable_letter("s"), pres.stable_letter("d")
