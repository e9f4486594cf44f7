"""HNN towers over a square base: Britton reduction, normal forms,
Bass-Serre vertex queries and bounded refutation searches.

Two presentations are materialized over a base group G:

  * the one-letter tower  ``<G x G, d | d (1,g) d^-1 = (g,g)>``
  * the two-letter mitosis ``<G x G, s, d | s (g,1) s^-1 = (1,g),
                                            d (1,g) d^-1 = (g,g)>``

Each stable letter x carries associated subgroups A_x, B_x, images of
two embeddings of G into G x G that one table defines per letter, and
the isomorphism phi_x: A_x -> B_x with x a x^-1 = phi_x(a).  Words are
alternating sequences b0 x1^e1 b1 ... xm^em bm; a ``BrittonElement``
reduces its word once, and its products and inverses come reduced.
For finite G the base G x G is enumerated once and encoded as integers,
which makes reduction fast enough for exhaustive searches; for iterated
towers (whose base is a pair of words) the same algorithms run on
generic elements.  A Bass-Serre vertex is its normal-form word, ending
in the identity base letter, with one stable letter per step of distance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from .checkers import check_cc, check_mitotic
from .core import (
    BudgetExceededError,
    ContextMismatchError,
    FgSubgroup,
    ProductContext,
    ProductElement,
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


def _embeddings(x: str):
    """The embeddings (A, B) of stable letter x."""
    if x not in _EMBEDDINGS:
        raise ValueError(f"unknown stable letter {x!r}")
    return _EMBEDDINGS[x]


def _embed(pattern, g, one) -> tuple:
    return tuple(g if carries else one for carries in pattern)


def _carried(pattern, pair: ProductElement):
    """The g of a pair in the image of the embedding."""
    return pair.b if pattern[1] else pair.a


class FiniteHnnPresentation:
    """HNN/mitosis presentation over a finite permutation group G.

    Base letters are integers encoding pairs (a, b) in G x G as
    a*|G| + b, with all products, inverses, subgroup memberships and
    associated isomorphisms precomputed as tables."""

    def __init__(self, base: FgSubgroup, letters: Sequence[str], label: str):
        if base.context is None:
            raise ValueError("base group needs a context")
        elems = sorted(enumerate_subgroup(list(base.generators)), key=lambda p: p.images)
        n = len(elems)
        index = {g: i for i, g in enumerate(elems)}
        gmul = [[index[a * b] for b in elems] for a in elems]
        ginv = [index[a.inverse()] for a in elems]
        e = index[base.context.identity]

        self.group = base
        self.group_elems = elems
        self.n = n
        self.size = n * n
        self.identity_code = e * n + e
        self.letters = tuple(letters)
        self.label = label
        self._gmul = gmul
        self._ginv = ginv

        N = self.size
        self._in_A: Dict[str, List[bool]] = {}
        self._in_B: Dict[str, List[bool]] = {}
        self._phi: Dict[str, List[int]] = {}
        self._phi_inv: Dict[str, List[int]] = {}
        for x in letters:
            A, B = _embeddings(x)
            phi = [-1] * N
            phi_inv = [-1] * N
            for g in range(n):
                (a1, a2), (b1, b2) = _embed(A, g, e), _embed(B, g, e)
                a_code, b_code = a1 * n + a2, b1 * n + b2
                phi[a_code] = b_code
                phi_inv[b_code] = a_code
            # A_x and B_x are the domains of phi_x and of its inverse
            self._in_A[x] = [c != -1 for c in phi]
            self._in_B[x] = [c != -1 for c in phi_inv]
            self._phi[x] = phi
            self._phi_inv[x] = phi_inv

        # left coset transversals (minimal-index representatives) for
        # every associated subgroup, used by normal forms and the tree.
        # In an ascending sweep the first code of each coset b*S is its
        # minimum, so it becomes the representative of the whole coset.
        self._index = index
        self._coset_rep: Dict[Tuple[str, str], List[int]] = {}
        self._transversal: Dict[Tuple[str, str], List[int]] = {}
        for x in letters:
            for side, member in (("A", self._in_A[x]), ("B", self._in_B[x])):
                sub = [c for c in range(N) if member[c]]
                rep = [-1] * N
                reps = []
                for b in range(N):
                    if rep[b] == -1:
                        reps.append(b)
                        for c in sub:
                            rep[self.mul(b, c)] = b
                self._coset_rep[(side, x)] = rep
                self._transversal[(side, x)] = reps

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

    def is_base_identity(self, a: int) -> bool:
        return a == self.identity_code

    def in_A(self, x: str, b: int) -> bool:
        return self._in_A[x][b]

    def in_B(self, x: str, b: int) -> bool:
        return self._in_B[x][b]

    def phi(self, x: str, b: int) -> int:
        return self._phi[x][b]

    def phi_inv(self, x: str, b: int) -> int:
        return self._phi_inv[x][b]

    has_transversals = True

    def decompose(self, side: str, x: str, b: int) -> Tuple[int, int]:
        """b = r * c with c in the subgroup and r its left-coset rep."""
        r = self._coset_rep[(side, x)][b]
        c = self.mul(self.inv(r), b)
        return r, c

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


class ElementHnnPresentation:
    """The same presentations with base G x G built from arbitrary group
    elements (used for iterated towers where G is itself an HNN group).
    No transversals: equality of words falls back on Britton's lemma."""

    def __init__(self, inner_context, letters: Sequence[str], label: str):
        self.inner = inner_context
        self.pair = ProductContext(inner_context, inner_context)
        self.letters = tuple(letters)
        self.label = label
        self._embeddings = {x: _embeddings(x) for x in letters}

    def mul(self, a: ProductElement, b: ProductElement) -> ProductElement:
        return a * b

    def inv(self, a: ProductElement) -> ProductElement:
        return a.inverse()

    def is_base_identity(self, a: ProductElement) -> bool:
        return a.is_identity()

    def _image(self, pattern, g) -> ProductElement:
        return self.pair.pair(*_embed(pattern, g, self.inner.identity))

    def _in_image(self, pattern, b: ProductElement) -> bool:
        return b == self._image(pattern, _carried(pattern, b))

    def in_A(self, x: str, b: ProductElement) -> bool:
        return self._in_image(self._embeddings[x][0], b)

    def in_B(self, x: str, b: ProductElement) -> bool:
        return self._in_image(self._embeddings[x][1], b)

    def phi(self, x: str, b: ProductElement) -> ProductElement:
        A, B = self._embeddings[x]
        return self._image(B, _carried(A, b))

    def phi_inv(self, x: str, b: ProductElement) -> ProductElement:
        A, B = self._embeddings[x]
        return self._image(A, _carried(B, b))

    has_transversals = False

    @property
    def identity(self) -> "BrittonElement":
        return BrittonElement(self, (self.pair.identity, ()))

    def base_element(self, a, b) -> "BrittonElement":
        return BrittonElement(self, (self.pair.pair(a, b), ()))

    def stable_letter(self, x: str) -> "BrittonElement":
        if x not in self.letters:
            raise ValueError(f"no stable letter {x!r}")
        e = self.pair.identity
        return BrittonElement(self, (e, ((x, 1, e),)))

    def __repr__(self):
        return self.label


# -- word algorithms (generic over either presentation kind) -----------


def _pinch_sites(pres, letters) -> List[int]:
    sites = []
    for i in range(len(letters) - 1):
        x1, e1, b1 = letters[i]
        x2, e2, _ = letters[i + 1]
        if x1 != x2 or e1 != -e2:
            continue
        if e1 == 1 and pres.in_A(x1, b1):
            sites.append(i)
        elif e1 == -1 and pres.in_B(x1, b1):
            sites.append(i)
    return sites


def britton_reduce(pres, word: Word, rng=None) -> Word:
    """Britton reduction: remove pinches x a x^-1 (a in A_x) and
    x^-1 b x (b in B_x) until none remain.  ``rng`` randomizes the pinch
    order (used by the confluence tests); the result is always equal to
    the input in the group, and the default order is deterministic."""
    b0, letters = word
    letters = list(letters)
    while True:
        sites = _pinch_sites(pres, letters)
        if not sites:
            break
        i = sites[0] if rng is None else sites[rng.randrange(len(sites))]
        x1, e1, b1 = letters[i]
        _, _, b2 = letters[i + 1]
        mid = pres.phi(x1, b1) if e1 == 1 else pres.phi_inv(x1, b1)
        merged = pres.mul(mid, b2)
        if i == 0:
            b0 = pres.mul(b0, merged)
        else:
            xp, ep, bp = letters[i - 1]
            letters[i - 1] = (xp, ep, pres.mul(bp, merged))
        del letters[i : i + 2]
    return (b0, tuple(letters))


def is_reduced(pres, word: Word) -> bool:
    return not _pinch_sites(pres, word[1])


def word_mul(pres, u: Word, v: Word) -> Word:
    """Concatenation followed by reduction."""
    b0u, lu = u
    b0v, lv = v
    if not lu:
        return britton_reduce(pres, (pres.mul(b0u, b0v), lv))
    lu = list(lu)
    x, e, b = lu[-1]
    lu[-1] = (x, e, pres.mul(b, b0v))
    return britton_reduce(pres, (b0u, tuple(lu) + lv))


def word_inv(pres, u: Word) -> Word:
    b0, letters = u
    bases = [b0] + [b for _, _, b in letters]
    new_b0 = pres.inv(bases[-1])
    new_letters = []
    for j in range(len(letters) - 1, -1, -1):
        x, e, _ = letters[j]
        new_letters.append((x, -e, pres.inv(bases[j])))
    return (new_b0, tuple(new_letters))


def is_identity(pres, word: Word) -> bool:
    """Britton's lemma: w = 1 iff its reduced form has no stable letters
    and a trivial base letter."""
    b0, letters = britton_reduce(pres, word)
    return not letters and pres.is_base_identity(b0)


def stable_letter_count(word: Word) -> int:
    return len(word[1])


def normal_form(pres, word: Word) -> Word:
    """Britton-reduced word with every base letter (except the last)
    rewritten to its left-coset transversal representative, pushing the
    subgroup part rightwards through the next stable letter.  Canonical:
    two words are equal in the group iff their normal forms coincide."""
    if not pres.has_transversals:
        raise ValueError("normal form needs a finite base with transversals")
    b0, letters = britton_reduce(pres, word)
    letters = list(letters)
    bases = [b0] + [b for _, _, b in letters]
    for i, (x, e, _) in enumerate(letters):
        side = "B" if e == 1 else "A"
        r, c = pres.decompose(side, x, bases[i])
        bases[i] = r
        pushed = pres.phi_inv(x, c) if e == 1 else pres.phi(x, c)
        bases[i + 1] = pres.mul(pushed, bases[i + 1])
    return (
        bases[0],
        tuple((x, e, bases[i + 1]) for i, (x, e, _) in enumerate(letters)),
    )


class BrittonElement:
    """Group element of an HNN presentation, canonical by normal form
    (finite base) or compared via Britton's lemma (tower stages)."""

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
            self._canon = normal_form(self.context, self.word)
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
        return not letters and self.context.is_base_identity(b0)

    def __eq__(self, other):
        if not isinstance(other, BrittonElement):
            return NotImplemented
        if self.context != other.context:
            return False
        if self.context.has_transversals:
            return self._canonical() == other._canonical()
        return (self * other.inverse()).is_identity()

    def __hash__(self):
        if self.context.has_transversals:
            return hash((id(self.context), self._canonical()))
        return hash((id(self.context), stable_letter_count(self.word)))

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


def canonical_vertex(pres: FiniteHnnPresentation, word: Word) -> Word:
    """The representative word of the coset w * (base group): the normal
    form of w with its last base letter set to the identity.  Two words
    lie in the same coset iff their representatives coincide."""
    b0, letters = normal_form(pres, word)
    e = pres.identity_code
    if not letters:
        return (e, ())
    x, sign, _ = letters[-1]
    return (b0, letters[:-1] + ((x, sign, e),))


@dataclass(frozen=True)
class Vertex:
    """A vertex of the Bass-Serre tree: a coset of the base group,
    carried by its representative word (see ``canonical_vertex``), whose
    stable letter count is its distance from the base vertex."""

    word: Word
    distance: int


def tree_ball(pres: FiniteHnnPresentation, radius: int) -> List[Vertex]:
    """All vertices within the given distance of the base vertex, in
    breadth-first order with deterministic child ordering (stable
    letter, sign, transversal index)."""
    return list(_walk_tree(pres, radius))


def _walk_tree(pres: FiniteHnnPresentation, radius: int) -> Iterator[Vertex]:
    """The vertices of ``tree_ball(pres, radius)``, yielded in its order
    as the walk reaches them.  The children of w (base) are w r x^sign
    (base) for r in the transversal of the subgroup x^sign starts from,
    already in normal form, except the one r that pinches against a last
    letter x^-sign: it leads back to w's parent."""
    if radius > MAX_TREE_RADIUS:
        raise BudgetExceededError(f"tree radius budget is {MAX_TREE_RADIUS}")
    e = pres.identity_code
    base = Vertex((e, ()), 0)
    yield base
    frontier = [base]
    for dist in range(1, radius + 1):
        nxt = []
        for v in frontier:
            b0, letters = v.word
            for x in pres.letters:
                for sign in (1, -1):
                    side = "B" if sign == 1 else "A"
                    pinch = letters and letters[-1][:2] == (x, -sign)
                    back = pres._coset_rep[(side, x)][e] if pinch else None
                    for r in pres._transversal[(side, x)]:
                        if r == back:
                            continue
                        if letters:
                            y, ey, _ = letters[-1]
                            word = (b0, letters[:-1] + ((y, ey, r), (x, sign, e)))
                        else:
                            word = (r, ((x, sign, e),))
                        vert = Vertex(word, dist)
                        yield vert
                        nxt.append(vert)
        frontier = nxt


def fixes_vertex(pres: FiniteHnnPresentation, g: Word, v: Vertex) -> bool:
    """g fixes the coset wB iff w^-1 g w lies in the base group."""
    wi = word_inv(pres, v.word)
    prod = word_mul(pres, word_mul(pres, wi, g), v.word)
    return stable_letter_count(prod) == 0


def bass_serre_fixed_vertices(
    pres: FiniteHnnPresentation, g: "BrittonElement", radius: int
) -> List[Vertex]:
    """All vertices within the given radius of the base vertex that are
    fixed by g, in breadth-first order."""
    return [v for v in tree_ball(pres, radius) if fixes_vertex(pres, g.word, v)]


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
                if is_reduced(pres, word):
                    yield word


def cc_witness_search_b1(
    base: FgSubgroup, max_letters: int, budget: int = 10**7
) -> PropertyReport:
    """Bounded refutation of commuting conjugates at tower level one.

    [G_-, t G_- t^-1] = 1 depends only on the coset t (G x G), because
    G_- is normal in G x G, and a reduced word with m stable letters
    lands on a Bass-Serre vertex at distance m.  So every vertex within
    distance max_letters is checked with ``check_cc``, in ``tree_ball``
    order.  Reports "some" with the first witness, or "none" naming the
    vertices searched; raises BudgetExceededError rather than visit more
    than ``budget`` vertices."""
    pres = binate_presentation(base)
    minus = pres.minus_subgroup()
    desc = f"commuting-conjugates search in {pres.label}"
    visited = 0
    for v in _walk_tree(pres, max_letters):
        if visited == budget:
            raise BudgetExceededError(
                f"more than {budget} Bass-Serre vertices within distance {max_letters}"
            )
        visited += 1
        t = BrittonElement._trusted(pres, v.word)
        if check_cc(minus, t).ok:
            found = f"witness at Bass-Serre vertex {visited}, distance {v.distance}"
            return PropertyReport(desc, "some", (found,), t)
    return PropertyReport(
        desc,
        "none",
        (
            f"no commuting-conjugates witness among {visited} Bass-Serre vertices"
            f" within distance {max_letters}",
        ),
    )


def mitosis_data(base: FgSubgroup, budget: int = 10**3):
    """G_- of m(G) together with the stable letters s and d, built from
    one presentation.  The mitosis pair is (s, d*s).  Raises
    BudgetExceededError when G has more than ``budget`` elements."""
    if len(enumerate_subgroup(list(base.generators))) > budget:
        raise BudgetExceededError(f"base group larger than budget {budget}")
    pres = mitosis_presentation(base)
    return pres.minus_subgroup(), pres.stable_letter("s"), pres.stable_letter("d")


def mitosis_check(base: FgSubgroup, budget: int = 10**3) -> PropertyReport:
    """Verify the mitosis data of m(G) by normal forms: s-conjugates of
    G_- commute with G_-, and d*s realizes h |-> h * (s h s^-1) on every
    generator."""
    minus, s, d = mitosis_data(base, budget)
    return check_mitotic(minus, s, d * s)


# -- iterated binate tower ----------------------------------------------

MAX_TOWER_STAGES = 3


class BinateTower:
    """Stages b^1(G), b^2(G), ... over a finite G.  Stage 1 uses the fast
    finite-base presentation; later stages build on pairs of stage-(i-1)
    words."""

    def __init__(self, base: FgSubgroup, stages: int):
        if not 1 <= stages <= MAX_TOWER_STAGES:
            raise BudgetExceededError(f"stage budget is {MAX_TOWER_STAGES}")
        self.base = base
        self.presentations: List[object] = [binate_presentation(base)]
        for i in range(1, stages):
            self.presentations.append(
                ElementHnnPresentation(
                    self.presentations[i - 1],
                    ("d",),
                    f"b^{i + 1}({base.label})",
                )
            )

    def presentation(self, stage: int):
        return self.presentations[stage - 1]


def b_tower_embed(x, tower: BinateTower, stage: int):
    """The embedding of a stage-``stage`` element into stage+1 as the
    base letter (x, 1)."""
    pres_next = tower.presentation(stage + 1)
    if stage == 0:
        pres1 = tower.presentation(1)
        return pres1.base_element(x, tower.base.context.identity)
    inner = tower.presentation(stage)
    if x.context != inner:
        raise ContextMismatchError("element does not live at the stated stage")
    return pres_next.base_element(x, inner.identity)
