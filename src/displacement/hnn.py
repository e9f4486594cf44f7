"""HNN towers over a square base: Britton reduction, normal forms,
Bass-Serre vertex queries and bounded refutation searches.

Two presentations are materialized over a base group G:

  * the one-letter tower  ``<G x G, d | d (1,g) d^-1 = (g,g)>``
  * the two-letter mitosis ``<G x G, s, d | s (g,1) s^-1 = (1,g),
                                            d (1,g) d^-1 = (g,g)>``

Each stable letter x carries associated subgroups A_x, B_x and an
isomorphism phi_x: A_x -> B_x with the relation x a x^-1 = phi_x(a).
Words are alternating sequences b0 x1^e1 b1 ... xm^em bm.  For finite G
the base G x G is enumerated once and encoded as integers, which makes
reduction fast enough for exhaustive searches; for iterated towers
(whose base is a pair of words) the same algorithms run on generic
elements.
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
        self.e_small = e
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
            in_A = [False] * N
            in_B = [False] * N
            phi = [-1] * N
            phi_inv = [-1] * N
            for g in range(n):
                if x == "d":
                    a_code = e * n + g  # (1, g)
                    b_code = g * n + g  # (g, g)
                elif x == "s":
                    a_code = g * n + e  # (g, 1)
                    b_code = e * n + g  # (1, g)
                else:
                    raise ValueError(f"unknown stable letter {x!r}")
                in_A[a_code] = True
                in_B[b_code] = True
                phi[a_code] = b_code
                phi_inv[b_code] = a_code
            self._in_A[x] = in_A
            self._in_B[x] = in_B
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

    def mul(self, a: ProductElement, b: ProductElement) -> ProductElement:
        return a * b

    def inv(self, a: ProductElement) -> ProductElement:
        return a.inverse()

    def is_base_identity(self, a: ProductElement) -> bool:
        return a.is_identity()

    def in_A(self, x: str, b: ProductElement) -> bool:
        if x == "d":
            return b.a.is_identity()
        if x == "s":
            return b.b.is_identity()
        raise ValueError(f"unknown stable letter {x!r}")

    def in_B(self, x: str, b: ProductElement) -> bool:
        if x == "d":
            return b.a == b.b
        if x == "s":
            return b.a.is_identity()
        raise ValueError(f"unknown stable letter {x!r}")

    def phi(self, x: str, b: ProductElement) -> ProductElement:
        if x == "d":  # (1, g) -> (g, g)
            return self.pair.pair(b.b, b.b)
        if x == "s":  # (g, 1) -> (1, g)
            return self.pair.pair(self.inner.identity, b.a)
        raise ValueError(f"unknown stable letter {x!r}")

    def phi_inv(self, x: str, b: ProductElement) -> ProductElement:
        if x == "d":  # (g, g) -> (1, g)
            return self.pair.pair(self.inner.identity, b.b)
        if x == "s":  # (1, g) -> (g, 1)
            return self.pair.pair(b.b, self.inner.identity)
        raise ValueError(f"unknown stable letter {x!r}")

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
    if not letters:
        return (pres.inv(b0), ())
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

    def _canonical(self) -> Word:
        if self._canon is None:
            self._canon = normal_form(self.context, self.word)
        return self._canon

    def __mul__(self, other: "BrittonElement") -> "BrittonElement":
        if not isinstance(other, BrittonElement):
            return NotImplemented
        if self.context != other.context:
            raise ContextMismatchError("words over different presentations")
        return BrittonElement(self.context, word_mul(self.context, self.word, other.word))

    def inverse(self) -> "BrittonElement":
        return BrittonElement(self.context, word_inv(self.context, self.word))

    def is_identity(self) -> bool:
        return is_identity(self.context, self.word)

    def __eq__(self, other):
        if not isinstance(other, BrittonElement):
            return NotImplemented
        if self.context != other.context:
            return False
        if self.context.has_transversals:
            return self._canonical() == other._canonical()
        return is_identity(
            self.context, word_mul(self.context, self.word, word_inv(self.context, other.word))
        )

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

BASE_VERTEX_LABEL = ("base",)


def canonical_vertex(pres: FiniteHnnPresentation, word: Word) -> tuple:
    """Canonical label of the coset w * (base group): the normal form of
    w with its trailing base letter dropped."""
    b0, letters = normal_form(pres, word)
    if not letters:
        return BASE_VERTEX_LABEL
    items: List[object] = [b0]
    for x, e, b in letters[:-1]:
        items.append((x, e))
        items.append(b)
    x, e, _ = letters[-1]
    items.append((x, e))
    return tuple(items)


@dataclass(frozen=True)
class Vertex:
    """A vertex of the Bass-Serre tree: a coset of the base group,
    carried by its canonical representative word."""

    label: tuple
    word: Word
    distance: int

    def __repr__(self):
        return f"Vertex(d={self.distance}, {self.label!r})"


def tree_ball(pres: FiniteHnnPresentation, radius: int) -> List[Vertex]:
    """All vertices within the given distance of the base vertex, in
    breadth-first order with deterministic child ordering (stable
    letter, sign, transversal index)."""
    return list(_walk_tree(pres, radius))


def _walk_tree(pres: FiniteHnnPresentation, radius: int) -> Iterator[Vertex]:
    """The vertices of ``tree_ball(pres, radius)``, yielded in its order
    as the walk reaches them."""
    if radius > MAX_TREE_RADIUS:
        raise BudgetExceededError(f"tree radius budget is {MAX_TREE_RADIUS}")
    e = pres.identity_code
    base = Vertex(BASE_VERTEX_LABEL, (e, ()), 0)
    seen = {base.label}
    yield base
    frontier = [base]
    for dist in range(1, radius + 1):
        nxt = []
        for v in frontier:
            b0, letters = v.word
            for x in pres.letters:
                for sign in (1, -1):
                    side = "B" if sign == 1 else "A"
                    for r in pres._transversal[(side, x)]:
                        if letters:
                            ls = list(letters)
                            xa, ea, ba = ls[-1]
                            ls[-1] = (xa, ea, pres.mul(ba, r))
                            cand = (b0, tuple(ls) + ((x, sign, e),))
                        else:
                            cand = (pres.mul(b0, r), ((x, sign, e),))
                        label = canonical_vertex(pres, cand)
                        if label in seen:
                            continue
                        seen.add(label)
                        # rebuild the representative word from the label
                        vert = Vertex(label, _vertex_word(pres, label), dist)
                        yield vert
                        nxt.append(vert)
        frontier = nxt


def _vertex_word(pres: FiniteHnnPresentation, label: tuple) -> Word:
    if label == BASE_VERTEX_LABEL:
        return (pres.identity_code, ())
    b0 = label[0]
    letters = []
    rest = label[1:]
    for i in range(0, len(rest), 2):
        x, e = rest[i]
        b = rest[i + 1] if i + 1 < len(rest) else pres.identity_code
        letters.append((x, e, b))
    return (b0, tuple(letters))


def fixes_vertex(pres: FiniteHnnPresentation, g: Word, v: Vertex) -> bool:
    """g fixes the coset wB iff w^-1 g w lies in the base group."""
    wi = word_inv(pres, v.word)
    prod = word_mul(pres, word_mul(pres, wi, g), v.word)
    return stable_letter_count(britton_reduce(pres, prod)) == 0


def bass_serre_fixed_vertices(
    pres: FiniteHnnPresentation, g: "BrittonElement", radius: int
) -> List[Vertex]:
    """All vertices within the given radius of the base vertex that are
    fixed by g, in breadth-first order."""
    word = g.word if isinstance(g, BrittonElement) else g
    return [v for v in tree_ball(pres, radius) if fixes_vertex(pres, word, v)]


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
        t = BrittonElement(pres, v.word)
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
