"""HNN extensions over a square base: Britton reduction, normal forms,
Bass-Serre vertex queries and bounded refutation searches.

Two presentations are materialized over a finite base group G:

  * the one-letter tower  ``<G x G, d | d (1,g) d^-1 = (g,g)>``
  * the two-letter mitosis ``<G x G, s, d | s (g,1) s^-1 = (1,g),
                                            d (1,g) d^-1 = (g,g)>``

Each stable letter x carries associated subgroups A_x, B_x, images of
two embeddings of G into G x G that one table defines per letter, and
the isomorphism phi_x: A_x -> B_x with x a x^-1 = phi_x(a).  Words are
alternating sequences b0 x1^e1 b1 ... xm^em bm; a ``BrittonElement``
reduces its word once, and its products and inverses come reduced.
G is enumerated once, its product table composed from image tuples, and
G x G is encoded as integers, so every base operation is a lookup.

Britton reduction is one left-to-right pass that pushes the stable
letters onto a stack, each tested against the top: a pinch pops the
top and merges its base letters into the new top, which the next letter
is tested against.  The stack never holds a pinch, so the pass removes
the leftmost pinch first, the word it returns is the one that
rescanning after every pinch would return, and its cost is linear in
the word's length.  ``word_mul`` pushes v's letters onto u's, so the
product of reduced words pinches only at the seam.  Normal forms of
reduced words come from tables: the sweep that picks each coset's
representative r records, for each b = r c (read off the product rows
of b's coordinates), the base letter that c becomes on the far side of
the stable letter.  A Bass-Serre vertex is its normal-form word, ending
in the identity base letter, with one stable letter per step of distance.

Bass-Serre vertex queries: ``tree_ball`` lists the vertices within a
radius, and ``fixed_vertices`` the ones a base element g fixes.  The
latter descends from the base vertex through fixed vertices only, each
carrying w^-1 g w as a base code, so a child costs a few table lookups.
``fixes_vertex`` tests one vertex by word arithmetic, as an independent
oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from .checkers import check_cc
from .core import (
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


# the largest base group G a presentation is built over: its tables
# are indexed by the |G|^2 elements of G x G
MAX_BASE_ORDER = 10**3


class FiniteHnnPresentation:
    """HNN/mitosis presentation over a finite permutation group G.

    Base letters are integers encoding pairs (a, b) in G x G as
    a*|G| + b, with all products, inverses, subgroup memberships and
    associated isomorphisms precomputed as tables.  Raises
    BudgetExceededError, after enumerating at most ``MAX_BASE_ORDER``
    elements and before any table is built, when G is larger."""

    def __init__(self, base: FgSubgroup, letters: Sequence[str], label: str):
        if base.context is None:
            raise ValueError("base group needs a context")
        try:
            elems = enumerate_subgroup([base.context.identity, *base.generators], MAX_BASE_ORDER)
        except BudgetExceededError:
            limit = f"base group larger than budget {MAX_BASE_ORDER}"
            raise BudgetExceededError(limit) from None
        elems.sort(key=lambda p: p.images)
        n = len(elems)
        index = {g: i for i, g in enumerate(elems)}
        # a * b has images a.images[b.images[i]] (``Permutation.__mul__``'s
        # formula), composed here on image tuples and indexed by images
        images = [g.images for g in elems]
        at = {p: i for i, p in enumerate(images)}
        gmul = [[at[tuple([p[i] for i in q])] for q in images] for p in images]
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
            if x not in _EMBEDDINGS:
                raise ValueError(f"unknown stable letter {x!r}")
            phi = [-1] * N
            phi_inv = [-1] * N
            for g in range(n):
                # the codes of A(g) and B(g): g where the flag is set, else 1
                a_code, b_code = [(g if p else e) * n + (g if q else e) for p, q in _EMBEDDINGS[x]]
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
        # The same sweep fills the push tables: b*c, with c in the
        # subgroup, gets push[b*c] = phi_x^-1(c) for B_x and phi_x(c) for
        # A_x, the base letter that c becomes on the far side of x^+-1.
        # b*c is read off the product rows of b's two coordinates.
        self._index = index
        self._coset_rep: Dict[Tuple[str, str], List[int]] = {}
        self._push: Dict[Tuple[str, str], List[int]] = {}
        self._transversal: Dict[Tuple[str, str], List[int]] = {}
        for x in letters:
            for side, member, across in (
                ("A", self._in_A[x], self._phi[x]),
                ("B", self._in_B[x], self._phi_inv[x]),
            ):
                sub = [(c // n, c % n, across[c]) for c in range(N) if member[c]]
                rep = [-1] * N
                push = [-1] * N
                reps = []
                for b in range(N):
                    if rep[b] == -1:
                        reps.append(b)
                        row1, row2 = gmul[b // n], gmul[b % n]
                        for c1, c2, pushed in sub:
                            bc = row1[c1] * n + row2[c2]
                            rep[bc] = b
                            push[bc] = pushed
                self._coset_rep[(side, x)] = rep
                self._push[(side, x)] = push
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
        if x1 == x2 and e1 == -e2 and (pres._in_A if e1 == 1 else pres._in_B)[x1][b1]:
            sites.append(i)
    return sites


def _push_letters(pres, b0: int, stack: List, letters) -> int:
    """Push ``letters`` in turn onto ``stack``, the pinch-free letters of
    a word b0 stack..., and return the word's new first base letter.

    Each letter is tested against the top: a pinch x a x^-1 (a in A_x)
    or x^-1 b x (b in B_x) pops the top, and the merged base letter goes
    to the new top, which the next letter is tested against.  The stack
    never holds a pinch, so this removes the leftmost pinch first, in
    one pass."""
    mul = pres.mul
    top = stack[-1] if stack else None
    for letter in letters:
        if top is not None and top[0] == letter[0] and top[1] == -letter[1]:
            x, f, c = top
            mid = (pres._phi if f == 1 else pres._phi_inv)[x][c]
            if mid != -1:
                stack.pop()
                merged = mul(mid, letter[2])
                if stack:
                    y, g, b = stack[-1]
                    top = stack[-1] = (y, g, mul(b, merged))
                else:
                    b0 = mul(b0, merged)
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
    to the input in the group."""
    b0, letters = word
    if rng is None:
        stack: List = []
        b0 = _push_letters(pres, b0, stack, letters)
        return (b0, tuple(stack))
    letters = list(letters)
    while sites := _pinch_sites(pres, letters):
        i = sites[rng.randrange(len(sites))]
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


def is_reduced(pres, word: Word) -> bool:
    return not _pinch_sites(pres, word[1])


def word_mul(pres, u: Word, v: Word) -> Word:
    """The reduced product of a reduced word u and a word v: v's letters
    are pushed onto u's, so for a reduced v pinches happen only at the
    seam."""
    b0u, lu = u
    b0v, lv = v
    stack = list(lu)
    if stack:
        x, e, b = stack[-1]
        stack[-1] = (x, e, pres.mul(b, b0v))
        b0 = b0u
    else:
        b0 = pres.mul(b0u, b0v)
    b0 = _push_letters(pres, b0, stack, lv)
    return (b0, tuple(stack))


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
    representative r, where it is r c, and the subgroup part c pushed
    rightwards through the next stable letter, all by table lookup."""
    b, letters = word
    if not letters:
        return word
    reps, pushes, mul = pres._coset_rep, pres._push, pres.mul
    bases = []
    for x, e, nxt in letters:
        key = ("B", x) if e == 1 else ("A", x)
        bases.append(reps[key][b])
        b = mul(pushes[key][b], nxt)
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


@dataclass(frozen=True)
class Vertex:
    """A vertex of the Bass-Serre tree: a coset of the base group,
    carried by its representative word (the normal form of any word of
    the coset, with its last base letter set to the identity), whose
    stable letter count is its distance from the base vertex."""

    word: Word
    distance: int


def tree_ball(pres: FiniteHnnPresentation, radius: int) -> List[Vertex]:
    """All vertices within the given distance of the base vertex, in
    breadth-first order with deterministic child ordering (stable
    letter, sign, transversal index)."""
    return [Vertex(word, dist) for word, dist in _walk_tree(pres, radius)]


def _children(pres: FiniteHnnPresentation, word: Word):
    """The children of the vertex w (base) with word ``word``, in walk
    order, each as (x, sign, r, child word): the vertices w r x^sign
    (base) for r in the transversal of the subgroup x^sign starts from,
    already in normal form, except the one r that pinches against a
    last letter x^-sign: it leads back to w's parent."""
    e = pres.identity_code
    b0, letters = word
    if letters:
        head, (y, ey, _) = letters[:-1], letters[-1]
    for x in pres.letters:
        for sign in (1, -1):
            side = "B" if sign == 1 else "A"
            step = (x, sign, e)
            pinch = letters and (y, ey) == (x, -sign)
            back = pres._coset_rep[(side, x)][e] if pinch else None
            for r in pres._transversal[(side, x)]:
                if r == back:
                    continue
                if letters:
                    child = (b0, head + ((y, ey, r), step))
                else:
                    child = (r, (step,))
                yield x, sign, r, child


def _walk_tree(pres: FiniteHnnPresentation, radius: int) -> Iterator[Tuple[Word, int]]:
    """The (word, distance) pairs of ``tree_ball(pres, radius)``, yielded
    in its order as the walk reaches them, without building ``Vertex``
    objects."""
    if radius > MAX_TREE_RADIUS:
        raise BudgetExceededError(f"tree radius budget is {MAX_TREE_RADIUS}")
    base = (pres.identity_code, ())
    yield base, 0
    frontier = [base]
    for dist in range(1, radius + 1):
        nxt = []
        for word in frontier:
            for _, _, _, child in _children(pres, word):
                yield child, dist
                nxt.append(child)
        frontier = nxt


def fixed_vertices(
    pres: FiniteHnnPresentation, code: int, radius: int
) -> List[Vertex]:
    """The vertices within ``radius`` that the base element g with code
    ``code`` fixes, in ``tree_ball`` order.

    The fixed set of a tree automorphism is a subtree, and a base
    element fixes the base vertex, so the walk descends only through
    fixed vertices.  A fixed vertex w carries c = w^-1 g w in the base
    group.  Its child u = w r x^sign is fixed iff u^-1 g u =
    x^-sign a x^sign, with a = r^-1 c r, lies in the base group, that is
    (Britton's lemma) iff a lies in B_x for sign +1 or in A_x for
    sign -1; then u carries phi_x^-1(a) or phi_x(a)."""
    if radius > MAX_TREE_RADIUS:
        raise BudgetExceededError(f"tree radius budget is {MAX_TREE_RADIUS}")
    fixed = [Vertex((pres.identity_code, ()), 0)]
    frontier = [(fixed[0].word, code)]
    for dist in range(1, radius + 1):
        nxt = []
        for word, c in frontier:
            for x, sign, r, child in _children(pres, word):
                a = pres.mul(pres.mul(pres.inv(r), c), r)
                carried = pres._phi_inv[x][a] if sign == 1 else pres._phi[x][a]
                if carried != -1:
                    fixed.append(Vertex(child, dist))
                    nxt.append((child, carried))
        frontier = nxt
    return fixed


def fixes_vertex(pres: FiniteHnnPresentation, g: Word, v: Vertex) -> bool:
    """g fixes the coset wB iff w^-1 g w lies in the base group."""
    wi = word_inv(pres, v.word)
    prod = word_mul(pres, word_mul(pres, wi, g), v.word)
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
    visited = 0
    for word, dist in _walk_tree(pres, max_letters):
        if visited == budget:
            raise BudgetExceededError(
                f"more than {budget} Bass-Serre vertices within distance {max_letters}"
            )
        visited += 1
        t = BrittonElement._trusted(pres, word)
        if check_cc(minus, t).ok:
            found = f"witness at Bass-Serre vertex {visited}, distance {dist}"
            return PropertyReport("some", (found,), t)
    return PropertyReport(
        "none",
        (
            f"no commuting-conjugates witness among {visited} Bass-Serre vertices"
            f" within distance {max_letters}",
        ),
    )


def mitosis_data(base: FgSubgroup):
    """G_- of m(G) together with the stable letters s and d, built from
    one presentation.  The mitosis pair is (s, d*s)."""
    pres = mitosis_presentation(base)
    return pres.minus_subgroup(), pres.stable_letter("s"), pres.stable_letter("d")
