"""Finite permutations, the first concrete realization.

Points are 1-based in the public API (cycle notation) and 0-based
internally.  Canonical form is the image tuple; the printed form is the
cycle decomposition sorted by least moved point.

``Permutation(...)``, and ``from_cycles`` and ``extend`` through it,
check that the images are a bijection; products and inverses are
bijections by construction and skip that check.  There is one
``SymmetricGroupContext`` per degree for as long as anything holds it,
so contexts compare by identity; a context no permutation or subgroup
holds any more is freed with its identity images.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Sequence, Tuple

from .core import ContextMismatchError, FgSubgroup


class SymmetricGroupContext:
    """Ambient Sym(degree), one object per degree while it is held.

    The context keeps the identity's images, and the identity itself
    only by a weak reference, so it is in no reference cycle and is
    freed as soon as the last permutation or subgroup of its degree is."""

    _cache: "weakref.WeakValueDictionary[int, SymmetricGroupContext]" = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, degree: int):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        obj = cls._cache.get(degree)
        if obj is None:
            obj = super().__new__(cls)
            obj.degree = degree
            obj.points = tuple(range(degree))
            obj._identity = None  # a weak reference once built
            cls._cache[degree] = obj
        return obj

    @property
    def identity(self) -> "Permutation":
        """The identity, one object for as long as anything holds it."""
        e = self._identity() if self._identity is not None else None
        if e is None:
            e = Permutation._trusted(self, self.points)
            self._identity = weakref.ref(e)
        return e

    def __repr__(self):
        return f"Sym({self.degree})"


class Permutation:
    """A bijection of {1..degree}, stored as a 0-based image tuple."""

    __slots__ = ("context", "images", "__weakref__")

    def __init__(self, context: SymmetricGroupContext, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(context.degree)):
            raise ValueError(f"not a bijection of degree {context.degree}: {images}")
        self.context = context
        self.images = images

    @classmethod
    def _trusted(
        cls, context: SymmetricGroupContext, images: Tuple[int, ...]
    ) -> "Permutation":
        """The permutation with these images, which must already be a
        bijection.  Only closed operations (product, inverse) call this."""
        p = object.__new__(cls)
        p.context = context
        p.images = images
        return p

    @staticmethod
    def from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from 1-based cycles, e.g. from_cycles(4, [(1, 2), (3, 4)])."""
        images = list(range(degree))
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"repeated point in cycle {cycle}")
            for i, pt in enumerate(cycle):
                if not 1 <= pt <= degree:
                    raise ValueError(f"point {pt} out of range for degree {degree}")
                images[pt - 1] = cycle[(i + 1) % len(cycle)] - 1
        return Permutation(SymmetricGroupContext(degree), images)

    def __call__(self, point: int) -> int:
        """Image of a 1-based point."""
        return self.images[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.context is not other.context:
            raise ContextMismatchError("permutations of different degrees")
        images = self.images
        return Permutation._trusted(self.context, tuple([images[i] for i in other.images]))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for i, j in enumerate(self.images):
            images[j] = i
        return Permutation._trusted(self.context, tuple(images))

    def is_identity(self) -> bool:
        return self.images == self.context.points

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.context is other.context and self.images == other.images

    def __hash__(self):
        return hash((self.context.degree, self.images))

    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """Nontrivial cycles (1-based), each starting at its least point,
        sorted by least moved point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(p + 1 for p in cyc))
        return tuple(out)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)

    def extend(self, degree: int) -> "Permutation":
        """The same permutation inside a larger Sym(degree)."""
        if degree < self.context.degree:
            raise ValueError("cannot shrink a permutation")
        images = self.images + tuple(range(self.context.degree, degree))
        return Permutation(SymmetricGroupContext(degree), images)


def symmetric_group(degree: int) -> FgSubgroup:
    """Sym(degree) as a subgroup of itself, generated by (1 2) and an n-cycle."""
    if degree == 1:
        return FgSubgroup(f"S{degree}", [], context=SymmetricGroupContext(1))
    gens = [Permutation.from_cycles(degree, [(1, 2)])]
    if degree > 2:
        gens.append(Permutation.from_cycles(degree, [tuple(range(1, degree + 1))]))
    return FgSubgroup(f"S{degree}", gens)
