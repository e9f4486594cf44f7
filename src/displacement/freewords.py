"""Free groups as freely reduced words.

A word is a tuple of nonzero signed generator indices (1-based); +i is
the i-th generator, -i its inverse.  Canonical form is the freely
reduced word, so equality is word equality.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .core import ContextMismatchError, FgSubgroup


class FreeGroupContext:
    """The free group of a fixed finite rank, one object per rank."""

    _cache: dict = {}

    def __new__(cls, rank: int):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if rank not in cls._cache:
            obj = super().__new__(cls)
            obj.rank = rank
            cls._cache[rank] = obj
        return cls._cache[rank]

    def __repr__(self):
        return f"F{self.rank}"

    @property
    def identity(self) -> "FreeWord":
        return FreeWord(self, ())

    def generator(self, i: int) -> "FreeWord":
        if not 1 <= i <= self.rank:
            raise ValueError(f"no generator {i} in rank {self.rank}")
        return FreeWord(self, (i,))


def _reduce(letters: Sequence[int]) -> Tuple[int, ...]:
    out: list = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class FreeWord:
    """A freely reduced word in a free group."""

    __slots__ = ("context", "letters")

    def __init__(self, context: FreeGroupContext, letters: Sequence[int]):
        for x in letters:
            if x == 0 or abs(x) > context.rank:
                raise ValueError(f"letter {x} out of range for rank {context.rank}")
        self.context = context
        self.letters = _reduce(letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        if self.context != other.context:
            raise ContextMismatchError("words in free groups of different ranks")
        return FreeWord(self.context, self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(self.context, tuple(-x for x in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other):
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self.context == other.context and self.letters == other.letters

    def __hash__(self):
        return hash((self.context.rank, self.letters))

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        if not self.letters:
            return "1"
        return ".".join(f"x{x}" if x > 0 else f"x{-x}^-1" for x in self.letters)


def free_group(rank: int) -> FgSubgroup:
    """F_rank as a subgroup of itself on the standard generators."""
    ctx = FreeGroupContext(rank)
    return FgSubgroup(f"F{rank}", [ctx.generator(i) for i in range(1, rank + 1)])
