"""Alphabets and canonical word enumeration.

Words are plain Python strings over a declared alphabet. The canonical
order used everywhere in the package (quotient representatives, query
table columns, witness searches) is length first, then left-to-right by
the alphabet's declared letter order. Within one length that is exactly
the order in which itertools.product walks the declared letters, so
enumeration is product's C loop with one join per word. Keeping a single
Alphabet object per task avoids re-deriving letter ranks in every loop.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable, Iterable, Iterator

from .errors import StatelabError, UsageError


class Alphabet:
    """An ordered, duplicate-free set of single-character letters."""

    def __init__(self, letters: str):
        if not letters:
            raise StatelabError("alphabet must have at least one letter")
        if len(set(letters)) != len(letters):
            raise StatelabError(f"alphabet has repeated letters: {letters!r}")
        self.letters = letters
        self._rank = {a: i for i, a in enumerate(letters)}

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __contains__(self, letter: str) -> bool:
        return letter in self._rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({self.letters!r})"

    def check_word(self, word: str) -> None:
        """Raise UsageError naming the first letter of word outside the alphabet."""
        # strip leaves nothing exactly when every letter is in the alphabet;
        # the letters are walked only to name the first bad one
        if word.strip(self.letters):
            for ch in word:
                if ch not in self._rank:
                    raise UsageError(f"letter {ch!r} not in alphabet {self.letters!r}")

    def sort_key(self, word: str):
        """Key realizing the canonical length-then-declared-letter order."""
        return (len(word), [self._rank[c] for c in word])

    def words_of_length(self, n: int) -> Iterator[str]:
        """All words of exactly length n, in canonical order."""
        _check_length(n)
        return ("".join(t) for t in product(self.letters, repeat=n))

    def words_up_to(self, n: int) -> Iterator[str]:
        """All words of length <= n, in canonical order."""
        _check_length(n)
        return chain.from_iterable(map(self.words_of_length, range(n + 1)))

    def count_up_to(self, n: int) -> int:
        """|A^{<=n}| without enumerating."""
        _check_length(n)
        base = len(self.letters)
        if base == 1:
            return n + 1
        return (base ** (n + 1) - 1) // (base - 1)


def _check_length(n: int) -> None:
    """Raise for a negative word length; checked once per call, not per word."""
    if n < 0:
        raise StatelabError(f"word length must be nonnegative, got {n}")


def _mask(holds: Callable, items: Iterable) -> int:
    """Bit i set iff holds(items[i]): the one bit layout of every membership
    table row, from quotient signatures and profiles to the fold's state masks."""
    mask = 0
    bit = 1
    for x in items:
        if holds(x):
            mask |= bit
        bit <<= 1
    return mask
