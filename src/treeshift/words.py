"""Reduced words in a finite-rank free group and the left-Cayley tree.

Convention used throughout the package: words are stored leftmost letter
first, and the ambient geometry is the *left*-Cayley graph, whose edges are
(g, s.g) for generators s.  This is the opposite of the common right-Cayley
habit.  Under this convention the neighbor of g on the geodesic to the
identity (the "parent" of g) is obtained by deleting the *leftmost* letter,
and the tree hanging below the vertex s consists of the reduced words whose
*rightmost* letter is s.

A Word is a tuple of int letter codes: s_i is 2i and s_i^-1 is 2i + 1
(generators counted from 0).  The inverse of code c is c ^ 1, and int order
is the canonical letter order s1, s1^-1, s2, ....  Words are built, hashed and
compared for equality as tuples; their canonical order comes only from
Word.sort_key (length first), so sort with key=Word.sort_key.  Word defines no
rich comparison of its own: one defined in Python would give the class a
Python-level compare slot, and every Word == Word (each dict hit on an equal
but distinct key) would go through it.  The code is the one letter type:
Word(...), single, cocycles.RewriteRule and chains.kernel_for_letter take
codes, and one check, _is_word, holds them to ints in [0, 2 rank) by _is_index.
The readable boundary is word_to_str and word_from_str.  A LeftConnectedSet
records each word's parent position, and a ball builds its index on first lookup.

Words serialize as '.'-joined tokens "s1", "s2^-1", ...; the identity is "e".
"""

from __future__ import annotations

import re
from functools import partial
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, DomainError, InputError

DEFAULT_BALL_BUDGET = 500_000


def _name(c) -> str:
    """The token of letter code c, "s1" for 0 and "s1^-1" for 1; repr(c) for anything but a code."""
    if type(c) is not int or c < 0:
        return repr(c)
    return f"s{(c >> 1) + 1}" + "^-1" * (c & 1)


class Word(tuple):
    """An immutable reduced word of letter codes; the empty word is the identity.

    Word(codes) checks the codes and reducedness (_is_word), InputError otherwise."""

    __slots__ = ()

    def __new__(cls, codes: Iterable[int] = ()):
        if not isinstance(codes, Iterable):
            raise InputError(f"a word is built from letter codes, got {codes!r}")
        return tuple.__new__(cls, codes)

    def __init__(self, codes: Iterable[int] = ()):
        if not _is_word(self):
            raise InputError(f"not a reduced word of letter codes: {'.'.join(map(_name, self))}")

    def __invert__(self) -> "Word":
        return inverse(self)

    @property
    def is_identity(self) -> bool:
        return not self

    def sort_key(self):
        """(length, codes): the canonical (length, lexicographic) order."""
        return (len(self), tuple(self))

    def __repr__(self) -> str:
        return f"Word({word_to_str(self)!r})"

    def __str__(self) -> str:
        return word_to_str(self)

    def __reduce__(self):  # pickles and copies rebuild the word from its codes
        return _word, (tuple(self),)


# Word from a tuple of codes without the reducedness check, for tuples reduced by construction
_word = partial(tuple.__new__, Word)

IDENTITY = _word(())


def single(c: int) -> Word:
    """The one-letter word of letter code c."""
    return Word((c,))


def _is_index(i, n: float) -> bool:
    """Whether i is an int index (not a bool) in [0, n)."""
    return type(i) is int and 0 <= i < n


def _is_word(w, n: float = float("inf")) -> bool:
    """Whether w is a tuple of letter codes, ints in [0, n), with no code next to its inverse."""
    codes = isinstance(w, tuple) and all(_is_index(c, n) for c in w)
    return codes and all(a ^ b != 1 for a, b in zip(w, w[1:]))


def _code(c, rank: int) -> int:
    """c, checked to be a letter code of the rank, an int in [0, 2 rank)."""
    if not _is_index(c, 2 * rank):
        raise InputError(f"letter code {c!r} outside rank {rank}")
    return c


def multiply(w1: Word, w2: Word) -> Word:
    """Group product w1.w2; inputs reduced, cancellation happens at the seam."""
    if not (w1 and w2):
        return w1 or w2
    if w1[-1] ^ w2[0] != 1:
        return _word(w1 + w2)
    i, j, n = len(w1), 0, len(w2)
    while i and j < n and w1[i - 1] ^ w2[j] == 1:
        i -= 1
        j += 1
    return _word(w1[:i] + w2[j:])


def inverse(w: Word) -> Word:
    return _word([c ^ 1 for c in reversed(w)])


def parent(g: Word) -> Word:
    """The neighbor of g on the geodesic to the identity (leftmost letter dropped)."""
    if not g:
        raise InputError("identity has no parent")
    return _word(g[1:])


def ball(rank: int, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> "LeftConnectedSet":
    """All reduced words of length <= radius, as a LeftConnectedSet, built in
    canonical order, checked first: each sphere is, for each code c, c times
    the last sphere less its block led by c^-1, so the parent positions are ranges."""
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (rank, radius, budget)):
        raise InputError(f"rank, radius, budget must be ints: {rank!r}, {radius!r}, {budget!r}")
    if rank < 1 or radius < 0:
        raise InputError("rank must be >= 1 and radius >= 0")
    size, sphere, r = 1, 2 * rank, 0  # counted sphere by sphere until past the budget
    while r < radius and size <= budget:
        size, sphere, r = size + sphere, sphere * (2 * rank - 1), r + 1
    if size > budget:
        raise BudgetError(f"ball of radius {radius} at rank {rank} exceeds budget {budget}")
    words, parents, lo = [IDENTITY], [0], 0
    for _ in range(radius):
        hi = len(words)  # the last sphere is words[lo:hi], one block per code (none at e)
        block = (hi - lo) // (2 * rank)
        for c in range(2 * rank):
            cut = lo + (c ^ 1) * block
            for kept in (range(lo, cut), range(cut + block, hi)):
                parents.extend(kept)
                words.extend(map(_word, map((c,).__add__, words[kept.start:kept.stop])))
        lo = hi
    return LeftConnectedSet._canonical(words, parents)


class LeftConnectedSet:
    """A finite left-connected set of words containing the identity.

    Because connected subsets of a tree contain the geodesic between any two
    of their points, such a set is exactly a parent-closed set; validation
    and canonical (length, lexicographic) ordering both rely on this.  Each
    element is a reduced tuple of letter codes, a Word or a plain tuple;
    anything else raises InputError.  words is the set in canonical order,
    _parents each word's parent position in it (0 at e) and _index each
    word's position, which a ball builds on first read.
    """

    __slots__ = ("words", "_parents", "_index")

    def __init__(self, words: Iterable[Word]):
        if not isinstance(words, Iterable):
            raise InputError(f"words must be an iterable, got {words!r}")
        words = list(words)
        for w in words:
            if not _is_word(w):
                raise InputError(f"not a reduced word of letter codes: {w!r}")
        ordered = sorted(set(words), key=Word.sort_key)
        if not ordered or ordered[0]:
            raise DomainError("left-connected set must contain the identity")
        index = {w: i for i, w in enumerate(ordered)}
        parents = [index.get(w[1:]) for w in ordered]  # e[1:] is e, at 0
        if None in parents:
            w = ordered[parents.index(None)]
            raise DomainError(f"set is not left-connected: {w} lacks its parent")
        object.__setattr__(self, "words", tuple(ordered))
        object.__setattr__(self, "_parents", tuple(parents))
        object.__setattr__(self, "_index", index)

    @classmethod
    def _canonical(cls, ordered: Sequence[Word], parents: Sequence[int]) -> "LeftConnectedSet":
        """The set of words already in canonical order with their parent positions, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "words", tuple(ordered))
        object.__setattr__(self, "_parents", tuple(parents))
        return self

    def __getattr__(self, name: str):  # a miss: a ball's index, built on its first read
        if name != "_index":  # copy and pickle probe names such as __deepcopy__
            raise AttributeError(name)
        index = {w: i for i, w in enumerate(self.words)}
        object.__setattr__(self, "_index", index)
        return index

    def __setattr__(self, *a):
        raise AttributeError("LeftConnectedSet is immutable")

    def __contains__(self, w: Word) -> bool:
        return w in self._index

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other) -> bool:
        return isinstance(other, LeftConnectedSet) and self.words == other.words

    def __hash__(self) -> int:
        return hash(self.words)

    def __reduce__(self):
        return LeftConnectedSet, (self.words,)

    def __repr__(self) -> str:
        return f"LeftConnectedSet([{', '.join(str(w) for w in self.words)}])"


_TOKEN = re.compile(r"^s([1-9][0-9]*)(\^-1)?$")


def word_to_str(w: Word) -> str:
    """The word's tokens joined by '.', "e" for the identity; InputError unless
    w is a reduced tuple of letter codes."""
    if not _is_word(w):
        raise InputError(f"not a reduced word of letter codes: {w!r}")
    return ".".join(map(_name, w)) if w else "e"


def word_from_str(text: str) -> Word:
    if not isinstance(text, str):
        raise InputError(f"a word is read from a str, got {text!r}")
    if text == "e":
        return IDENTITY
    codes = []
    for token in text.split("."):
        m = _TOKEN.match(token)
        if not m:
            raise InputError(f"bad word token {token!r}")
        codes.append(2 * (int(m.group(1)) - 1) + bool(m.group(2)))
    return Word(codes)  # raises on unreduced input
