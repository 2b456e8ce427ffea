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
but distinct key) would go through it.  The Letter NamedTuple is the public
type at the boundary: Word(...), .letters, edge_letter, single, reduce,
in_past, letters_of_rank, RewriteRule and chains.kernel_for_letter take or
give Letters, converted by letter_code or a cache indexed by code, so no
Letter is allocated per lookup; a spec's tables take codes only.

Words serialize as '.'-joined tokens "s1", "s2^-1", ...; the identity is "e".
"""

from __future__ import annotations

import re
from functools import cache, partial
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetError, DomainError, InputError

DEFAULT_BALL_BUDGET = 500_000


class Letter(NamedTuple):
    gen: int
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    @property
    def name(self) -> str:
        return f"s{self.gen + 1}" if self.sign > 0 else f"s{self.gen + 1}^-1"

    def sort_key(self):
        return (self.gen, 0 if self.sign > 0 else 1)


def letter_code(l: Letter) -> int:
    """The int a Word stores for the letter: 2 gen, plus 1 for an inverse.
    Raises InputError for anything but a Letter with an int (not bool) gen >= 0 and sign +-1."""
    if not (isinstance(l, Letter) and type(l.gen) is int and l.gen >= 0 and l.sign in (1, -1)):
        raise InputError(f"not a letter: {l!r}")
    return 2 * l.gen + (l.sign < 0)


_letter = cache(lambda c: Letter(c >> 1, -1 if c & 1 else 1))  # code -> Letter
_name = cache(lambda c: _letter(c).name)  # code -> token


def letters_of_rank(rank: int) -> tuple[Letter, ...]:
    """All 2*rank letters in the canonical order s1, s1^-1, s2, ..."""
    return tuple(map(_letter, range(2 * rank)))


class Word(tuple):
    """An immutable reduced word of letter codes; the empty word is the identity.

    Word(letters) takes Letters and checks reducedness; .letters gives them back."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[Letter] = ()):
        return tuple.__new__(cls, map(letter_code, letters))

    def __init__(self, letters: Iterable[Letter] = ()):
        for a, b in zip(self, self[1:]):
            if a ^ b == 1:
                raise InputError(f"word not reduced at {_name(a)}.{_name(b)}")

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(map(_letter, self))

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

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


@cache
def single(letter: Letter) -> Word:
    """The one-letter word, built once per letter."""
    return Word((letter,))


def _is_word(w, n: float = float("inf")) -> bool:
    """Whether w is a tuple of letter codes, ints in [0, n), with no code next to its inverse."""
    codes = isinstance(w, tuple) and all(type(c) is int and 0 <= c < n for c in w)
    return codes and all(a ^ b != 1 for a, b in zip(w, w[1:]))


def reduce(seq: Iterable[Letter]) -> Word:
    """Free reduction of an arbitrary letter sequence (stack-based)."""
    stack: list[int] = []
    for c in map(letter_code, seq):
        if stack and stack[-1] ^ c == 1:
            stack.pop()
        else:
            stack.append(c)
    return _word(stack)


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


def edge_letter(g: Word) -> Letter:
    """The letter l with g = l.parent(g), i.e. the label of the tree edge above g."""
    if not g:
        raise InputError("identity has no incoming tree edge")
    return _letter(g[0])


def in_past(g: Word, s: Letter) -> bool:
    """True iff g is a nonempty reduced word whose rightmost letter is s."""
    return bool(g) and g[-1] == letter_code(s)


def ball(rank: int, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> "LeftConnectedSet":
    """All reduced words of length <= radius, as a LeftConnectedSet, built in
    canonical order: each sphere loops over the first letter, then the shorter sphere."""
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (rank, radius, budget)):
        raise InputError(f"rank, radius, budget must be ints: {rank!r}, {radius!r}, {budget!r}")
    if rank < 1 or radius < 0:
        raise InputError("rank must be >= 1 and radius >= 0")
    size, sphere, r = 1, 2 * rank, 0  # counted sphere by sphere until past the budget
    while r < radius and size <= budget:
        size, sphere, r = size + sphere, sphere * (2 * rank - 1), r + 1
    if size > budget:
        raise BudgetError(f"ball of radius {radius} at rank {rank} exceeds budget {budget}")
    out, frontier = [IDENTITY], [IDENTITY]
    for _ in range(radius):
        frontier = [
            _word((c,) + h) for c in range(2 * rank) for h in frontier if not h or h[0] != c ^ 1
        ]
        out.extend(frontier)
    return LeftConnectedSet._canonical(out)


class LeftConnectedSet:
    """A finite left-connected set of words containing the identity.

    Because connected subsets of a tree contain the geodesic between any two
    of their points, such a set is exactly a parent-closed set; validation
    and canonical (length, lexicographic) ordering both rely on this.  Each
    element is a reduced tuple of letter codes, a Word or a plain tuple;
    anything else raises InputError.
    """

    __slots__ = ("words", "_index")

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
        for w in ordered[1:]:
            if parent(w) not in index:
                raise DomainError(f"set is not left-connected: {w} lacks its parent")
        object.__setattr__(self, "words", tuple(ordered))
        object.__setattr__(self, "_index", index)

    @classmethod
    def _canonical(cls, ordered: Sequence[Word]) -> "LeftConnectedSet":
        """The set of words already in canonical order and parent-closed, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "words", tuple(ordered))
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(ordered)})
        return self

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
    letters = []
    for token in text.split("."):
        m = _TOKEN.match(token)
        if not m:
            raise InputError(f"bad word token {token!r}")
        letters.append(Letter(int(m.group(1)) - 1, -1 if m.group(2) else 1))
    return Word(letters)  # raises on unreduced input
