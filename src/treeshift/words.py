"""Reduced words in a finite-rank free group and the left-Cayley tree.

Convention used throughout the package: words are stored leftmost letter
first, and the ambient geometry is the *left*-Cayley graph, whose edges are
(g, s.g) for generators s.  This is the opposite of the common right-Cayley
habit.  Under this convention the neighbor of g on the geodesic to the
identity (the "parent" of g) is obtained by deleting the *leftmost* letter,
and the tree hanging below the vertex s consists of the reduced words whose
*rightmost* letter is s.

Words serialize as '.'-joined tokens "s1", "s2^-1", ...; the identity is "e".
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetError, InputError

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


def letters_of_rank(rank: int) -> tuple[Letter, ...]:
    """All 2*rank letters in the canonical order s1, s1^-1, s2, ..."""
    out = []
    for i in range(rank):
        out.append(Letter(i, 1))
        out.append(Letter(i, -1))
    return tuple(out)


class Word:
    """An immutable reduced word; the empty word is the identity."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Sequence[Letter] = ()):
        letters = tuple(letters)
        for a, b in zip(letters, letters[1:]):
            if a.gen == b.gen and a.sign == -b.sign:
                raise InputError(f"word not reduced at {a.name}.{b.name}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash(letters))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return inverse(self)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def sort_key(self):
        return (len(self.letters), tuple(l.sort_key() for l in self.letters))

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Word({word_to_str(self)!r})"

    def __str__(self) -> str:
        return word_to_str(self)


def _word(letters: tuple[Letter, ...]) -> Word:
    """Word(letters) without the reducedness check, for tuples reduced by construction."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "_hash", hash(letters))
    return w


IDENTITY = Word()


def single(letter: Letter) -> Word:
    return Word((letter,))


def reduce(seq: Iterable[Letter]) -> Word:
    """Free reduction of an arbitrary letter sequence (stack-based)."""
    stack: list[Letter] = []
    for l in seq:
        if stack and stack[-1].gen == l.gen and stack[-1].sign == -l.sign:
            stack.pop()
        else:
            stack.append(l)
    return Word(stack)


def multiply(w1: Word, w2: Word) -> Word:
    """Group product w1.w2; inputs reduced, cancellation happens at the seam."""
    a, b = w1.letters, w2.letters
    i = len(a)
    j = 0
    while i > 0 and j < len(b) and a[i - 1].gen == b[j].gen and a[i - 1].sign == -b[j].sign:
        i -= 1
        j += 1
    return _word(a[:i] + b[j:])


def inverse(w: Word) -> Word:
    return _word(tuple(l.inverse() for l in reversed(w.letters)))


def parent(g: Word) -> Word:
    """The neighbor of g on the geodesic to the identity (leftmost letter dropped)."""
    if g.is_identity:
        raise InputError("identity has no parent")
    return _word(g.letters[1:])


def edge_letter(g: Word) -> Letter:
    """The letter l with g = l.parent(g), i.e. the label of the tree edge above g."""
    if g.is_identity:
        raise InputError("identity has no incoming tree edge")
    return g.letters[0]


def in_past(g: Word, s: Letter) -> bool:
    """True iff g is a nonempty reduced word whose rightmost letter is s."""
    return bool(g.letters) and g.letters[-1] == s


def ball(rank: int, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> "LeftConnectedSet":
    """All reduced words of length <= radius, as a LeftConnectedSet."""
    if rank < 1 or radius < 0:
        raise InputError("rank must be >= 1 and radius >= 0")
    size = ball_size(rank, radius)
    if size > budget:
        raise BudgetError(f"ball({radius}) has {size} elements, budget {budget}")
    out = [IDENTITY]
    frontier = [IDENTITY]
    alphabet = letters_of_rank(rank)
    for _ in range(radius):
        nxt = []
        for h in frontier:
            blocked = h.letters[0].inverse() if h.letters else None
            for l in alphabet:
                if l == blocked:
                    continue
                nxt.append(_word((l,) + h.letters))
        out.extend(nxt)
        frontier = nxt
    return LeftConnectedSet(out)


def ball_size(rank: int, radius: int) -> int:
    if radius == 0:
        return 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**radius - 1) // (q - 1) if q > 1 else 1 + 2 * radius


class LeftConnectedSet:
    """A finite left-connected set of words containing the identity.

    Because connected subsets of a tree contain the geodesic between any two
    of their points, such a set is exactly a parent-closed set; validation
    and canonical (length, lexicographic) ordering both rely on this.
    """

    __slots__ = ("words", "_index")

    def __init__(self, words: Iterable[Word]):
        ordered = sorted(set(words), key=Word.sort_key)
        index = {w: i for i, w in enumerate(ordered)}
        if not ordered or not ordered[0].is_identity:
            from .errors import DomainError

            raise DomainError("left-connected set must contain the identity")
        for w in ordered[1:]:
            if parent(w) not in index:
                from .errors import DomainError

                raise DomainError(f"set is not left-connected: {w} lacks its parent")
        object.__setattr__(self, "words", tuple(ordered))
        object.__setattr__(self, "_index", index)

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

    def __repr__(self) -> str:
        return f"LeftConnectedSet([{', '.join(str(w) for w in self.words)}])"


_TOKEN = re.compile(r"^s([1-9][0-9]*)(\^-1)?$")


def word_to_str(w: Word) -> str:
    if w.is_identity:
        return "e"
    return ".".join(l.name for l in w.letters)


def word_from_str(text: str) -> Word:
    if text == "e":
        return IDENTITY
    letters = []
    for token in text.split("."):
        m = _TOKEN.match(token)
        if not m:
            raise InputError(f"bad word token {token!r}")
        letters.append(Letter(int(m.group(1)) - 1, -1 if m.group(2) else 1))
    w = Word(letters)  # raises on unreduced input
    return w
