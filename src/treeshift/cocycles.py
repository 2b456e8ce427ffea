"""Finite-window rewriting rules, their cocycles, and the induced recodings.

A RewriteRule assigns to each generator letter a replacement word computed
from finitely many coordinates of the configuration near the identity.  When
the rule satisfies the flip-consistency condition (rewriting a letter and
then its inverse from the moved configuration returns the inverse word), the
letter images extend to a cocycle w(g, x) with

    w(gh, x) = w(g, h * x) . w(h, x),      g * x = w(g, x) . x,

and the recoding (Omega x)_h = x_{w(h, x)} intertwines the rewritten action
with the plain shift.  Everything here is evaluated lazily against partial
configurations: a lookup outside the available domain raises
MissingCoordinate, which the window scan of chains (scan_positive_windows)
uses to extend exactly the coordinates a check actually reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .chains import MarkovSpec, SampledTree, derive_seed, scan_positive_windows
from .errors import InputError
from .words import IDENTITY, Letter, Word, _letter, _word, ball, in_past, inverse, multiply
from .words import parent, single


@dataclass(frozen=True)
class RewriteRule:
    """A finite-window generator rewrite.

    rewrite(letter, x, offset) is consulted only for letters in `active`; it
    rewrites the letter at the translate offset.x, whose coordinate h is
    x[multiply(h, offset)].  Other letters are their own images, read from no
    coordinate.  Outputs must be reduced words of length at most
    max_output_length, read from the translate within ball(window_radius).
    """

    rank: int
    window_radius: int
    max_output_length: int
    active: frozenset[Letter]
    rewrite: Callable[[Letter, object, Word], Word]

    def letter_image(self, letter: Letter, x, offset: Word = IDENTITY) -> Word:
        if letter not in self.active:
            return single(letter)
        out = self.rewrite(letter, x, offset)
        if len(out) > self.max_output_length:
            raise InputError(
                f"rewrite of {letter.name} has length {len(out)} > {self.max_output_length}"
            )
        return out


def identity_rule(rank: int) -> RewriteRule:
    return RewriteRule(rank, 0, 1, frozenset(), lambda l, x, offset: single(l))


def dependency_radius(rule: RewriteRule, r: int) -> int:
    """A radius R such that cocycle words and recoded values on ball(r) only
    read base coordinates in ball(R).  Each letter step moves the window by
    at most max_output_length; r steps from radius window_radius suffice."""
    return r * rule.max_output_length + rule.window_radius


class CocycleTable:
    """Memoized cocycle words w(., x) for one fixed configuration.

    Values are derived along the tree: for h with parent k and edge letter l,
    w(h, x) = rewrite(l, w(k,x).x) . w(k, x).  The table is a pure cache:
    entries depend only on (rule, x).
    """

    __slots__ = ("rule", "base", "_words")

    def __init__(self, rule: RewriteRule, base):
        self.rule = rule
        self.base = base
        self._words: dict[Word, Word] = {IDENTITY: IDENTITY}

    def omega(self, g: Word) -> Word:
        words = self._words
        chain = []
        while g not in words:
            chain.append(g)
            g = parent(g)
        prior, rule = words[g], self.rule
        for h in reversed(chain):
            l = _letter(h[0])  # an inactive letter is its own image, read from no coordinate
            img = rule.letter_image(l, self.base, prior) if l in rule.active else _word(h[:1])
            prior = words[h] = multiply(img, prior)
        return prior


def cocycle(rule: RewriteRule, g: Word, x) -> Word:
    """The cocycle word w(g, x); reads x within dependency_radius(rule, |g|)."""
    return CocycleTable(rule, x).omega(g)


class RecodedView:
    """The recoding (Omega x)_h = x_{w(h, x)}, as a lazy configuration."""

    __slots__ = ("table", "_memo")

    def __init__(self, rule: RewriteRule, base):
        self.table = CocycleTable(rule, base)
        self._memo: dict[Word, int] = {}

    def __getitem__(self, h: Word) -> int:
        memo = self._memo
        if h not in memo:
            memo[h] = self.table.base[self.table.omega(h)]
        return memo[h]


# ---------------------------------------------------------------------------
# rule-level checks
# ---------------------------------------------------------------------------


def _checked_letters(rule: RewriteRule) -> list[Letter]:
    seen = set()
    for l in rule.active:
        seen.add(l)
        seen.add(l.inverse())
    return sorted(seen, key=Letter.sort_key)


def check_involution(rule: RewriteRule, spec: MarkovSpec) -> bool:
    """Whether rewriting a letter and then its inverse from the moved
    configuration always returns the inverse word, on every positive window."""
    for l in _checked_letters(rule):

        def fn(win, l=l):
            w = rule.letter_image(l, win)
            w_back = rule.letter_image(l.inverse(), win, w)
            return w_back == inverse(w)

        if not scan_positive_windows(spec, fn).ok:
            return False
    return True


def check_past_preservation(rule: RewriteRule, spec: MarkovSpec, s: Letter, r: int) -> bool:
    """Whether g and w(g, x) always lie on the same side of the past of s,
    for all |g| <= r and all positive windows."""
    for g in ball(rule.rank, r):
        if g.is_identity:
            continue

        def fn(win, g=g):
            table = CocycleTable(rule, win)
            return in_past(g, s) == in_past(table.omega(g), s)

        if not scan_positive_windows(spec, fn).ok:
            return False
    return True


def check_inverse_pair(
    rule: RewriteRule,
    rule_hat: RewriteRule,
    spec: MarkovSpec,
    r: int,
    *,
    samples: int = 20,
    seed: int = 0,
) -> bool:
    """Whether the two rules invert each other: w(w_hat(l, Omega x), x) = l on
    every positive window, and the composed recodings restore sampled
    configurations on ball(r)."""
    letters = sorted(
        set(_checked_letters(rule)) | set(_checked_letters(rule_hat)),
        key=Letter.sort_key,
    )
    for l in letters:

        def fn(win, l=l):
            recoded = RecodedView(rule, win)
            w_hat = cocycle(rule_hat, single(l), recoded)
            return cocycle(rule, w_hat, win) == single(l)

        if not scan_positive_windows(spec, fn).ok:
            return False
    for i in range(samples):
        x = SampledTree(spec, derive_seed(seed, i))
        z = RecodedView(rule_hat, RecodedView(rule, x))
        if any(z[h] != x[h] for h in ball(rule.rank, r)):
            return False
    return True
