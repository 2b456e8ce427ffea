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
uses to extend exactly the coordinates a check actually reads.  Cocycles
step on letter codes: each active code runs its rule's step, and an inactive
one is put on at the seam inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping

from .chains import MarkovSpec, SampledTree, derive_seed, scan_positive_windows
from .errors import InputError
from .words import IDENTITY, Letter, Word, _word, ball, in_past, inverse, letter_code, multiply
from .words import single


@dataclass(frozen=True)
class RewriteRule:
    """A finite-window generator rewrite.

    rewrite(letter, x, offset) is consulted only for letters in `active`; it
    rewrites the letter at the translate offset.x, whose coordinate h is
    x[multiply(h, offset)].  Other letters are their own images, read from no
    coordinate.  Outputs must be reduced words of length at most
    max_output_length, read from the translate within ball(window_radius).

    steps (letter code -> step(x, offset), built once per rule) is what
    letter_image and the cocycle run.  Built from rewrite, a step checks the
    output length per call; from_steps checks its constant images once.
    """

    rank: int
    window_radius: int
    max_output_length: int
    active: frozenset[Letter]
    rewrite: Callable[[Letter, object, Word], Word]
    steps: Mapping[int, Callable[[object, Word], Word]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        steps = {letter_code(l): partial(self._checked_rewrite, l) for l in self.active}
        object.__setattr__(self, "steps", steps)

    @classmethod
    def from_steps(
        cls, rank: int, window_radius: int, max_output_length: int,
        steps: Mapping[Letter, Callable[[object, Word], Word]], images: Iterable[Word],
    ) -> RewriteRule:
        """The rule rewriting each letter l in steps by steps[l](x, offset),
        which returns one of the constant images."""
        for w in images:
            if len(w) > max_output_length:
                raise InputError(f"image {w} has length {len(w)} > {max_output_length}")
        by_code = {letter_code(l): step for l, step in steps.items()}
        rule = cls(
            rank, window_radius, max_output_length, frozenset(steps),
            lambda l, x, offset: by_code[letter_code(l)](x, offset),
        )
        object.__setattr__(rule, "steps", by_code)
        return rule

    def _checked_rewrite(self, letter: Letter, x, offset: Word) -> Word:
        out = self.rewrite(letter, x, offset)
        if len(out) > self.max_output_length:
            raise InputError(
                f"rewrite of {letter.name} has length {len(out)} > {self.max_output_length}"
            )
        return out

    def letter_image(self, letter: Letter, x, offset: Word = IDENTITY) -> Word:
        if letter not in self.active:
            return single(letter)
        return self.steps[letter_code(letter)](x, offset)


def identity_rule(rank: int) -> RewriteRule:
    return RewriteRule(rank, 0, 1, frozenset(), lambda l, x, offset: single(l))


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
        """w(g, x), one step per edge letter code h[0]; an inactive code is its
        own image, read from no coordinate."""
        words = self._words
        prior = words.get(g)
        if prior is not None:
            return prior
        chain = []
        while prior is None:  # the identity is always in words
            chain.append(g)
            g = _word(g[1:])
            prior = words.get(g)
        base, steps = self.base, self.rule.steps
        for h in reversed(chain):
            c = h[0]
            step = steps.get(c)
            if step is not None:
                prior = multiply(step(base, prior), prior)
            elif prior and prior[0] == c ^ 1:
                prior = _word(prior[1:])
            else:
                prior = _word(h[:1] + prior)
            words[h] = prior
        return prior


def cocycle(rule: RewriteRule, g: Word, x) -> Word:
    """The cocycle word w(g, x); reads x within ball(|g| max_output_length + window_radius)."""
    return CocycleTable(rule, x).omega(g)


class RecodedView:
    """The recoding (Omega x)_h = x_{w(h, x)}, as a lazy configuration."""

    __slots__ = ("table", "_memo")

    def __init__(self, rule: RewriteRule, base):
        self.table = CocycleTable(rule, base)
        self._memo: dict[Word, int] = {}

    def __getitem__(self, h: Word) -> int:
        value = self._memo.get(h)
        if value is None:
            value = self._memo[h] = self.table.base[self.table.omega(h)]
        return value


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
