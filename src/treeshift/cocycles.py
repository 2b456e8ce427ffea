"""Finite-window rewriting rules, their cocycles, and the induced recodings.

A RewriteRule is a step table: each active letter's step reads finitely many
coordinates near the identity and picks one of finitely many constant
images; every other letter is its own image.  When the rule satisfies the
flip-consistency condition (rewriting a letter and then its inverse from the
moved configuration returns the inverse word), the images extend to a
cocycle w(g, x) with

    w(gh, x) = w(g, h * x) . w(h, x),      g * x = w(g, x) . x,

and the recoding (Omega x)_h = x_{w(h, x)} intertwines the rewritten action
with the plain shift.  All of it is evaluated lazily on partial
configurations, reading only the coordinates it needs: a Configuration's
lookup outside its domain raises MissingCoordinate, and a window of the
window scan of chains fills such a lookup in place, so the scan extends
exactly the coordinates a check reads.  Cocycles step on letter codes, an
inactive code put on at the seam inline.  The claims of a slide's rule are
checked in slides.verify_slide.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

# bound here for the benchmark tracer, which wraps the scan at this module's binding
from .chains import scan_positive_windows  # noqa: F401
from .errors import InputError
from .words import IDENTITY, Letter, Word, _word, letter_code, multiply, single


class RewriteRule:
    """A finite-window generator rewrite, given by its step table.

    steps maps each active letter l to step(x, offset), the image of l at the
    translate offset.x (whose coordinate h is x[multiply(h, offset)]), read
    within ball(window_radius): one of the images, reduced words whose lengths
    are checked against max_output_length once, here.  Other letters are their
    own images.  The table is kept by letter code, as letter_image and the cocycle run it.
    """

    __slots__ = ("rank", "window_radius", "max_output_length", "active", "steps")

    def __init__(
        self, rank: int, window_radius: int, max_output_length: int,
        steps: Mapping[Letter, Callable[[object, Word], Word]], images: Iterable[Word],
    ):
        for w in images:
            if len(w) > max_output_length:
                raise InputError(f"image {w} has length {len(w)} > {max_output_length}")
        self.rank, self.window_radius = rank, window_radius
        self.max_output_length = max_output_length
        self.active = frozenset(steps)
        self.steps = {letter_code(l): step for l, step in steps.items()}

    def letter_image(self, letter: Letter, x, offset: Word = IDENTITY) -> Word:
        step = self.steps.get(letter_code(letter))
        return single(letter) if step is None else step(x, offset)


def identity_rule(rank: int) -> RewriteRule:
    return RewriteRule(rank, 0, 1, {}, ())


class CocycleTable:
    """Memoized cocycle words w(., x) for one fixed configuration.

    Values are derived along the tree: for h with parent k and edge letter l,
    w(h, x) = letter_image(l, w(k,x).x) . w(k, x).  The table is a pure cache:
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


class RecodedView(CocycleTable):
    """The recoding (Omega x)_h = x_{w(h, x)}, as a lazy configuration: the cocycle
    table of (rule, x) read through at x, with no memo beyond the table's words."""

    __slots__ = ()

    def __getitem__(self, h: Word) -> int:
        return self.base[self.omega(h)]
