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
exactly the coordinates a check reads.

There are two readers, and one step rule under both (_next_word): a
CocycleTable (RecodedView) serves arbitrary words, memoizing w(., x) for one
configuration, and a RecodedView steps a miss whose parent is memoized once,
with no walk down the tree; recode_on serves a fixed domain, planning each
word's step and parent once and stepping every domain word once per
configuration.  The claims of a slide's rule are checked in slides.verify_slide.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

# bound here for the benchmark tracer, which wraps the scan at this module's binding
from .chains import scan_positive_windows  # noqa: F401
from .chains import _read_last
from .errors import InputError
from .words import IDENTITY, LeftConnectedSet, Word, _code, _is_word, _word
from .words import multiply, single


class RewriteRule:
    """A finite-window generator rewrite, given by its step table.

    steps maps each active letter code c to step(x, offset), the image of c at
    the translate offset.x (whose coordinate h is x[multiply(h, offset)]), read
    within ball(window_radius): one of the images, reduced words whose lengths
    are checked against max_output_length once, here.  Other codes are their
    own images.  The rank must be an int >= 1, each key a code below 2 rank
    and each image a reduced word of codes (words._is_word), and letter_image
    takes a code below 2 rank; anything else raises InputError.
    """

    __slots__ = ("rank", "window_radius", "max_output_length", "steps")

    def __init__(
        self, rank: int, window_radius: int, max_output_length: int,
        steps: Mapping[int, Callable[[object, Word], Word]], images: Iterable[Word],
    ):
        if type(rank) is not int or rank < 1:
            raise InputError(f"rank must be an int >= 1, got {rank!r}")
        for c in steps:
            _code(c, rank)
        for w in images:
            if not _is_word(w):
                raise InputError(f"image {w!r} is not a reduced word of letter codes")
            if len(w) > max_output_length:
                raise InputError(f"image {w} has length {len(w)} > {max_output_length}")
        self.rank, self.window_radius = rank, window_radius
        self.max_output_length = max_output_length
        self.steps = dict(steps)

    def letter_image(self, c: int, x, offset: Word = IDENTITY) -> Word:
        step = self.steps.get(_code(c, self.rank))
        return single(c) if step is None else step(x, offset)


def identity_rule(rank: int) -> RewriteRule:
    return RewriteRule(rank, 0, 1, {}, ())


class CocycleTable:
    """Memoized cocycle words w(., x) for one fixed configuration.

    Values are derived along the tree: for h with parent k and edge letter l,
    w(h, x) = letter_image(l, w(k,x).x) . w(k, x).  The table is a pure cache:
    entries depend only on (rule, x).  A rule that is not a RewriteRule, or
    an x that is not a coordinate map (_coordinate_map), raises InputError
    when the table is made.  A key is checked before the memo is read, so a
    hit and a miss agree: anything but a reduced tuple of letter codes below
    2 rank raises InputError.  A Word is reduced by construction and skips
    that check; its codes are checked against the rank as they are stepped.
    """

    __slots__ = ("rule", "base", "_words")

    def __init__(self, rule: RewriteRule, base):
        self.rule = _checked_rule(rule)
        self.base = _coordinate_map(base)
        self._words: dict[Word, Word] = {IDENTITY: IDENTITY}

    def omega(self, g: Word) -> Word:
        """w(g, x), one step per edge letter code h[0], from the closest
        memoized suffix of g up; an inactive code is its own image, read from
        no coordinate."""
        if type(g) is not Word and not _is_word(g, 2 * self.rule.rank):
            raise InputError(f"not a reduced word of rank {self.rule.rank}: {g!r}")
        words = self._words
        prior = words.get(g)
        if prior is not None:
            return prior
        chain = []
        while prior is None:  # the identity is always in words
            chain.append(g)
            g = _word(g[1:])
            prior = words.get(g)
        base, steps, rank = self.base, self.rule.steps, self.rule.rank
        for h in reversed(chain):
            c = h[0]
            if c >= 2 * rank:
                raise InputError(f"letter code {c} outside rank {rank}")
            prior = words[h] = _next_word(steps.get(c), c, prior, base)
        return prior


def _checked_rule(rule) -> RewriteRule:
    """rule, checked once per table or plan to be a RewriteRule."""
    if not isinstance(rule, RewriteRule):
        raise InputError(f"not a RewriteRule: {rule!r}")
    return rule


def _coordinate_map(x):
    """x, checked once per table or recoding to be a coordinate map: a dict
    (a scan's window), or else it has __getitem__ and is no Sequence (a list,
    tuple, str or bytes)."""
    if not isinstance(x, dict) and (not hasattr(x, "__getitem__") or isinstance(x, Sequence)):
        raise InputError(f"a cocycle reads a coordinate map, got {x!r}")
    return x


def _next_word(step, c: int, prior: Word, x) -> Word:
    """w(h, x) for h = c.k, from prior = w(k, x): an active code's step image,
    read at prior.x, times prior; an inactive code is its own image, read from
    no coordinate, cancelled at the seam or put on."""
    if step is not None:
        return multiply(step(x, prior), prior)
    if prior and prior[0] == c ^ 1:
        return _word(prior[1:])
    return _word((c,) + prior)


def cocycle(rule: RewriteRule, g: Word, x) -> Word:
    """The cocycle word w(g, x); reads x within ball(|g| max_output_length + window_radius)."""
    return CocycleTable(rule, x).omega(g)


class RecodedView(CocycleTable):
    """The recoding (Omega x)_h = x_{w(h, x)}, as a lazy configuration: the cocycle
    table of (rule, x) read through at x, with no memo beyond the table's words.
    A memo hit is one dict read; a miss whose parent is memoized is one step
    from it, and a deeper miss, or a code past the rank, goes through omega."""

    __slots__ = ()

    def __getitem__(self, h: Word) -> int:
        rule = self.rule
        if type(h) is not Word and not _is_word(h, 2 * rule.rank):
            raise InputError(f"not a reduced word of rank {rule.rank}: {h!r}")
        words = self._words
        w = words.get(h)
        if w is None:
            prior, c = words.get(h[1:]), h[0]  # a miss is not the identity, which is in words
            if prior is None or c >= 2 * rule.rank:  # omega walks down, or raises on c
                w = self.omega(h)
            else:
                w = words[h] = _next_word(rule.steps.get(c), c, prior, self.base)
        return self.base[w]


def recode_on(rule: RewriteRule, domain: LeftConnectedSet) -> Callable[[object], tuple]:
    """x -> tuple((Omega x)_h for h in domain.words), the recoding on a fixed domain.

    The plan is built once: per non-identity word h = c.k, the rule's step
    for its code c, c itself and the position of k, earlier in the canonical
    order, as the domain records it (_parents).  Per x, each w(h, x) is
    stepped once from its parent's and x is read at it at once, so x is read
    in the order of a RecodedView read in domain order.  The last domain
    word's read goes through chains._read_last: on a scan's window, a cocycle
    word one step outside it is deferred, and the scan fans the recoding out
    over that word's row, one window per successor; any other x is read
    plainly, as a RecodedView in replay.  A rule that is not a RewriteRule,
    a domain that is not a LeftConnectedSet or holds a code at or past
    2 rank, raises InputError, and so does an x that is not a coordinate map,
    checked at its first read, not per step."""
    if not isinstance(domain, LeftConnectedSet):
        raise InputError(f"recode_on reads a LeftConnectedSet, got {domain!r}")
    codes = [h[0] for h in domain.words[1:]]
    plan = tuple(zip(map(_checked_rule(rule).steps.get, codes), codes, domain._parents[1:]))
    if any(c >= 2 * rule.rank for c in codes):  # every code leads some domain word
        raise InputError(f"recode_on of a rank-{rule.rank} rule on a domain with codes past it")
    body, last = plan[:-1], plan[-1:]

    def recode(x) -> tuple:
        words, values = [IDENTITY], [_coordinate_map(x)[IDENTITY]]
        for step, c, i in body:
            w = _next_word(step, c, words[i], x)
            words.append(w)
            values.append(x[w])
        for step, c, i in last:  # the last domain word's, if not e
            return _read_last(x, tuple(values), _next_word(step, c, words[i], x))
        return tuple(values)

    return recode
