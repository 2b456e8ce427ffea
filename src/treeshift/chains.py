"""Markov chain specs over a free group, with exact rational arithmetic.

A spec holds a finite alphabet, a fully supported stationary distribution pi
and one row-stochastic kernel per generator, each stationary for pi.  Via the
tree product formula these data determine a unique shift-invariant measure on
A^F whose cylinder probabilities this module evaluates exactly.

Symbols are addressed by their index in the alphabet everywhere below;
configurations map group elements (Word) to symbol indices.

Each spec keeps lookup tables on its own instance, each entry built on first
use: the kernel, its scaled integers (see below), the support graph and the
validation problems along every letter s_i^{+-1}, and the integer draw
thresholds of every kernel row and of pi, pi's scaled integers and pi's
validation problems.  The letter tables are keyed by letter code (see words)
and also serve Letter keys.  Cylinder measures, window scans, samplers and
validate read them by code, so no hot path hashes the spec.  A spec derived
by with_kernel starts with the entries already built for pi and for the
directions it keeps, so validating it checks only the replaced kernel.

Exact sums run on ints: scaled puts rationals over the lcm D of their
denominators as the integers x*D, and scaling by D > 0 keeps signs, sums and
equalities, so a Fraction (one gcd) is built per result rather than per term.

The exact engine lives here too: scan_positive_windows enumerates the
positive-measure windows that a window function reads, depth first, under one
window budget (_MAX_WINDOWS), and carries each window's weight as an int
numerator over an int denominator; the window function reads its assignment
dict directly.  The law it collects stays on ints too, as weights over one
common denominator, so callers sum marginals on ints; covering_scan checks
that a scan covers the space, and enumerate_cylinders is the scan's form on a
fixed domain.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from typing import Iterator, Mapping, Sequence

from .errors import BudgetError, InputError, MissingCoordinate, SpecInvalidError
from .graphs import TransitionGraph
from .words import LeftConnectedSet, Letter, Word, _word, ball, letter_code, parent, word_to_str

Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)
_MAX_WINDOWS = 500_000  # windows of one scan_positive_windows call
_MAX_COORDS = 400  # coordinates of one window
_MAX_SAMPLE_BALL = 200_000  # words of one sample_ball


# ---------------------------------------------------------------------------
# rational parsing: file entries are lowest-terms "p/q" (or integer) strings
# ---------------------------------------------------------------------------

_FRAC = re.compile(r"^(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?$")


def frac_from_str(text: str) -> Fraction:
    """Parse a nonnegative lowest-terms rational; reject anything else."""
    if not isinstance(text, str):
        raise InputError(f"rational must be a string, got {text!r}")
    m = _FRAC.match(text)
    if not m:
        raise InputError(f"bad rational {text!r} (need lowest-terms nonnegative p/q)")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) else 1
    f = Fraction(p, q)
    if f.numerator != p or f.denominator != q:
        raise InputError(f"rational {text!r} is not in lowest terms")
    return f


# ---------------------------------------------------------------------------
# the spec itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovSpec:
    generators: tuple[str, ...]
    alphabet: tuple
    pi: tuple[Fraction, ...]
    kernels: tuple[Matrix, ...]  # kernels[gen][a][b], indexed by alphabet position

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def symbol_index(self, symbol) -> int:
        try:
            return self.alphabet.index(symbol)
        except ValueError:
            raise InputError(f"symbol {symbol!r} not in alphabet") from None

    def generator_index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise InputError(f"unknown generator {name!r}") from None

    def with_kernel(self, gen: int, kernel: Matrix) -> "MarkovSpec":
        """The spec with the kernel along generator gen replaced.

        The new spec starts with the table entries already built here for
        every letter code c with c >> 1 != gen, and with pi's tables: they
        read only pi and kernels that stay the same, so they are shared, not
        copied.  gen's two letters are built afresh on first use, so
        validate checks gen's kernel and reuses the other entries."""
        if isinstance(gen, bool) or not (isinstance(gen, int) and 0 <= gen < self.rank):
            raise InputError(f"generator index {gen!r} outside rank {self.rank}")
        ks = list(self.kernels)
        ks[gen] = kernel
        new = MarkovSpec(self.generators, self.alphabet, self.pi, tuple(ks))
        built = self.__dict__
        for name in _LETTER_TABLES:
            if name in built:
                getattr(new, name).update(
                    (c, v) for c, v in built[name].items() if isinstance(c, int) and c >> 1 != gen
                )
        for name in _PI_TABLES:
            if name in built:
                new.__dict__[name] = built[name]
        return new

    def __reduce__(self):  # copies and pickles carry the fields, not the tables
        return MarkovSpec, (self.generators, self.alphabet, self.pi, self.kernels)

    @cached_property
    def letter_kernels(self) -> Mapping[Letter | int, Matrix]:
        """Kernel along each letter: P_i for s_i, reverse_kernel(spec, i) for s_i^-1."""
        return _LetterTable(
            self.rank, lambda c: reverse_kernel(self, c >> 1) if c & 1 else self.kernels[c >> 1]
        )

    @cached_property
    def letter_thresholds(self) -> Mapping[Letter | int, tuple[tuple[int, ...], ...]]:
        return _LetterTable(self.rank, lambda c: tuple(map(_thresholds, self.letter_kernels[c])))

    @cached_property
    def letter_scaled(self) -> Mapping[Letter | int, tuple[tuple[tuple[int, ...], ...], int]]:
        """(rows, D) along each letter: the kernel's entries as ints over one
        denominator D, the lcm of all of them (see scaled)."""

        def make(c: int):
            k = self.letter_kernels[c]
            flat, den = scaled([x for row in k for x in row])
            it = iter(flat)
            return tuple(tuple(next(it) for _ in row) for row in k), den

        return _LetterTable(self.rank, make)

    @cached_property
    def pi_thresholds(self) -> tuple[int, ...]:
        return _thresholds(self.pi)

    @cached_property
    def pi_scaled(self) -> tuple[tuple[int, ...], int]:
        ints, den = scaled(self.pi)
        return tuple(ints), den

    @cached_property
    def letter_support(self) -> Mapping[Letter | int, TransitionGraph]:
        """Support graph along each letter: the edges (a, b) with positive
        two-point mass pi(a) K(a, b)."""

        def graph(c: int) -> TransitionGraph:
            # the sign of the product, without it: pi(a) and K(a, b) nonzero, of one sign
            signs = list(map(_sign, self.pi))
            return TransitionGraph(self.size, frozenset(
                (a, b) for a, row in enumerate(self.letter_kernels[c]) if (s := signs[a])
                for b, sb in enumerate(map(_sign, row)) if sb == s
            ))

        return _LetterTable(self.rank, graph)

    @cached_property
    def pi_problems(self) -> tuple[tuple[str, ...], bool]:
        """validate's problems with pi (its length aside), and whether its
        entries are all ints or Fractions, which the kernel checks need."""
        bad = _non_rational("pi", self.pi)
        if bad:
            return tuple(bad), False
        pi, d_pi = self.pi_scaled
        problems = [
            f"pi({self.alphabet[a]!r}) = {self.pi[a]} is not positive"
            for a, p in enumerate(pi) if p <= 0
        ]
        if sum(pi) != d_pi:
            problems.append(f"pi sums to {sum(self.pi)}, not 1")
        return tuple(problems), True

    @cached_property
    def letter_problems(self) -> Mapping[Letter | int, tuple[str, ...]]:
        """validate's problems with the kernel of each letter's generator:
        its shape, entry types, negative entries, row sums and stationarity
        for pi.  Built only once pi has passed its type checks (pi_problems).

        The sums are exact on ints (see scaled): with pi over D_pi and the
        kernel K over D_K (pi_scaled and letter_scaled), a row sums to 1 iff
        its ints sum to D_K, and pi is stationary at b iff
        sum_a pi^(a) K^(a, b) = pi^(b) D_K (both sides times D_pi D_K).  A
        message's Fraction sum is computed only when its check fails."""

        def make(c: int) -> tuple[str, ...]:
            gi = c >> 1
            k, n, alpha = self.kernels[gi], self.size, self.alphabet
            name = self.generators[gi]
            if len(k) != n or any(len(row) != n for row in k):
                return (f"kernel {name} is not {n}x{n}",)
            bad = [
                m for a, row in enumerate(k) for m in _non_rational(f"kernel {name} row {a}", row)
            ]
            if bad:
                return tuple(bad)
            problems = []
            rows, d_k = self.letter_scaled[2 * gi]
            for a, row in enumerate(rows):
                if any(x < 0 for x in row):
                    problems.append(f"kernel {name} row {alpha[a]!r} has a negative entry")
                if sum(row) != d_k:
                    problems.append(f"kernel {name} row {alpha[a]!r} sums to {sum(k[a])}, not 1")
            pi = self.pi_scaled[0]
            for b, col in enumerate(zip(*rows)):
                if sum(map(mul, pi, col)) != pi[b] * d_k:
                    problems.append(
                        f"pi is not stationary for kernel {name} at column {alpha[b]!r}"
                    )
                    break
            return tuple(problems)

        return _LetterTable(self.rank, make)


_LETTER_TABLES = (
    "letter_kernels", "letter_thresholds", "letter_support", "letter_scaled", "letter_problems"
)
_PI_TABLES = ("pi_thresholds", "pi_scaled", "pi_problems")


def _sign(x) -> int:
    """-1, 0 or 1: the sign of an int's or a Fraction's numerator, and of any
    other entry (a float, say) by comparison with 0."""
    if isinstance(x, (int, Fraction)):
        x = x.numerator
    return (x > 0) - (x < 0)


class _LetterTable(dict):
    """letter code -> make(code), built on first lookup.  A Letter key is
    served from its code's entry; a letter outside the rank raises InputError."""

    def __init__(self, rank: int, make):
        self.rank, self.make = rank, make

    def __missing__(self, key):
        if isinstance(key, tuple):
            value = self[letter_code(key)]
        elif 0 <= key < 2 * self.rank:
            value = self.make(key)
        else:
            name = Letter(key >> 1, -1 if key & 1 else 1).name
            raise InputError(f"letter {name} outside rank {self.rank}")
        self[key] = value
        return value


def make_spec(generators, alphabet, pi, kernels) -> MarkovSpec:
    """Normalize plain containers into a MarkovSpec (no validation)."""
    return MarkovSpec(
        tuple(generators),
        tuple(alphabet),
        tuple(Fraction(x) for x in pi),
        tuple(tuple(tuple(Fraction(x) for x in row) for row in k) for k in kernels),
    )


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers x*D for the given rationals, and D, the lcm of their denominators."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _non_rational(where: str, values) -> list[str]:
    return [f"{where} entry {i} = {x!r} is not an int or a Fraction"
            for i, x in enumerate(values) if not isinstance(x, (int, Fraction))]


def validate(spec: MarkovSpec) -> ValidationReport:
    """Check entry types, full support, normalization, row-stochasticity and stationarity.

    The header checks (rank, alphabet, pi's length, kernel count) run here;
    pi's problems and each kernel's are entries of the spec's own tables
    (MarkovSpec.pi_problems and letter_problems, read at s_i's code), built
    on first use and carried by with_kernel for the directions it keeps.  So
    validating a spec again, or a spec derived from a validated one, checks
    only what was not checked yet.  The problems come in the same order as
    checking everything afresh would give."""
    problems = []
    n = spec.size
    if spec.rank < 2:
        problems.append(f"rank {spec.rank} < 2: need a non-abelian free group")
    if len(set(spec.alphabet)) != n or n == 0:
        problems.append("alphabet empty or has duplicate symbols")
    if len(spec.pi) != n:
        problems.append("pi length does not match alphabet")
        return ValidationReport(tuple(problems))
    pi_problems, rational = spec.pi_problems
    problems += pi_problems
    if not rational:
        return ValidationReport(tuple(problems))
    if len(spec.kernels) != spec.rank:
        problems.append("kernel count does not match generator count")
        return ValidationReport(tuple(problems))
    for gi in range(spec.rank):
        problems += spec.letter_problems[2 * gi]
    return ValidationReport(tuple(problems))


def require_valid(spec: MarkovSpec) -> MarkovSpec:
    report = validate(spec)
    if not report.ok:
        raise SpecInvalidError(report.problems)
    return spec


@lru_cache(maxsize=None)
def reverse_kernel(spec: MarkovSpec, gen: int) -> Matrix:
    """The kernel of the stationary chain run backwards in the given direction.

    Entrywise P_rev(a, b) = pi(b) P(b, a) / pi(a); stationarity of pi makes
    the rows sum to 1, and reversing twice gives back P.
    """
    k = spec.kernels[gen]
    n = spec.size
    return tuple(
        tuple(spec.pi[b] * k[b][a] / spec.pi[a] for b in range(n)) for a in range(n)
    )


def kernel_for_letter(spec: MarkovSpec, letter: Letter) -> Matrix:
    """Transition kernel along a tree edge labelled by the given letter."""
    return spec.letter_kernels[letter]


# ---------------------------------------------------------------------------
# configurations and cylinder measures
# ---------------------------------------------------------------------------


class Configuration:
    """A partial assignment of symbols to a left-connected domain containing e."""

    __slots__ = ("domain", "_values")

    def __init__(self, assignment: Mapping[Word, int]):
        domain = LeftConnectedSet(assignment.keys())  # validates the domain
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_values", dict(assignment))

    @classmethod
    def _on(cls, domain: LeftConnectedSet, values: dict) -> "Configuration":
        """The configuration with the given values on a domain already built, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_values", values)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Configuration is immutable")

    def __getitem__(self, w: Word) -> int:
        try:
            return self._values[w]
        except KeyError:
            raise MissingCoordinate(w) from None

    def get(self, w: Word, default=None):
        return self._values.get(w, default)

    def __contains__(self, w: Word) -> bool:
        return w in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.domain)

    def items(self):
        for w in self.domain:
            yield w, self._values[w]

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{w}:{v}" for w, v in self.items())
        return f"Configuration({{{body}}})"


def cylinder_measure(spec: MarkovSpec, phi: Configuration) -> Fraction:
    """Exact measure of the cylinder {x : x_g = phi(g) on the domain}.

    The domain is swept parents-first; each element beyond the identity
    contributes one kernel factor along its tree edge, using the reversed
    kernel when the edge letter is an inverse generator.  A value that is
    not a symbol index (an int in [0, size)) raises InputError.
    """
    for w, v in phi.items():
        if isinstance(v, bool) or not (isinstance(v, int) and 0 <= v < spec.size):
            raise InputError(
                f"symbol {v!r} at {word_to_str(w)} outside alphabet of size {spec.size}"
            )
    kernels = spec.letter_kernels
    total = ONE
    for w in phi.domain:
        if not w:
            total *= spec.pi[phi[w]]
        else:
            total *= kernels[w[0]][phi[parent(w)]][phi[w]]
        if total == 0:
            return ZERO
    return total


# ---------------------------------------------------------------------------
# the exact engine: demand-driven enumeration of positive-measure windows
# ---------------------------------------------------------------------------


class _Probe(dict):
    """A scan's window assignment {word: symbol}; a missing read raises MissingCoordinate."""

    __slots__ = ()

    def __missing__(self, w: Word):
        raise MissingCoordinate(w)


@dataclass
class WindowScan:
    """A scan's window count, law and failures.  The law {value of fn: total
    weight of the windows giving it} is held as weights over one denominator,
    law[value] = weights[value] / den; a law given as Fractions has den 1."""

    windows: int
    weights: dict  # {value of fn: its total weight times den}
    failures: tuple  # up to five (window, value) pairs with a falsy value
    den: int = 1

    @cached_property
    def law(self) -> dict:
        """The law as one Fraction per value, in the order values were first seen."""
        return {value: Fraction(x, self.den) for value, x in self.weights.items()}

    @property
    def ok(self) -> bool:
        """Whether every value was truthy."""
        return all(self.weights)

    @property
    def total_weight(self) -> Fraction:
        """The weights' int sum over den, one Fraction."""
        return Fraction(sum(self.weights.values()), self.den)


def scan_positive_windows(spec: MarkovSpec, fn) -> WindowScan:
    """Run fn against every minimal positive-measure window it can observe.

    fn receives the current assignment (a _Probe dict, not to be written) and
    must be a deterministic function of the coordinates it reads, with
    hashable values; a read outside the assignment branches the enumeration
    over all extensions of positive probability along the geodesic to the
    assigned region, depth first in symbol order.  The enumerated windows are prefix-free and cover
    the space, so their weights sum to exactly 1.  Raises BudgetError beyond
    _MAX_WINDOWS windows or a window of more than _MAX_COORDS coordinates.

    A window's weight is carried as ints num / den: num is the product of its
    scaled pi and kernel entries (spec.pi_scaled, spec.letter_scaled) and den
    the product of their denominators D, one per coordinate.  The scan sums
    num per (value, den) and at the end puts the whole law over one int, the
    lcm of all dens (WindowScan.weights and .den), so callers sum and compare
    it on ints.  Its Fractions (WindowScan.law) are the same, in the same key
    order, as summing each window's weight as a Fraction.
    """
    sums: dict = {}  # {value: {den: sum of num}}, values in the order first seen
    failures: list = []
    windows = 0
    rows = spec.letter_scaled
    pi, d_pi = spec.pi_scaled

    def run(assign: _Probe, num: int, den: int):
        nonlocal windows
        try:
            value = fn(assign)
        except MissingCoordinate as miss:
            g = miss.word
            if g in assign:
                raise InputError("window function missed an assigned coordinate")
            path = []
            v = g
            while v not in assign and v:
                path.append(v)
                v = parent(v)
            if not v and v not in assign:
                path.append(v)
            if len(assign) + len(path) > _MAX_COORDS:
                raise BudgetError(f"window grew beyond {_MAX_COORDS} coordinates")

            def fill(i: int, num: int, den: int):
                if i < 0:
                    run(assign, num, den)
                    return
                h = path[i]
                if h:
                    k, d = rows[h[0]]
                    row = k[assign[parent(h)]]
                else:
                    row, d = pi, d_pi
                den *= d
                for b, p in enumerate(row):
                    if p == 0:
                        continue
                    assign[h] = b
                    fill(i - 1, num * p, den)
                    del assign[h]

            fill(len(path) - 1, num, den)
            return
        windows += 1
        if windows > _MAX_WINDOWS:
            raise BudgetError(f"more than {_MAX_WINDOWS} positive windows")
        by_den = sums.get(value)
        if by_den is None:
            by_den = sums[value] = {}
        by_den[den] = by_den.get(den, 0) + num
        if not value and len(failures) < 5:
            failures.append((dict(assign), value))

    run(_Probe(), 1, 1)
    den = lcm(*{d for by_den in sums.values() for d in by_den})
    weights = {
        value: sum(num * (den // d) for d, num in by_den.items()) for value, by_den in sums.items()
    }
    sums.clear()  # run, a recursive closure, keeps sums alive until the cyclic collector runs
    return WindowScan(windows, weights, tuple(failures), den)


def covering_scan(spec: MarkovSpec, fn) -> WindowScan:
    """scan_positive_windows, which must cover the space (total weight 1)."""
    scan = scan_positive_windows(spec, fn)
    if scan.total_weight != 1:
        raise InputError("window enumeration did not cover the space")
    return scan


def enumerate_cylinders(
    spec: MarkovSpec, domain: LeftConnectedSet
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield (values, measure) for the positive-measure configurations on the domain.

    Values follow the domain's canonical order.  This is the window scan on
    a fixed domain: its window function reads the words in canonical order,
    parents first, so each window is one cylinder, zero-probability branches
    are pruned, and the pairs come depth first in symbol order.  For a valid
    spec the measures sum to exactly 1; the spec is not checked.
    """
    words = domain.words
    yield from scan_positive_windows(spec, lambda x: tuple(x[w] for w in words)).law.items()


def bernoulli_spec(alphabet, pi: Sequence[Fraction], rank: int = 2) -> MarkovSpec:
    """The product measure with the given marginal: every kernel row equals pi."""
    pi = tuple(Fraction(x) for x in pi)
    if any(p <= 0 for p in pi) or sum(pi) != 1:
        raise InputError("pi must be a fully supported probability vector")
    row = tuple(pi)
    k: Matrix = tuple(row for _ in alphabet)
    return MarkovSpec(
        tuple(f"s{i + 1}" for i in range(rank)),
        tuple(alphabet),
        pi,
        tuple(k for _ in range(rank)),
    )


# ---------------------------------------------------------------------------
# sampling: splittable, keyed by (seed, word), order-independent
# ---------------------------------------------------------------------------

_UNIT_DEN = 1 << 64


class SampledTree:
    """A lazy configuration drawn from the spec, defined on the whole group.

    The value at g is a function of (seed, g) alone: a variate k in [0, 2^64)
    is derived by hashing the serialized word with a keyed blake2b, and the
    symbol is the first b with k / 2^64 < S_b, S_b the running sums of the
    kernel row of g's parent value (of pi at the identity).  Lookups
    therefore do not depend on evaluation order and never miss.  The hash
    input of g = l.h is built from its parent's text, token(l) + "." + text(h),
    kept per tree: the same bytes as word_to_str(g).encode().  The draw
    bisects the spec's integer thresholds ceil(S_b 2^64) instead of comparing
    Fractions; for integer k, k < ceil(S_b 2^64) iff k / 2^64 < S_b, so it
    picks the same symbol.  Keys are checked on a miss only: anything but a
    tuple of reduced letter codes below 2 rank raises InputError.
    """

    __slots__ = ("spec", "seed", "_keyed", "_tokens", "_memo", "_texts")

    def __init__(self, spec: MarkovSpec, seed: int):
        self.spec = spec
        self.seed = _hash_key(seed, "seed")
        key = self.seed.to_bytes(8, "big", signed=False)
        self._keyed = hashlib.blake2b(key=key, digest_size=8)  # copied per draw
        self._tokens = tuple(word_to_str(_word((c,))).encode() for c in range(2 * spec.rank))
        self._memo: dict[Word, int] = {}
        self._texts: dict[Word, bytes] = {}  # drawn non-identity word -> its hash input

    def __getitem__(self, w: Word) -> int:
        memo = self._memo
        try:
            value = memo.get(w)
        except TypeError:  # unhashable, so not a word
            value = None
        if value is not None:
            return value
        # a Word is reduced by construction, and the letter table checks each code it draws
        if type(w) is not Word and not _is_word(w, len(self._tokens)):
            raise InputError(f"not a reduced word of rank {self.spec.rank}: {w!r}")
        spec, keyed, tokens, texts = self.spec, self._keyed, self._tokens, self._texts
        # the geodesic from w down to its closest memoized ancestor v, walked without recursion
        chain, v = [], w
        while v and value is None:
            chain.append(v)
            v = v[1:]
            value = memo.get(v)
        if value is None:  # v is the identity
            h = keyed.copy()
            h.update(b"e")
            value = memo[v] = _draw(spec.pi, spec.pi_thresholds, int.from_bytes(h.digest(), "big"))
        text, thresholds = texts.get(v, b""), spec.letter_thresholds
        for g in reversed(chain):
            c = g[0]
            row = thresholds[c][value]
            text = texts[g] = tokens[c] + b"." + text if text else tokens[c]
            h = keyed.copy()
            h.update(text)
            k = int.from_bytes(h.digest(), "big")
            b = bisect_right(row, k)
            value = memo[g] = b if b < len(row) else _draw(spec.letter_kernels[c][value], row, k)
        return value


def _is_word(w, n: int) -> bool:
    """Whether w is a tuple of letter codes, ints in [0, n), with no code next to its inverse."""
    codes = isinstance(w, tuple) and all(type(c) is int and 0 <= c < n for c in w)
    return codes and all(a ^ b != 1 for a, b in zip(w, w[1:]))


def _thresholds(row: Sequence[Fraction]) -> tuple[int, ...]:
    """ceil(S_b 2^64) for the running sums S_b of row, kept nondecreasing (a
    running max) so that bisection finds the first b with k below it."""
    out, acc, top = [], ZERO, 0
    for p in row:
        acc += p
        top = max(top, -(-acc.numerator * _UNIT_DEN // acc.denominator))
        out.append(top)
    return tuple(out)


def _draw(row: Sequence[Fraction], thresholds: Sequence[int], k: int) -> int:
    """The first b with k < thresholds[b]: the symbol the variate k / 2^64 picks from row."""
    b = bisect_right(thresholds, k)
    if b == len(thresholds):
        # a valid row's last threshold is 2^64 > k, so only a broken row gets here
        raise SpecInvalidError(
            [f"row sums to {sum(row)}, not 1: variate {Fraction(k, _UNIT_DEN)} not covered"]
        )
    return b


def _hash_key(value: int, what: str) -> int:
    """value, checked to be an int (not a bool) that fits the hash's 8-byte
    unsigned encoding."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an int, got {value!r}")
    if not 0 <= value < _UNIT_DEN:
        raise InputError(f"{what} {value} outside [0, 2**64)")
    return value


def derive_seed(seed: int, index: int) -> int:
    digest = hashlib.blake2b(
        _hash_key(index, "index").to_bytes(8, "big", signed=False),
        key=_hash_key(seed, "seed").to_bytes(8, "big", signed=False),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big")


def sample_ball(spec: MarkovSpec, radius: int, seed: int) -> Configuration:
    """One exact sample of the chain restricted to the ball of given radius."""
    dom = ball(spec.rank, radius, budget=_MAX_SAMPLE_BALL)
    tree = SampledTree(spec, seed)
    return Configuration._on(dom, {w: tree[w] for w in dom})


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trips)
# ---------------------------------------------------------------------------


def spec_to_json(spec: MarkovSpec) -> dict:
    return {
        "generators": list(spec.generators),
        "alphabet": list(spec.alphabet),
        "pi": {str(sym): str(spec.pi[i]) for i, sym in enumerate(spec.alphabet)},
        "kernels": {
            name: [[str(x) for x in row] for row in spec.kernels[gi]]
            for gi, name in enumerate(spec.generators)
        },
    }


def spec_from_json(obj) -> MarkovSpec:
    if not isinstance(obj, dict):
        raise InputError("chain spec must be a JSON object")
    for key in ("generators", "alphabet", "pi", "kernels"):
        if key not in obj:
            raise InputError(f"chain spec missing {key!r}")
    generators = obj["generators"]
    if not isinstance(generators, list) or not generators:
        raise InputError("generators must be a nonempty list")
    expected = [f"s{i + 1}" for i in range(len(generators))]
    if generators != expected:
        raise InputError(f"generators must be {expected}, got {generators}")
    alphabet = obj["alphabet"]
    if not isinstance(alphabet, list) or not alphabet:
        raise InputError("alphabet must be a nonempty list")
    if any(isinstance(sym, (list, dict)) for sym in alphabet):
        raise InputError("alphabet symbols must be JSON scalars, not lists or objects")
    keys = [str(sym) for sym in alphabet]
    if len(set(keys)) != len(keys):
        raise InputError("alphabet symbols collide as strings")
    pi_obj = obj["pi"]
    if not isinstance(pi_obj, dict) or set(pi_obj) != set(keys):
        raise InputError("pi keys must match the alphabet")
    pi = tuple(frac_from_str(pi_obj[k]) for k in keys)
    kernels_obj = obj["kernels"]
    if not isinstance(kernels_obj, dict) or set(kernels_obj) != set(generators):
        raise InputError("kernels keys must match the generators")
    n = len(alphabet)
    kernels = []
    for name in generators:
        mat = kernels_obj[name]
        if not isinstance(mat, list) or len(mat) != n or any(
            not isinstance(row, list) or len(row) != n for row in mat
        ):
            raise InputError(f"kernel {name} must be a {n}x{n} matrix")
        kernels.append(tuple(tuple(frac_from_str(x) for x in row) for row in mat))
    return MarkovSpec(tuple(generators), tuple(alphabet), pi, tuple(kernels))
