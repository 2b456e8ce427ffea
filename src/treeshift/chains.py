"""Markov chain specs over a free group, with exact rational arithmetic.

A spec holds a finite alphabet, a fully supported stationary distribution pi
and one row-stochastic kernel per generator, each stationary for pi.  Via the
tree product formula these data determine a unique shift-invariant measure on
A^F whose cylinder probabilities this module evaluates exactly.

Symbols are addressed by their index in the alphabet everywhere below;
configurations hold symbol indices in their domain's canonical order, and
a read outside the domain raises MissingCoordinate.

Each spec keeps lookup tables on its own instance, each entry built on first
use: the kernel's scaled integers (see below), its rows' successors (the
nonzero integers), its rows' draw thresholds, the support graph (from those
integers) and the validation problems along every letter s_i^{+-1}, and
pi's.  Along s_i^-1 they derive from s_i's: the kernel
there is P_i reversed, P_rev(a, b) = pi(b) P_i(b, a) / pi(a).  The tables
are keyed by int letter code only (see words), so no path hashes the spec.
kernel_for_letter (a code) and reverse_kernel (a generator, read at its
inverse's code 2 gen + 1), Fraction views kept for the benchmark's tracer
that hold no spec, and graphs.support_edges (a generator, read at code
2 gen) index the tables directly.  A spec derived by with_kernel shares the
entries built for pi and the directions it keeps, and may hold the new kernel
as its ints (_Ints), the letter_scaled entry the engine reads: its Fractions
are built on the first read of kernels.

Validation problems come as (form, law) pairs.  The form is a field's shape
and entry types; the law is positivity, sums and stationarity, checked only
once the form holds.  validate reads the pairs in order (problem_entries)
and keeps its report on the instance.  Where a valid spec is not required,
one gate, require_form, holds a spec to the form halves and pi's laws before
its tables are read: in the scan, cylinder_measure, kernel_for_letter, spec_to_json,
graphs.support_edges, a slide's candidate check and slides.params_to_json.

Exact sums run on ints: scaled puts rationals over the lcm D of their
denominators as the integers x*D, and scaling by D > 0 keeps signs, sums and
equalities, so a Fraction (one gcd) is built per result rather than per term.

The exact engine lives here too: scan_positive_windows enumerates the
positive-measure windows that a window function reads, depth first, under one
window budget (_MAX_WINDOWS), and carries each window's weight as an int
numerator over an int denominator; the window function reads its window (a
_Window dict) directly and runs once per window: a read of an unassigned word
fills the window in place from the successor rows, and the function reads
on.  A function may defer its last read of a word one step outside the
window (_read_last): it then runs once for all the windows that fill that
word, and the scan adds one window per successor of the word's row, each
still counted as one window.  The law it collects stays on ints too, as
weights over one common denominator, so callers sum marginals on ints;
covering_scan checks that a scan covers the space, and enumerate_cylinders
is the scan's form on a fixed domain, its last word a deferred read.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Iterator, Mapping, Sequence

from . import graphs  # graphs calls require_valid, so each reads the other's names at call time
from .errors import BudgetError, InputError, MissingCoordinate, SpecInvalidError
from .words import IDENTITY, LeftConnectedSet, Word, _code, _is_index, _is_word, ball, parent
from .words import word_to_str

Matrix = tuple[tuple[Fraction, ...], ...]

_MAX_WINDOWS = 500_000  # windows of one scan_positive_windows call
_MAX_COORDS = 400  # coordinates of one window
_MAX_SAMPLE_BALL = 200_000  # words of one sample_ball
_ARRAYS = (tuple, list)  # what a spec field, and a kernel row, may be


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
    kernels: tuple[Matrix, ...]  # kernels[gen][a][b], by alphabet position

    def __getattr__(self, name: str):  # a miss: with_kernel's kernels, built once from _held
        if name != "kernels":  # copy and pickle probe names such as __deepcopy__
            raise AttributeError(name)
        held = self._held
        ks = vars(self)["kernels"] = tuple(k.fractions() if type(k) is _Ints else k for k in held)
        return ks

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
        validate checks gen's kernel and reuses the other entries.  kernels is
        built on its first read, so an _Ints kernel stays ints in the engine.
        generators and kernels must be tuples or lists (SpecInvalidError
        otherwise); problems inside them are left to validate."""
        if not (isinstance(self.generators, _ARRAYS) and isinstance(self._held, _ARRAYS)):
            raise SpecInvalidError(["generators and kernels must be tuples or lists"])
        gen = _generator(self, gen)
        held = (*self._held[:gen], kernel, *self._held[gen + 1 :])
        new = MarkovSpec(self.generators, self.alphabet, self.pi, held)
        new.__dict__["_held"] = new.__dict__.pop("kernels")  # kernels: see __getattr__
        built = self.__dict__
        for name in _LETTER_TABLES:
            if name in built:
                getattr(new, name).update(
                    (c, v) for c, v in built[name].items() if c >> 1 != gen
                )
        for name in _PI_TABLES:
            if name in built:
                new.__dict__[name] = built[name]
        return new

    @cached_property
    def _held(self) -> tuple:  # the kernels as given, an _Ints one as its ints
        return self.kernels

    def __reduce__(self):  # copies and pickles carry the fields, not the tables
        return MarkovSpec, (self.generators, self.alphabet, self.pi, self.kernels)

    @cached_property
    def letter_thresholds(self) -> Mapping[int, tuple[tuple[int, ...], ...]]:
        return _LetterTable(self.rank, lambda c: _thresholds(*self.letter_scaled[c]))

    @cached_property
    def letter_scaled(self) -> Mapping[int, tuple[tuple[tuple[int, ...], ...], int]]:
        """(rows, D) along each letter: the kernel's entries as ints over one
        denominator D, the lcm of all of them (see scaled).  Along s_i^-1 they
        are P_i reversed, from s_i's ints P^ over D_i and pi's ints pi^."""

        def make(c: int):
            if not c & 1:
                k = self._held[c >> 1]
                if type(k) is _Ints:
                    return k
                flat, den = scaled([x for row in k for x in row])
                it = iter(flat)
                return tuple(tuple(next(it) for _ in row) for row in k), den
            (rows, den), pi = self.letter_scaled[c - 1], self.pi_scaled[0]
            l = lcm(*pi)  # P_rev(a, b) = pi^(b) P^(b, a) (l / pi^(a)) / (D_i l), then reduced
            nums = [[p * row[a] * (l // q) for p, row in zip(pi, rows)] for a, q in enumerate(pi)]
            g = gcd(den * l, *(x for row in nums for x in row))
            return tuple(tuple(x // g for x in row) for row in nums), den * l // g

        return _LetterTable(self.rank, make)

    @cached_property
    def letter_successors(self) -> Mapping[int, tuple[tuple[tuple[tuple[int, int], ...], int], ...]]:
        """Per source symbol a, the row of letter_scaled as (successors, D):
        the (b, weight) pairs with a nonzero int weight, in symbol order."""

        def make(c: int):
            rows, den = self.letter_scaled[c]
            return tuple((tuple((b, x) for b, x in enumerate(row) if x), den) for row in rows)

        return _LetterTable(self.rank, make)

    @cached_property
    def pi_successors(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """pi_scaled as (successors, D), in the form of a letter_successors row."""
        pi, den = self.pi_scaled
        return tuple((b, x) for b, x in enumerate(pi) if x), den

    @cached_property
    def pi_thresholds(self) -> tuple[int, ...]:
        return _thresholds([self.pi_scaled[0]], self.pi_scaled[1])[0]

    @cached_property
    def pi_scaled(self) -> tuple[tuple[int, ...], int]:
        ints, den = scaled(self.pi)
        return tuple(ints), den

    @cached_property
    def letter_support(self) -> Mapping[int, graphs.TransitionGraph]:
        """Support graph along each letter: the edges (a, b) with positive
        two-point mass pi(a) K(a, b), read as pi^(a) K^(a, b) > 0 on the ints
        of pi_scaled and letter_scaled (along s_i^-1, the reversed ints)."""

        def graph(c: int) -> graphs.TransitionGraph:
            # scaling by D_pi D_K > 0 keeps the product's sign
            pi, rows = self.pi_scaled[0], self.letter_scaled[c][0]
            return graphs.TransitionGraph(self.size, frozenset(
                (a, b) for a, (p, row) in enumerate(zip(pi, rows))
                for b, x in enumerate(row) if p * x > 0
            ))

        return _LetterTable(self.rank, graph)

    @cached_property
    def pi_problems(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """validate's (form, law) problems with pi: form is its length and
        entry types, law its positivity and sum, read once the form holds."""
        if not isinstance(self.pi, _ARRAYS) or len(self.pi) != self.size:
            return ("pi length does not match alphabet",), ()
        bad = _non_rational("pi", self.pi)
        if bad:
            return tuple(bad), ()
        pi, d_pi = self.pi_scaled
        problems = [
            f"pi({self.alphabet[a]!r}) = {self.pi[a]} is not positive"
            for a, p in enumerate(pi) if p <= 0
        ]
        if sum(pi) != d_pi:
            problems.append(f"pi sums to {sum(self.pi)}, not 1")
        return (), tuple(problems)

    @cached_property
    def letter_problems(self) -> Mapping[int, tuple[tuple[str, ...], tuple[str, ...]]]:
        """validate's (form, law) problems with the kernel of each letter's
        generator: form is its shape and entry types, law its negative
        entries, row sums and stationarity for pi, read once the form holds.
        Built only once pi's form holds and the kernel count matches.

        The sums are exact on ints (see scaled): with pi over D_pi and the
        kernel K over D_K (pi_scaled and letter_scaled), a row sums to 1 iff
        its ints sum to D_K, and pi is stationary at b iff
        sum_a pi^(a) K^(a, b) = pi^(b) D_K (both sides times D_pi D_K).  A
        message's Fraction sum is computed only when its check fails."""

        def make(c: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
            gi = c >> 1
            k, n, alpha = self._held[gi], self.size, self.alphabet
            name = self.generators[gi]
            if type(k) is not _Ints:  # ints over one denominator have their form by construction
                if not isinstance(k, _ARRAYS) or len(k) != n or any(
                    not isinstance(row, _ARRAYS) or len(row) != n for row in k
                ):
                    return (f"kernel {name} is not {n}x{n}",), ()
                bad = [m for a, row in enumerate(k)
                       for m in _non_rational(f"kernel {name} row {a}", row)]
                if bad:
                    return tuple(bad), ()
            problems = []
            rows, d_k = self.letter_scaled[2 * gi]
            for a, row in enumerate(rows):
                if any(x < 0 for x in row):
                    problems.append(f"kernel {name} row {alpha[a]!r} has a negative entry")
                if sum(row) != d_k:
                    total = Fraction(sum(row), d_k)
                    problems.append(f"kernel {name} row {alpha[a]!r} sums to {total}, not 1")
            pi = self.pi_scaled[0]
            for b, col in enumerate(zip(*rows)):
                if sum(map(mul, pi, col)) != pi[b] * d_k:
                    problems.append(
                        f"pi is not stationary for kernel {name} at column {alpha[b]!r}"
                    )
                    break
            return (), tuple(problems)

        return _LetterTable(self.rank, make)

    @cached_property
    def form_problems(self) -> tuple[str, ...]:
        """What bars reading the spec's tables (require_form): validate's form
        halves, or once they hold, pi's laws, since the reversed tables
        divide by pi."""
        forms = tuple(m for form, _ in problem_entries(self) for m in form)
        return forms or self.pi_problems[1]

    @cached_property
    def validation(self) -> ValidationReport:
        """validate's report, built on first use."""
        entries = problem_entries(self)
        return ValidationReport(tuple(m for form, law in entries for m in form + law))


_LETTER_TABLES = (
    "letter_thresholds", "letter_support", "letter_scaled", "letter_successors", "letter_problems"
)
_PI_TABLES = ("pi_thresholds", "pi_scaled", "pi_successors", "pi_problems")


class _Ints(tuple):
    """A kernel as (rows, D): its ints over one denominator, in lowest terms."""

    def fractions(self) -> Matrix:
        return tuple(tuple(Fraction(x, self[1]) for x in row) for row in self[0])


class _LetterTable(dict):
    """letter code -> make(code), built on first lookup.  Keys are int codes
    in [0, 2 rank) only (words._is_word); any other key raises InputError."""

    def __init__(self, rank: int, make):
        self.rank, self.make = rank, make

    def __missing__(self, code):
        value = self[code] = self.make(_code(code, self.rank))
        return value


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


def problem_entries(spec: MarkovSpec) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """validate's (form, law) pairs, in its order: the header's, pi's, the
    kernel count's, then each kernel's.  A form problem of the header, of pi
    or of the count ends them, since what follows reads those fields."""
    if not (isinstance(spec.generators, _ARRAYS) and isinstance(spec.alphabet, _ARRAYS)):
        yield ("generators and alphabet must be tuples or lists",), ()
        return
    try:
        distinct = len(set(spec.alphabet))
    except TypeError:  # an unhashable symbol
        yield ("alphabet symbols must be hashable",), ()
        return
    header = []
    if spec.rank < 2:
        header.append(f"rank {spec.rank} < 2: need a non-abelian free group")
    if distinct != spec.size or not distinct:
        header.append("alphabet empty or has duplicate symbols")
    yield (), tuple(header)
    yield spec.pi_problems
    if spec.pi_problems[0]:
        return
    if not isinstance(spec._held, _ARRAYS) or len(spec._held) != spec.rank:
        yield ("kernel count does not match generator count",), ()
        return
    for gi in range(spec.rank):
        yield spec.letter_problems[2 * gi]


def validate(spec: MarkovSpec) -> ValidationReport:
    """Check the spec's form (field shapes and entry types), then its laws
    (full support, normalization, row-stochasticity and stationarity).

    The problems are the halves of problem_entries, in order.  pi's and each
    kernel's pairs are entries of the spec's own tables (MarkovSpec.
    pi_problems and letter_problems), built on first use and carried by
    with_kernel for the directions it keeps, so validating a spec derived
    from a validated one checks only what was not checked yet, in the order
    checking afresh would give.  The report is kept on the instance
    (MarkovSpec.validation).  Anything but a MarkovSpec raises InputError."""
    if not isinstance(spec, MarkovSpec):
        raise InputError(f"chain spec must be a MarkovSpec, got {spec!r}")
    return spec.validation


def require_form(spec: MarkovSpec) -> MarkovSpec:
    """The gate before any table of the spec is read: InputError for anything
    but a MarkovSpec, SpecInvalidError for its form_problems.  The kernels'
    laws are not checked, so a corrupted kernel can still be scanned."""
    if not isinstance(spec, MarkovSpec):
        raise InputError(f"chain spec must be a MarkovSpec, got {spec!r}")
    if spec.form_problems:
        raise SpecInvalidError(spec.form_problems)
    return spec


def require_valid(spec: MarkovSpec) -> MarkovSpec:
    report = validate(spec)
    if not report.ok:
        raise SpecInvalidError(report.problems)
    return spec


@lru_cache(maxsize=0)
def reverse_kernel(spec: MarkovSpec, gen: int) -> Matrix:
    """kernel_for_letter along s_gen^-1, a view kept for the benchmark's tracer,
    which reads its cache_info: maxsize=0 holds (and hashes) no spec."""
    return kernel_for_letter(spec, 2 * _generator(require_form(spec), gen) + 1)


def kernel_for_letter(spec: MarkovSpec, c: int) -> Matrix:
    """The kernel along letter code c as Fractions, a view of spec.letter_scaled
    behind require_form, kept for the benchmark's tracer.  c is checked before
    the table is read, since a bool key would hit a built entry."""
    return _Ints(require_form(spec).letter_scaled[_code(c, spec.rank)]).fractions()


def _generator(spec: MarkovSpec, gen) -> int:
    """gen, checked to be a generator index, an int (not a bool) in [0, rank)."""
    if not _is_index(gen, spec.rank):
        raise InputError(f"generator index {gen!r} outside rank {spec.rank}")
    return gen


# ---------------------------------------------------------------------------
# configurations and cylinder measures
# ---------------------------------------------------------------------------


class Configuration:
    """A partial assignment of symbols to a left-connected domain containing e:
    its values in the domain's canonical order, read through domain._index, which
    a ball builds on first lookup; a word outside the domain raises MissingCoordinate."""

    __slots__ = ("domain", "_values")

    def __init__(self, assignment: Mapping[Word, int]):
        if not isinstance(assignment, Mapping):
            raise InputError(f"assignment must be a mapping, got {assignment!r}")
        domain = LeftConnectedSet(assignment.keys())  # validates the domain
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_values", tuple(assignment[w] for w in domain.words))

    @classmethod
    def _on(cls, domain: LeftConnectedSet, values: tuple) -> "Configuration":
        """The configuration with values in domain.words order on a built domain, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_values", values)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Configuration is immutable")

    def __getitem__(self, w: Word) -> int:
        try:
            return self._values[self.domain._index[w]]
        except KeyError:
            raise MissingCoordinate(w) from None

    def get(self, w: Word, default=None):
        i = self.domain._index.get(w)
        return default if i is None else self._values[i]

    def __contains__(self, w: Word) -> bool:
        return w in self.domain

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.domain)

    def items(self):
        return zip(self.domain.words, self._values)

    def __eq__(self, other) -> bool:
        same = isinstance(other, Configuration) and self.domain == other.domain
        return same and self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __reduce__(self):  # slots behind a setattr that raises: rebuilt from the values
        return Configuration, (dict(self.items()),)

    def __repr__(self) -> str:
        body = ", ".join(f"{w}:{v}" for w, v in self.items())
        return f"Configuration({{{body}}})"


def cylinder_measure(spec: MarkovSpec, phi: Configuration) -> Fraction:
    """Exact measure of the cylinder {x : x_g = phi(g) on the domain}.

    The domain is swept parents-first; each element beyond the identity
    contributes one kernel factor along its tree edge from its parent's value
    (domain._parents), using the reversed kernel when the edge letter is an
    inverse generator, on the ints of pi_scaled and letter_scaled.  The spec
    must pass require_form, and a value that is not a symbol index (an int in
    [0, size)) raises InputError.
    """
    require_form(spec)
    if not isinstance(phi, Configuration):
        raise InputError(f"phi must be a Configuration, got {phi!r}")
    for w, v in phi.items():
        if not _is_index(v, spec.size):
            raise InputError(
                f"symbol {v!r} at {word_to_str(w)} outside alphabet of size {spec.size}"
            )
    (pi, den), rows, values = spec.pi_scaled, spec.letter_scaled, phi._values
    num = pi[values[0]]
    for w, i, v in zip(phi.domain.words[1:], phi.domain._parents[1:], values[1:]):
        k, d = rows[w[0]]
        num, den = num * k[values[i]][v], den * d
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# the exact engine: demand-driven enumeration of positive-measure windows
# ---------------------------------------------------------------------------


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


class _DeadEnd(Exception):
    """A window's fill reached a row with no successor: the branch is dropped."""


class _LastRead(tuple):
    """(head, word), a deferred last read (_read_last), which the scan fans out."""


def _read_last(x, head: tuple, w: Word):
    """head + (x[w],), a window function's value, a tuple, with x[w] its final
    read.  On a scan's window, a w outside it whose parent is in it is not
    filled: the value is _LastRead((head, w)), after the fill's coordinate
    check.  Anything but a scan window (a _Window) is read plainly."""
    if type(x) is _Window and w and w not in x and w[1:] in x:
        if len(x) >= _MAX_COORDS:
            raise BudgetError(f"window grew beyond {_MAX_COORDS} coordinates")
        return _LastRead((head, w))
    return head + (x[w],)


class _Window(dict):
    """{word: symbol}, a scan's window assignment, which the window function
    reads.  A read of an unassigned word fills, in place, the geodesic from it
    down to the assigned region, nearest the region first: each word gets the
    first successor of its row (spec.pi_successors at the identity, else
    letter_successors of its edge letter at its parent's symbol), and one
    branch record (word, successors, index, num, den, position) per word goes
    on stack, so the function reads on.  num / den is the window's weight; a
    record keeps num before the word's factor and den after its D.  A row with
    no successor raises _DeadEnd, which drops the branch."""

    __slots__ = ("rows", "pi", "stack", "num", "den")

    def __init__(self, spec: MarkovSpec):
        self.rows, self.pi = spec.letter_successors, spec.pi_successors
        self.stack, self.num, self.den = [], 1, 1

    def __missing__(self, g: Word) -> int:
        path = [g]  # g, then its ancestors down to the first unassigned word
        while path[-1] and (v := parent(path[-1])) not in self:
            path.append(v)
        n = len(self)
        if n + len(path) > _MAX_COORDS:
            raise BudgetError(f"window grew beyond {_MAX_COORDS} coordinates")
        rows, stack, num, den = self.rows, self.stack, self.num, self.den
        h = path.pop()
        succ, d = rows[h[0]][self[parent(h)]] if h else self.pi
        while True:
            if not succ:
                raise _DeadEnd
            den *= d
            stack.append((h, succ, 0, num, den, n))
            b, p = succ[0]
            num *= p
            self[h] = b
            if not path:
                self.num, self.den = num, den
                return b
            h, n = path.pop(), n + 1
            succ, d = rows[h[0]][b]


def scan_positive_windows(spec: MarkovSpec, fn) -> WindowScan:
    """Run fn against every minimal positive-measure window it can observe.

    fn receives the window (a _Window dict, not to be written) and must be a
    deterministic function of the coordinates it reads, with hashable values.
    It runs once per window: a read outside the window fills it in place (see
    _Window), and after each window the scan advances the deepest branch with
    a next successor, the window truncated to it last in first out, so the
    windows come depth first in symbol order.  A row with no successor (an
    unnormalised candidate's) drops its branch.  No read of the window
    raises, so what fn raises itself, MissingCoordinate included, propagates.
    The windows are prefix-free and cover the space, so their weights sum to
    exactly 1.  Raises BudgetError beyond _MAX_WINDOWS windows or a window of
    more than _MAX_COORDS coordinates, and InputError for an unhashable value.

    The one exception to a run per window is a deferred last read: an fn that
    returns _LastRead((head, w)) (see _read_last), w one step outside the
    window, runs once for all the windows that fill w.  The scan adds one
    window per successor (b, p) of w's row, valued head + (b,) and weighing
    num p over den D, in symbol order, and counts each against the budget:
    the windows, weights, key order, den and failures of filling w and
    running fn once per successor.

    A window's weight is carried as ints num / den: num is the product of its
    scaled pi and kernel entries (spec.pi_successors, spec.letter_successors)
    and den the product of their denominators D, one per coordinate.  The
    scan sums num per (value, den) and at the end puts the whole law over one
    int, the lcm of all dens (WindowScan.weights and .den), so callers sum and
    compare it on ints.  Its Fractions (WindowScan.law) are the same, in the
    same key order, as summing each window's weight as a Fraction.  The spec
    must pass require_form; its kernels' laws are not checked.  An fn that
    is not callable raises InputError before any table is read.
    """
    require_form(spec)
    if not callable(fn):
        raise InputError(f"window function must be callable, got {fn!r}")
    sums: dict = {}  # {value: {den: sum of num}}, values in the order first seen
    failures: list = []
    windows = 0
    window = _Window(spec)
    rows, stack, popitem = window.rows, window.stack, window.popitem
    while True:
        try:
            value = fn(window)
        except _DeadEnd:
            pass
        else:
            num, den = window.num, window.den
            try:  # sums.get raises TypeError on an unhashable value
                if type(value) is _LastRead:  # one window per successor of the deferred word
                    head, w = value
                    succ, d = rows[w[0]][window[w[1:]]]
                    den *= d
                    windows += len(succ)
                    for b, p in succ:
                        key = head + (b,)
                        by_den = sums.get(key)
                        if by_den is None:
                            by_den = sums[key] = {}
                        by_den[den] = by_den.get(den, 0) + num * p
                else:
                    windows += 1
                    by_den = sums.get(value)
                    if by_den is None:
                        by_den = sums[value] = {}
                    by_den[den] = by_den.get(den, 0) + num
            except TypeError:
                raise InputError(f"window function value {value!r} is not hashable") from None
            if windows > _MAX_WINDOWS:
                raise BudgetError(f"more than {_MAX_WINDOWS} positive windows")
            if not value and len(failures) < 5:  # a _LastRead is a 2-tuple: never falsy
                failures.append((dict(window), value))
        while stack:  # the deepest branch with a next successor
            h, succ, i, num, den, n = stack[-1]
            i += 1
            if i < len(succ):
                break
            stack.pop()
        else:
            break
        for _ in range(len(window) - n):
            popitem()
        b, p = succ[i]
        stack[-1] = h, succ, i, num, den, n
        window[h] = b
        window.num, window.den = num * p, den
    den = lcm(*{d for by_den in sums.values() for d in by_den})
    weights = {
        value: sum(num * (den // d) for d, num in by_den.items()) for value, by_den in sums.items()
    }
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
    parents first, each read filling one word in place, so each window is
    one cylinder, zero-probability branches are pruned, and the pairs come
    depth first in symbol order.  The last word past e, whose parent the
    function has read, is a deferred last read (_read_last): the function
    runs once per cylinder on the other words, and the scan fans it out into
    one cylinder, one window, per successor.  The spec must pass
    require_form; for a valid spec the measures sum to exactly 1.
    """
    yield from _cylinder_scan(spec, domain).law.items()


def _cylinder_scan(spec: MarkovSpec, domain: LeftConnectedSet) -> WindowScan:
    """The window scan on a fixed domain (enumerate_cylinders), its law kept
    on ints: weights keyed by value tuple, over den.  InputError unless the
    domain is a LeftConnectedSet."""
    if not isinstance(domain, LeftConnectedSet):
        raise InputError(f"domain must be a LeftConnectedSet, got {domain!r}")
    *head, last = domain.words
    return scan_positive_windows(spec, lambda x: _read_last(x, tuple(x[w] for w in head), last))


# ---------------------------------------------------------------------------
# sampling: splittable, keyed by (seed, word), order-independent
# ---------------------------------------------------------------------------

_UNIT_DEN = 1 << 64


class SampledTree:
    """A lazy configuration drawn from the spec, defined on the whole group.

    The value at g is a function of (seed, g) alone: a variate k in [0, 2^64)
    is derived by hashing the serialized word with a keyed blake2b, and the
    symbol is the first b with k / 2^64 < S_b, S_b the running sums of the
    kernel row of g's parent value (of pi at the identity, drawn when the tree
    is made).  Each draw, the root's too, bisects the spec's integer
    thresholds ceil(S_b 2^64): for integer k, k < ceil(S_b 2^64) iff
    k / 2^64 < S_b.  The spec must pass require_valid, checked here once, so
    every row's last threshold is 2^64 > k.  One draw rule (_draw) gives
    g = l.h from its parent's value and hash input token(l) + "." + text(h),
    the bytes of word_to_str(g).encode(), and it has two readers.  Lookups
    memoize per tree and draw a miss from its memoized parent, or a deeper
    miss's ancestors first, nearest the root first, so they do not depend on
    evaluation order; sample_ball reads a fixed domain.  Keys are checked
    before the memo is read, so a hit and a miss agree: anything but a tuple
    of reduced letter codes below 2 rank raises InputError.
    """

    __slots__ = ("spec", "_rows", "_keyed", "_tokens", "_memo", "_texts")

    def __init__(self, spec: MarkovSpec, seed: int):
        self.spec = require_valid(spec)
        self._rows = spec.letter_thresholds
        key = _hash_key(seed, "seed").to_bytes(8, "big", signed=False)
        self._keyed = hashlib.blake2b(key=key, digest_size=8)  # copied per draw
        self._tokens = tuple(word_to_str((c,)).encode() for c in range(2 * spec.rank))
        h = self._keyed.copy()
        h.update(b"e")
        root = bisect_right(spec.pi_thresholds, int.from_bytes(h.digest(), "big"))
        self._memo: dict[Word, int] = {IDENTITY: root}
        self._texts: dict[Word, bytes] = {IDENTITY: b""}  # drawn word -> its hash input

    def _draw(self, c: int, value: int, text: bytes) -> tuple[int, bytes]:
        """(value, hash input) of the word c.k, from k's value and hash input
        (b"" at the identity).  The letter table checks c before the token is read."""
        row = self._rows[c][value]
        text = self._tokens[c] + b"." + text if text else self._tokens[c]
        h = self._keyed.copy()
        h.update(text)
        return bisect_right(row, int.from_bytes(h.digest(), "big")), text

    def __getitem__(self, w: Word) -> int:
        # a Word is reduced by construction, and the letter table checks each code it draws
        if type(w) is not Word and not _is_word(w, len(self._tokens)):
            raise InputError(f"not a reduced word of rank {self.spec.rank}: {w!r}")
        memo = self._memo
        value = memo.get(w)
        if value is not None:
            return value
        texts, k = self._texts, w[1:]  # a miss is not the identity, which is memoized
        value = memo.get(k)
        if value is None:  # the geodesic from k down to its closest memoized ancestor
            chain = [k]
            while (value := memo.get(chain[-1][1:])) is None:
                chain.append(chain[-1][1:])
            for g in reversed(chain):
                value, texts[g] = self._draw(g[0], value, texts[g[1:]])
                memo[g] = value
        value, texts[w] = self._draw(w[0], value, texts[k])
        memo[w] = value
        return value


def _thresholds(rows: Sequence[Sequence[int]], den: int) -> tuple[tuple[int, ...], ...]:
    """For each row of ints over den, ceil(S_b 2^64) for its running sums S_b:
    nondecreasing, as a valid row's entries are nonnegative, so bisection
    finds the first b with k below it, and ending at exactly 2^64, as a valid
    row sums to den."""
    return tuple(tuple(-(-s * _UNIT_DEN // den) for s in accumulate(row)) for row in rows)


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
    """One exact sample of the chain restricted to the ball of given radius:
    the sampled tree's values on the ball, in its canonical order, read by
    the tree's draw rule once per word from its parent's value and hash input,
    found at the parent position the ball records, with no memo or key check."""
    tree = SampledTree(spec, seed)
    dom = ball(spec.rank, radius, budget=_MAX_SAMPLE_BALL)
    draw = tree._draw
    values, texts = [tree[IDENTITY]], [b""]
    for w, i in zip(dom.words[1:], dom._parents[1:]):
        value, text = draw(w[0], values[i], texts[i])
        values.append(value)
        texts.append(text)
    return Configuration._on(dom, tuple(values))


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trips)
# ---------------------------------------------------------------------------


def spec_to_json(spec: MarkovSpec) -> dict:
    require_form(spec)
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
