"""Edge slides: recodings that transfer support edges between directions.

A slide is parameterized by two distinct generators u, t and a special set
of u-support edges.  Its rewrite rule replaces a t-step by ut or u^-1 t on
configurations flagged by a local detector, so the recoded chain keeps every
restriction except the one along t, whose support gains the slid edges (and
with them aperiodicity).  The flag reads the symbol one u-step behind, the
current symbol, and the symbol at the branch distance ahead in the u
direction, so the rule has window radius n_max + 2 where n_max is the
largest branch distance among slide targets.  The rule's step for t and for
t^-1 is one closure each (_slide_step): it tests both flags that could move
the letter, up's then down's, on read words built with the rule, and raises
ParamsError if both pass.  verify_slide checks the recoded measure's laws
against a candidate's cylinders on ints, each law a scan's weights over its
one denominator, compared by cross-multiplication; no Fraction is built.

The pushforward changes only the kernel along t.  The rule decides where a
t-step goes by reading the u-line through t (the symbols at u^k t), which
given x_t is a stationary Markov chain independent of x_e; so the new kernel
factors as q_t = P_t M with M(c, .) the law of the destination symbol given
x_t = c (sum-product on the tree), at a cost polynomial in the alphabet size.
M is the identity plus two moved entries per slide edge, so it is kept sparse.
M and q_t are formed on the spec's pi_scaled and letter_scaled ints, each over
one denominator, and the derived spec holds q_t as those ints (chains._Ints):
its Fractions are built only when a caller reads kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .chains import Configuration, MarkovSpec, Matrix, SampledTree, covering_scan
from .chains import _cylinder_scan, _Ints, derive_seed
from .chains import require_form, require_valid
from .cocycles import CocycleTable, RecodedView, RewriteRule, identity_rule, recode_on
from .errors import InputError, ParamsError, TreeshiftError
from .graphs import BranchData, _edge_set, branch_data, classify, is_special, special_sets
from .graphs import support_edges
from .words import IDENTITY, LeftConnectedSet, Word, ball, inverse, multiply, single


@dataclass(frozen=True)
class SlideParams:
    """One slide: its parameters, and the rewrite rule they define (rule)."""

    rank: int
    u: int
    t: int
    edges: frozenset[tuple[int, int]]
    branch: tuple[tuple[int, BranchData], ...]  # per slide-edge target, sorted

    @property
    def n_max(self) -> int:
        return max((data.n for _, data in self.branch), default=0)

    @cached_property
    def rule(self) -> RewriteRule:
        """The slide's rewrite rule, built from the parameters alone: ParamsError
        unless the branch targets are exactly the edges' targets."""
        if {b for b, _ in self.branch} != {b for _, b in self.edges}:
            raise ParamsError("slide branch targets are not the slide edges' targets")
        if not self.edges:
            return identity_rule(self.rank)
        u, t = 2 * self.u, 2 * self.t
        w_t, w_ut, w_uinv_t = single(t), Word((u, t)), Word((u ^ 1, t))
        # per active code: the shifts whose flags move it up and down, then its up, down and
        # stay images; t moves up when ut.x is flagged, down when t.x is; t^-1 undoes them (x, u.x)
        moves = {
            t: (w_ut, w_t, w_ut, w_uinv_t, w_t),
            t ^ 1: (IDENTITY, single(u), *map(inverse, (w_ut, w_uinv_t, w_t))),
        }
        return RewriteRule(
            rank=self.rank,
            window_radius=self.n_max + 2,
            max_output_length=2,
            steps={c: _slide_step(self, *move) for c, move in moves.items()},
            images=[w for move in moves.values() for w in move[2:]],
        )

    def __reduce__(self):  # copies and pickles carry the fields, not the cached rule
        return SlideParams, (self.rank, self.u, self.t, self.edges, self.branch)


def build_slide_params(
    spec: MarkovSpec, u: int, t: int, edges: Iterable[tuple[int, int]]
) -> SlideParams:
    """Validate a slide edge set against the spec and derive its branch data:
    the spec must pass require_valid, the edges is_special's rule (InputError
    unless (int, int) tuples: graphs._edge_set), ParamsError on any misfit."""
    require_valid(spec)
    edge_set = _edge_set(edges)
    for gi in (u, t):
        if not _below(gi, spec.rank):
            raise ParamsError(f"generator index {gi!r} is not an int in [0, {spec.rank})")
    if u == t:
        raise ParamsError("slide directions u and t must be distinct generators")
    g = support_edges(spec, u)
    if not edge_set <= g.edges:
        raise ParamsError("slide edges must be u-support edges")
    if not is_special(g, edge_set):
        raise ParamsError("slide edge set is not special for the u-restriction")
    branch = tuple(
        (b, branch_data(g, b)) for b in sorted({b for _, b in edge_set})
    )
    return SlideParams(spec.rank, u, t, edge_set, branch)


def _below(i, n: int) -> bool:
    """Whether i is an int index (not a bool) in [0, n)."""
    return type(i) is int and 0 <= i < n


def _slide_step(
    params: SlideParams, up: Word, down: Word, up_word: Word, down_word: Word, stay_word: Word
):
    """(x, offset) -> the image of an active letter at offset.x: up_word when
    (up offset).x is flagged, down_word when (down offset).x is, else stay_word,
    and ParamsError when both are.  A translate is flagged when (x_{u^-1}, x_e)
    is a slide edge (a, b) and x_{u^n} = eta_b, n the branch distance of b.
    Both flags are tested, up's first, each reading u^-1 shift, shift and, on
    an edge, u^n shift, words built here once.  The two shifts are one u-step
    apart, so the lower is read twice: as its own shift and as the other's
    u^-1 shift."""
    u = 2 * params.u
    edges, eta = params.edges, {b: data.eta for b, data in params.branch}

    def around(shift: Word) -> tuple[Word, dict[int, Word]]:  # u^-1 shift, u^n shift per target
        back = multiply(single(u ^ 1), shift)
        return back, {b: multiply(Word((u,) * data.n), shift) for b, data in params.branch}

    back_up, ahead_up = around(up)
    back_down, ahead_down = around(down)

    def step(x, offset: Word) -> Word:
        a, b = x[multiply(back_up, offset)], x[multiply(up, offset)]
        moved_up = (a, b) in edges and x[multiply(ahead_up[b], offset)] == eta[b]
        a, b = x[multiply(back_down, offset)], x[multiply(down, offset)]
        moved_down = (a, b) in edges and x[multiply(ahead_down[b], offset)] == eta[b]
        if moved_up and moved_down:
            raise ParamsError("conflicting slide conditions: edge set is not special")
        return up_word if moved_up else down_word if moved_down else stay_word

    return step


def _checked(spec: MarkovSpec, params: SlideParams) -> SlideParams:
    """The parameters, which must be exactly what build_slide_params derives from
    the spec for the same u, t and edge set (rank and branch data included)."""
    if not isinstance(params, SlideParams):
        raise InputError(f"slide parameters must be SlideParams, got {params!r}")
    if params != build_slide_params(spec, params.u, params.t, params.edges):
        raise ParamsError("slide parameters do not match the spec")
    return params


def pushforward(spec: MarkovSpec, params: SlideParams) -> MarkovSpec:
    """The recoded measure, as a spec: kernels off t unchanged; the t kernel
    is the exact law of x_{w(t,x)} given x_e.

    With h(b) = P_u^{n_b}(b, eta_b) the probability that the flag's branch
    test passes from target b (one kernel entry, since the u-walk from b to
    the branch vertex is deterministic), and M(c, .) the law of the destination symbol
    given x_t = c:
      down: for (a, c) in E, M(c, a) += R_u(c, a) h(c)  (the step moves to u^-1 t)
      up:   for (c, d) in E, M(c, d) += P_u(c, d) h(d)  (the step moves to u t)
      stay: M(c, c) = 1 - (mass moved from c)
    and q_t = P_t M, with R_u(c, a) = pi(a) P_u(a, c) / pi(c) taken for these
    entries alone.  M (its diagonal and moved entries) and q_t are formed on
    the spec's pi_scaled and letter_scaled ints, each over one denominator,
    and the derived spec holds q_t as its ints, building no Fraction until
    its kernels are read.  No window is enumerated, no rule is built."""
    return _pushforward(spec, _checked(spec, params))


def _pushforward(spec: MarkovSpec, params: SlideParams) -> MarkovSpec:
    """pushforward on parameters derived from this spec.  M's and q_t's ints are
    divided by the gcd of their denominator and entries, so q_t's are what scaled
    builds from its Fractions (the lcm of the reduced N_i / D is D / gcd(D, N))."""
    if not params.edges:
        return spec
    pi = spec.pi_scaled[0]
    p_u, d_u = spec.letter_scaled[2 * params.u]
    # the u-walk from b to the branch vertex path[-2] is forced (branch_data): probability 1
    h = {b: p_u[data.path[-2]][data.eta] for b, data in params.branch}
    # over D_u^2 l: P_u(a, b) h(b) = P_u^(a, b) h^(b) / D_u^2, and R_u(b, a) h(b) is that times
    # pi^(a) / pi^(b); l, the lcm of pi^ at the targets, clears the second denominator
    l = lcm(*(pi[b] for b in h))
    # special sets have disjoint sources and targets: the rule's conflict branch is unreachable
    moved = []  # M's entries (c, d, M^(c, d)) off its diagonal, down and up
    for a, b in params.edges:
        x = p_u[a][b] * h[b] * l
        moved += ((b, a, x // pi[b] * pi[a]), (a, b, x))
    g = gcd(d_u * d_u * l, *(x for _, _, x in moved))  # it divides each stay int too
    d_m, moved = d_u * d_u * l // g, [(c, d, x // g) for c, d, x in moved]
    stay = [d_m] * spec.size
    for c, _, x in moved:
        stay[c] -= x
    p_t, d_t = spec.letter_scaled[2 * params.t]
    nums = []
    for row in p_t:  # row of P_t M: the stay column, then each moved entry (repeats add up)
        out = list(map(mul, row, stay))
        for c, d, x in moved:
            out[d] += row[c] * x
        nums.append(out)
    g = gcd(d_t * d_m, *(x for row in nums for x in row))
    rows = tuple(tuple(x // g for x in row) for row in nums)
    return require_valid(spec.with_kernel(params.t, _Ints((rows, d_t * d_m // g))))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class SlideReport:
    double_recode_identity: bool
    orbit_surjective: bool
    markov_factorization: bool
    support_contains_slid_edges: bool
    endpoints_aperiodic: bool
    q_t: Matrix

    def _flags(self) -> dict[str, bool]:
        """The checked claims by field name: every bool field."""
        return {f.name: v for f in fields(self) if isinstance(v := getattr(self, f.name), bool)}

    @property
    def all_ok(self) -> bool:
        return all(self._flags().values())

    def to_json(self, spec: MarkovSpec) -> dict:
        return {
            **self._flags(),
            "all_ok": self.all_ok,
            "q_t": [[str(x) for x in row] for row in self.q_t],
        }


def _markov_check_domains(spec: MarkovSpec, params: SlideParams) -> list[LeftConnectedSet]:
    u, t = 2 * params.u, 2 * params.t
    doms = [[IDENTITY]] + [[IDENTITY, single(c)] for c in range(2 * spec.rank)]
    doms += [[IDENTITY, single(t), Word((v, t))] for v in (u, u ^ 1)]
    if spec.size <= 2:
        doms.append([IDENTITY, single(t), Word((t, t))])
    return list(map(LeftConnectedSet, doms))


def _check_laws(
    spec: MarkovSpec, params: SlideParams
) -> Iterator[tuple[LeftConnectedSet, dict[tuple, int], int]]:
    """(domain, weights, den) for every _markov_check_domains domain: its exact
    recoded law is {values: weights[values] / den}, values in domain order.

    Domains are grouped by their edge letter at e, the last letter of their
    words ({e} joins the first group), and each group's union is scanned once,
    its window function the recoding on the union (cocycles.recode_on), whose
    plan is built once per scan.  A domain's law is the joint law's marginal,
    summed on the scan's ints over its one denominator (WindowScan.weights,
    .den), each key picked by an itemgetter over the union indices of the
    domain's words; no Fraction is built.  Keys come in the order first seen."""
    rule = params.rule
    groups: dict[int, list[LeftConnectedSet]] = {}
    for domain in _markov_check_domains(spec, params):
        edge = domain.words[-1][-1] if len(domain) > 1 else 0  # {e} comes first: s1's group
        groups.setdefault(edge, []).append(domain)
    for members in groups.values():
        union = LeftConnectedSet(w for domain in members for w in domain)
        scan = covering_scan(spec, recode_on(rule, union))
        for domain in members:
            at = [union._index[w] for w in domain.words]
            # e is the union's first word, so {e}, the one domain of one word, is the slice [:1]
            key = itemgetter(*at) if len(at) > 1 else itemgetter(slice(1))
            sums: dict[tuple, int] = {}
            get = sums.get
            for k, x in zip(map(key, scan.weights), scan.weights.values()):
                sums[k] = get(k, 0) + x
            yield domain, sums, scan.den


def _is_cylinder_law(candidate: MarkovSpec, domain: LeftConnectedSet, sums: dict, den: int) -> bool:
    """Whether {values: sums[values] / den} is the candidate's cylinder law on
    the domain.  Both hold positive weights only (a recoded window and a
    scanned cylinder have positive weight), so they are equal iff they have
    the same keys and x * den_c == y * den on each, y / den_c the cylinder's."""
    cylinders = _cylinder_scan(candidate, domain)
    weights, den_c = cylinders.weights, cylinders.den
    return sums.keys() == weights.keys() and all(
        x * den_c == weights[k] * den for k, x in sums.items()
    )


def _check_candidate(spec: MarkovSpec, candidate: MarkovSpec) -> None:
    """Raise InputError unless the candidate is a MarkovSpec that passes the
    gate chains.require_form (validate's form halves and pi's laws, which a
    slide keeps), then has the spec's generators and alphabet as sequences."""
    if not isinstance(candidate, MarkovSpec):
        raise InputError(f"candidate must be a MarkovSpec, got {candidate!r}")
    if candidate.form_problems:
        raise InputError("candidate: " + "; ".join(candidate.form_problems))
    same = tuple(candidate.generators) == tuple(spec.generators)
    if not (same and tuple(candidate.alphabet) == tuple(spec.alphabet)):
        raise InputError("candidate spec must have the spec's generators and alphabet")


def _orbit_covered(table: CocycleTable, ball2: LeftConnectedSet, ball4: LeftConnectedSet) -> bool:
    """Whether the cocycle words w(h, x), h in ball4, cover ball2.  ball4 is
    walked in canonical order and the walk stops once ball2 is covered:
    coverage only grows, so the answer is that of the full image."""
    missing = set(ball2)
    for h in ball4:
        missing.discard(table.omega(h))
        if not missing:
            return True
    return False


_SAMPLE_SEED = 2024  # verify_slide's sampled trees are derive_seed(_SAMPLE_SEED, i)


def verify_slide(
    spec: MarkovSpec,
    params: SlideParams,
    *,
    candidate: MarkovSpec | None = None,
    samples: int = 25,
) -> SlideReport:
    """Check the slide's claims against the given spec.

    The Markov check compares every check domain's recoded law with the
    candidate's cylinder law on that domain, both on ints: the recoded law is
    an int marginal of one window scan per edge letter at e, over that scan's
    den (_check_laws), and the cylinder law the weights of the candidate's
    scan of the domain over its den, the scan of enumerate_cylinders.  Two
    laws are equal iff they have the same keys and x * den_c == y * den on
    each (_is_cylinder_law).  Every domain is scanned and compared, and the
    flag is the AND of all of them.  The map-level checks run on `samples`
    sampled trees x, the i-th seeded derive_seed(_SAMPLE_SEED, i): recoding
    twice restores x on ball(rank, 2), and the cocycle words of ball(rank, 4)
    cover ball(rank, 2).  The orbit check stops once they do (_orbit_covered);
    with checked parameters the slide's conflict branch is unreachable, so the
    skipped words hide no error.  samples=0 skips both sampled checks and
    reports them True; a negative or non-int samples raises InputError.

    candidate defaults to the exact pushforward, which checks params.  A
    given candidate must be a MarkovSpec with the spec's generators and
    alphabet that passes the gate chains.require_form (validate's form checks
    and pi's laws), or InputError is raised before anything is scanned.  Its
    kernels' laws are not checked, so callers can test that a corrupted
    kernel or a dropped transition is caught.
    """
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 0:
        raise InputError(f"samples must be a non-negative int, not {samples!r}")
    if candidate is None:
        candidate = pushforward(spec, params)
    else:
        _checked(spec, params)
        _check_candidate(spec, candidate)
    rule, rank = params.rule, spec.rank

    double_ok = orbit_ok = True
    ball2 = ball(rank, 2)
    ball4 = ball(rank, 4)
    for i in range(samples):
        x = SampledTree(spec, derive_seed(_SAMPLE_SEED, i))
        y = RecodedView(rule, x)
        z = RecodedView(rule, y)
        if any(z[h] != x[h] for h in ball2):
            double_ok = False
        if not _orbit_covered(y, ball2, ball4):  # y's words are w(., x)
            orbit_ok = False

    # a list, not a generator: every domain is scanned and compared, whatever the first says
    markov_ok = all([_is_cylinder_law(candidate, *law) for law in _check_laws(spec, params)])

    q = candidate.kernels[params.t]
    rho_graph = support_edges(candidate, params.t)  # both pis are positive: q_t's support
    mu_t = support_edges(spec, params.t)
    rho_edges, cls = rho_graph.edges, rho_graph.class_of
    support_ok = (
        mu_t.edges <= rho_edges
        and all((alpha, b) in rho_edges for a, b in params.edges for alpha in mu_t.in_neighbors(a))
        and all(cls[a] == cls[b] for a, b in params.edges | mu_t.edges)
    )

    aperiodic_ok = all(rho_graph.aperiodic(v) for edge in params.edges for v in edge)

    return SlideReport(double_ok, orbit_ok, markov_ok, support_ok, aperiodic_ok, q)


# ---------------------------------------------------------------------------
# the pipeline to a generator-ergodic chain
# ---------------------------------------------------------------------------


def _slide_round(
    spec: MarkovSpec, u: int, a: int, slides: list[SlideParams]
) -> MarkovSpec:
    """Slide both halves of the spanning tree of a's u-class onto every other
    generator, in generator order."""
    for edge_set in special_sets(spec, u, a):
        if not edge_set:
            continue
        for t in range(spec.rank):
            if t == u:
                continue
            params = build_slide_params(spec, u, t, edge_set)
            spec = _pushforward(spec, params)
            slides.append(params)
    return spec


def generator_ergodic_pipeline(
    spec: MarkovSpec,
) -> tuple[MarkovSpec, tuple[SlideParams, ...]]:
    """Slide until every generator restriction is ergodic and essentially free.

    Stage 1 spreads one aperiodic class across all directions; the following
    sweeps repeat the construction with every generator as the source until
    classification passes.  The sweep count is bounded; exceeding the bound
    signals an implementation bug, not an obstruction.  The output is the
    iterated pushforward of each slide's input spec: the law of the composite
    recoding only through the first slide, as a later slide reads a u-line
    an earlier one may have conditioned (TestCompositePairLaw's xfail test).
    """
    c = classify(spec)  # requires a valid spec
    if c.generator_ergodic:
        return spec, ()
    if not c.properly_ergodic:
        raise InputError("pipeline requires a properly ergodic chain")
    # the smallest (generator, symbol) in an aperiodic class; classes are sorted by smallest symbol
    u0, a = next((gi, min(cls)) for gi, r in enumerate(c.per_generator)
                 for cls, periodic in zip(r.classes, r.periodic) if not periodic)
    slides: list[SlideParams] = []
    spec = _slide_round(spec, u0, a, slides)
    for _ in range(spec.size * spec.rank + 2):
        if classify(spec).generator_ergodic:
            return spec, tuple(slides)
        for u in range(spec.rank):
            spec = _slide_round(spec, u, a, slides)
    raise TreeshiftError("pipeline did not stabilize: implementation bug")


def replay(
    slides: Sequence[SlideParams], x, radius: int, rank: int | None = None
) -> Configuration:
    """Apply each slide's recoding in order and materialize on ball(radius).

    The recodings compose lazily, so x may be any coordinate map (a sampled
    tree, a large configuration); coordinates are pulled through the tower on
    demand: each inner slide is a RecodedView, and the last slide's recoding
    (the identity rule's, for no slides) is read on the ball in one pass,
    cocycles.recode_on.  A Mapping is read as the Configuration it gives: a
    word outside its domain raises MissingCoordinate, and a bad domain
    DomainError; anything else is checked by the cocycles' one rule (a
    Sequence, such as a list, tuple, str or bytes, is no coordinate map).
    rank is taken from the slides when present; every slide must have that
    rank, and slides must be a list or tuple of SlideParams (InputError
    otherwise, as for x).  Parameters whose branch targets are not their
    edges' targets raise ParamsError (SlideParams.rule).
    """
    if not isinstance(slides, (list, tuple)) or not all(
        isinstance(params, SlideParams) for params in slides
    ):
        raise InputError("replay applies a list or tuple of SlideParams")
    if rank is None:
        if not slides:
            raise InputError("replay of an empty slide sequence needs an explicit rank")
        rank = slides[0].rank
    if any(params.rank != rank for params in slides):
        raise InputError(f"replay at rank {rank} of slides of ranks {[p.rank for p in slides]}")
    view = Configuration(x) if isinstance(x, Mapping) else x
    for params in slides[:-1]:
        view = RecodedView(params.rule, view)
    dom = ball(rank, radius)
    outer = slides[-1].rule if slides else identity_rule(rank)
    return Configuration._on(dom, recode_on(outer, dom)(view))


# ---------------------------------------------------------------------------
# parameter (de)serialization
# ---------------------------------------------------------------------------


def params_to_json(spec: MarkovSpec, params: SlideParams) -> dict:
    """The parameters by generator name and symbol.  The spec must pass the
    gate chains.require_form, and the parameters must be SlideParams
    (InputError otherwise) that fit it: its rank, u and t generators of it,
    and every edge and branch symbol one of its symbols (ParamsError otherwise)."""
    require_form(spec)
    if not isinstance(params, SlideParams):
        raise InputError(f"slide parameters must be SlideParams, got {params!r}")
    symbols = [v for edge in params.edges for v in edge]
    symbols += [v for b, data in params.branch for v in (b, *data.path, data.eta)]
    if not (
        params.rank == spec.rank
        and all(_below(gi, spec.rank) for gi in (params.u, params.t))
        and all(_below(v, spec.size) for v in symbols)
    ):
        raise ParamsError("slide parameters do not fit the spec's rank and alphabet")
    alpha = spec.alphabet
    return {
        "u": spec.generators[params.u],
        "t": spec.generators[params.t],
        "E": [[alpha[a], alpha[b]] for a, b in sorted(params.edges)],
        "branch": {
            str(alpha[b]): {
                "n": data.n,
                "path": [alpha[v] for v in data.path],
                "eta": alpha[data.eta],
            }
            for b, data in params.branch
        },
    }


def params_from_json(spec: MarkovSpec, obj) -> SlideParams:
    require_valid(spec)
    if not isinstance(obj, dict) or "u" not in obj or "t" not in obj or "E" not in obj:
        raise InputError("slide params must be an object with u, t, E")
    u = spec.generator_index(obj["u"])
    t = spec.generator_index(obj["t"])
    pairs = obj["E"]
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise InputError("slide params E must be a list of [a, b] symbol pairs")
    edges = [(spec.symbol_index(a), spec.symbol_index(b)) for a, b in pairs]
    return build_slide_params(spec, u, t, edges)
