"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here recomputes results from first principles (full enumeration,
explicit products, BFS) without going through the code paths under test,
except the last section.  That one holds test helpers, not oracles: spec
builders from plain containers, and generic rule checks (involution, past
preservation, inverse pairs) run on the package's own window scan.
"""

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from treeshift import chains
from treeshift.chains import (
    Configuration,
    MarkovSpec,
    Matrix,
    SampledTree,
    ValidationReport,
    WindowScan,
    covering_scan,
    derive_seed,
    scan_positive_windows,
)
from treeshift.cocycles import CocycleTable, RecodedView, RewriteRule, cocycle
from treeshift.errors import (
    BudgetError,
    InputError,
    MissingCoordinate,
    ParamsError,
    SpecInvalidError,
)
from treeshift.graphs import BranchData
from treeshift.words import (
    IDENTITY,
    LeftConnectedSet,
    Letter,
    Word,
    ball,
    edge_letter,
    in_past,
    inverse,
    multiply,
    parent,
    single,
)


def full_config_prob(spec: MarkovSpec, words, values) -> Fraction:
    """Probability of one full configuration, by the defining tree product.

    Reverse-direction factors are computed inline from the two-point joint
    law pi(b)P(b,a); no kernel helper from the package is used.
    """
    pos = {w: i for i, w in enumerate(words)}
    total = Fraction(1)
    for i, w in enumerate(words):
        v = values[i]
        if w.is_identity:
            total *= spec.pi[v]
        else:
            pv = values[pos[parent(w)]]
            l = edge_letter(w)
            k = spec.kernels[l.gen]
            if l.sign > 0:
                total *= k[pv][v]
            else:
                total *= spec.pi[v] * k[v][pv] / spec.pi[pv]
        if total == 0:
            return total
    return total


def marginal_table(spec: MarkovSpec, big_domain, sub_words) -> dict:
    """Marginal law on sub_words obtained by summing full-domain probabilities.

    big_domain: iterable of Words sorted parents-first (a LeftConnectedSet
    works).  Returns {tuple of values on sub_words: exact probability}.
    """
    words = list(big_domain)
    sub_pos = [words.index(w) for w in sub_words]
    n = spec.size
    table: dict = {}
    for values in itertools.product(range(n), repeat=len(words)):
        p = full_config_prob(spec, words, values)
        if p == 0:
            continue
        key = tuple(values[i] for i in sub_pos)
        table[key] = table.get(key, Fraction(0)) + p
    return table


def brute_marginal(spec: MarkovSpec, big_domain, phi: dict) -> Fraction:
    """Measure of the cylinder of phi via summation over all extensions."""
    words = list(big_domain)
    fixed = {words.index(w): v for w, v in phi.items()}
    free = [i for i in range(len(words)) if i not in fixed]
    n = spec.size
    total = Fraction(0)
    for fill in itertools.product(range(n), repeat=len(free)):
        values = [0] * len(words)
        for i, v in fixed.items():
            values[i] = v
        for i, v in zip(free, fill):
            values[i] = v
        total += full_config_prob(spec, words, values)
    return total


def left_connected_subsets(domain, max_size=None):
    """All left-connected subsets of the domain that contain the identity.

    Grown by BFS over parent-closed subsets; domain must itself be a
    LeftConnectedSet (parents of every element are present).
    """
    words = list(domain)
    children = {w: [] for w in words}
    for w in words:
        if not w.is_identity:
            children[parent(w)].append(w)
    results = []
    identity = words[0]

    def grow(current: frozenset, frontier: tuple):
        if max_size is not None and len(current) > max_size:
            return
        results.append(current)
        for i, w in enumerate(frontier):
            # extend by w; later frontier entries only, to avoid duplicates
            new_frontier = frontier[i + 1 :] + tuple(
                c for c in children[w] if c not in current
            )
            grow(current | {w}, new_frontier)

    grow(frozenset({identity}), tuple(children[identity]))
    return results


def oracle_word_key(w: Word):
    """The canonical (length, lexicographic) word order, computed from Letters:
    generator first, then s_i before s_i^-1."""
    return (len(w.letters), tuple((l.gen, 0 if l.sign > 0 else 1) for l in w.letters))


def is_left_connected(words) -> bool:
    """True iff the set induces a connected subgraph of the left-Cayley tree.

    In a tree two words are adjacent exactly when one is the parent of the
    other, so connectivity reduces to union-find over parent links.
    """
    elems = set(words)
    if len(elems) <= 1:
        return True
    idx = {w: i for i, w in enumerate(elems)}
    uf = list(range(len(elems)))

    def find(i):
        while uf[i] != i:
            uf[i] = uf[uf[i]]
            i = uf[i]
        return i

    for w in elems:
        if not w.is_identity:
            p = parent(w)
            if p in idx:
                uf[find(idx[w])] = find(idx[p])
    root = find(0)
    return all(find(i) == root for i in range(len(elems)))


def oracle_draw(row, u: Fraction) -> int:
    """The first symbol b whose running sum of row exceeds the variate u.

    The sampler's original rule, in exact Fraction arithmetic; a variate the
    row does not cover (a row summing to less than 1) raises SpecInvalidError.
    """
    acc = Fraction(0)
    for b, p in enumerate(row):
        acc += p
        if u < acc:
            return b
    raise SpecInvalidError([f"row sums to {acc}, not 1: variate {u} not covered"])


def oracle_reverse_kernel(spec: MarkovSpec, gen: int) -> Matrix:
    """The kernel along s_gen^-1, entrywise P_rev(a, b) = pi(b) P(b, a) / pi(a)
    in Fraction arithmetic, as the package first computed it."""
    k, pi, n = spec.kernels[gen], spec.pi, spec.size
    return tuple(tuple(pi[b] * k[b][a] / pi[a] for b in range(n)) for a in range(n))


def oracle_kernel(spec: MarkovSpec, code: int) -> Matrix:
    """The kernel along the letter with the given code: the spec's own kernel
    for s_i, oracle_reverse_kernel for s_i^-1."""
    return oracle_reverse_kernel(spec, code >> 1) if code & 1 else spec.kernels[code >> 1]


def oracle_thresholds(row) -> tuple[int, ...]:
    """ceil(S_b 2^64) for the running Fraction sums S_b of the row, kept
    nondecreasing by a running max: the sampler's thresholds as the package
    first computed them."""
    out, acc, top = [], Fraction(0), 0
    for p in row:
        acc += p
        top = max(top, -(-acc.numerator * 2**64 // acc.denominator))
        out.append(top)
    return tuple(out)


# ---------------------------------------------------------------------------
# materialized configurations: translates, rewritten actions, recodings
# ---------------------------------------------------------------------------


def translate_configuration(phi: Configuration, h: Word) -> Configuration:
    """The configuration psi on (domain)h^-1 with psi(d h^-1) = phi(d).

    For h in the domain the new domain again contains the identity and stays
    left-connected, so shift invariance of cylinder measures can be tested.
    """
    hinv = ~h
    return Configuration({multiply(d, hinv): v for d, v in phi.items()})


def empirical_cylinder(samples, phi: Configuration) -> float:
    """Fraction of samples agreeing with phi on its whole domain."""
    if not samples:
        raise InputError("no samples given")
    hits = 0
    for x in samples:
        try:
            ok = all(x[w] == v for w, v in phi.items())
        except MissingCoordinate as exc:
            raise InputError(f"sample not defined on {exc.word}") from None
        hits += ok
    return hits / len(samples)


class Shifted:
    """The translated configuration (w . x)_h = x_{h w}, as a lazy view."""

    __slots__ = ("base", "offset")

    def __init__(self, base, offset: Word):
        self.base = base
        self.offset = offset

    def __getitem__(self, h: Word) -> int:
        return self.base[multiply(h, self.offset)]


def dependency_radius(rule: RewriteRule, r: int) -> int:
    """A radius R such that cocycle words and recoded values on ball(r) only
    read base coordinates in ball(R).  Each letter step moves the window by
    at most max_output_length; r steps from radius window_radius suffice."""
    return r * rule.max_output_length + rule.window_radius


def flag_triple(params, x):
    """The slide's local detector, from Letters: (x_{u^-1}, x_e, x_{u^n}) with
    n the branch distance of x_e, defined when (x_{u^-1}, x_e) is a slide
    edge; None otherwise."""
    u = Letter(params.u, 1)
    a, b = x[Word((u.inverse(),))], x[IDENTITY]
    if (a, b) not in params.edges:
        return None
    n = dict(params.branch)[b].n
    return (a, b, x[Word((u,) * n)])


def flagged(params) -> frozenset[tuple[int, int, int]]:
    eta = dict(params.branch)
    return frozenset((a, b, eta[b].eta) for a, b in params.edges)


def oracle_slide_image(params, l: Letter, x, offset: Word) -> Word:
    """The slide's image of the letter t or t^-1 at the translate offset.x,
    from flag_triple(...) in flagged(params) on Shifted views.  t goes to ut
    when ut.x is flagged and to u^-1 t when t.x is; t^-1 goes to (ut)^-1 when
    x is flagged and to (u^-1 t)^-1 when u.x is; both flagged is a conflict."""
    u, t = Letter(params.u, 1), Letter(params.t, 1)

    def is_flagged(*shift: Letter) -> bool:
        view = Shifted(x, multiply(Word(shift), offset))
        return flag_triple(params, view) in flagged(params)

    if l == t:
        up, down = is_flagged(u, t), is_flagged(t)
        images = Word((u, t)), Word((u.inverse(), t)), Word((t,))
    else:
        up, down = is_flagged(), is_flagged(u)
        images = Word((t.inverse(), u.inverse())), Word((t.inverse(), u)), Word((t.inverse(),))
    if up and down:
        raise ParamsError("conflicting slide conditions")
    return images[0] if up else images[1] if down else images[2]


def oracle_orbit_covered(rule: RewriteRule, x, rank: int) -> bool:
    """verify_slide's orbit check on the full image: the cocycle words of
    every h in ball(rank, 4) cover ball(rank, 2)."""
    table = CocycleTable(rule, x)
    images = {table.omega(h) for h in ball(rank, 4)}
    return all(g in images for g in ball(rank, 2))


def act(rule: RewriteRule, g: Word, x: Configuration) -> Configuration:
    """The rewritten action g * x = w(g, x) . x, materialized on the translate
    of x's domain (which must still contain the identity)."""
    w = cocycle(rule, g, x)
    winv = inverse(w)
    return Configuration({multiply(d, winv): v for d, v in x.items()})


def recode(rule: RewriteRule, x, target_radius: int) -> Configuration:
    """Materialize the recoding on ball(target_radius); raises
    MissingCoordinate when x does not carry the needed coordinates."""
    view = RecodedView(rule, x)
    return Configuration({h: view[h] for h in ball(rule.rank, target_radius)})


# ---------------------------------------------------------------------------
# classification oracle: BFS components plus explicit degree counting
# ---------------------------------------------------------------------------


def oracle_support(spec: MarkovSpec, gen: int):
    n = spec.size
    return {
        (a, b)
        for a in range(n)
        for b in range(n)
        if spec.pi[a] * spec.kernels[gen][a][b] > 0
    }


def bfs_components(n: int, edges) -> list:
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    comps = []
    for v in range(n):
        if v in seen:
            continue
        comp = {v}
        queue = [v]
        while queue:
            w = queue.pop()
            for u in adj[w]:
                if u not in comp:
                    comp.add(u)
                    queue.append(u)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def oracle_classify(spec: MarkovSpec) -> dict:
    """Independent reimplementation of the ergodicity/freeness criteria."""
    n = spec.size
    per = {}
    some_aperiodic = False
    union_edges = set()
    for gi, name in enumerate(spec.generators):
        edges = oracle_support(spec, gi)
        union_edges |= edges
        comps = bfs_components(n, edges)
        out_deg = {v: 0 for v in range(n)}
        in_deg = {v: 0 for v in range(n)}
        for a, b in edges:
            out_deg[a] += 1
            in_deg[b] += 1
        periodic = []
        for comp in comps:
            periodic.append(all(out_deg[v] == 1 and in_deg[v] == 1 for v in comp))
        free = not any(periodic)
        if any(not p for p in periodic):
            some_aperiodic = True
        per[name] = {
            "ergodic": len(comps) == 1 and len(comps[0]) == n,
            "free": free,
        }
    comps = bfs_components(n, union_edges)
    ergodic = len(comps) == 1 and len(comps[0]) == n
    return {
        "per_generator": per,
        "ergodic": ergodic,
        "properly_ergodic": ergodic and some_aperiodic,
    }


def oracle_branch_data(g, b):
    """Branch data by exhaustive search: enumerate all directed paths up to
    length |A| + 1 and pick the minimal-n configuration, then the
    lexicographically smallest (b_1, ..., b_n), then the smallest eta.  None
    when no branch vertex is reachable from b."""
    frontier = [(b,)]
    for n in range(1, g.size + 2):
        cands = []
        for path in frontier:
            v = path[-1]
            outs = g.out_neighbors(v)
            if len(outs) >= 2:
                for bn in outs:
                    for eta in outs:
                        if eta != bn:
                            cands.append((path[1:] + (bn,), eta))
        if cands:
            tail, eta = min(cands)
            return BranchData(n=n, path=(b,) + tail, eta=eta)
        frontier = [
            p + (w,) for p in frontier for w in g.out_neighbors(p[-1])
        ]
    return None


# ---------------------------------------------------------------------------
# pushforward oracle: enumerate a strict superset of the readable window
# ---------------------------------------------------------------------------


def oracle_pushforward_kernel(spec, params):
    """Exact recoded kernel along t, via full enumeration of a larger window.

    Weights come from full_config_prob (not the package's cylinder code) and
    the recoded symbol is read through the generic cocycle engine, not the
    production decision-window shortcut.
    """
    from treeshift.words import IDENTITY, Letter, Word, single

    u = Letter(params.u, 1)
    t = Letter(params.t, 1)
    rule = params.rule
    words = [IDENTITY, single(t), Word((u.inverse(), t)), Word((u.inverse(), u.inverse(), t))]
    for k in range(1, params.n_max + 3):
        words.append(Word((u,) * k + (t,)))
    words.sort(key=lambda w: w.sort_key())
    n = spec.size
    mass = [[Fraction(0)] * n for _ in range(n)]
    t_word = single(t)
    for values in itertools.product(range(n), repeat=len(words)):
        p = full_config_prob(spec, words, values)
        if p == 0:
            continue
        window = dict(zip(words, values))
        target = cocycle(rule, t_word, window)
        mass[window[IDENTITY]][window[target]] += p
    return tuple(
        tuple(mass[a][b] / spec.pi[a] for b in range(n)) for a in range(n)
    )


# ---------------------------------------------------------------------------
# exact arithmetic one Fraction operation per term: validation and the
# pushforward product as they were written before the integer-scaled sums
# ---------------------------------------------------------------------------


def oracle_validate(spec: MarkovSpec) -> ValidationReport:
    """Check full support, normalization, row-stochasticity and stationarity."""
    problems = []
    n = spec.size
    if spec.rank < 2:
        problems.append(f"rank {spec.rank} < 2: need a non-abelian free group")
    if len(set(spec.alphabet)) != n or n == 0:
        problems.append("alphabet empty or has duplicate symbols")
    if len(spec.pi) != n:
        problems.append("pi length does not match alphabet")
        return ValidationReport(tuple(problems))
    for a, p in enumerate(spec.pi):
        if p <= 0:
            problems.append(f"pi({spec.alphabet[a]!r}) = {p} is not positive")
    if sum(spec.pi) != 1:
        problems.append(f"pi sums to {sum(spec.pi)}, not 1")
    if len(spec.kernels) != spec.rank:
        problems.append("kernel count does not match generator count")
        return ValidationReport(tuple(problems))
    for gi, k in enumerate(spec.kernels):
        name = spec.generators[gi]
        if len(k) != n or any(len(row) != n for row in k):
            problems.append(f"kernel {name} is not {n}x{n}")
            continue
        for a, row in enumerate(k):
            if any(x < 0 for x in row):
                problems.append(f"kernel {name} row {spec.alphabet[a]!r} has a negative entry")
            if sum(row) != 1:
                problems.append(
                    f"kernel {name} row {spec.alphabet[a]!r} sums to {sum(row)}, not 1"
                )
        for b in range(n):
            mass = sum(spec.pi[a] * k[a][b] for a in range(n))
            if mass != spec.pi[b]:
                problems.append(f"pi is not stationary for kernel {name} at column {spec.alphabet[b]!r}")
                break
    return ValidationReport(tuple(problems))


def oracle_dense_pushforward(spec: MarkovSpec, params):
    """The slid t kernel q_t = P_t M with M dense, one Fraction product and
    sum per term; the reversed u kernel R_u is computed inline, in full."""
    n = spec.size
    zero = Fraction(0)
    p_u = spec.kernels[params.u]
    r_u = [[spec.pi[b] * p_u[b][a] / spec.pi[a] for b in range(n)] for a in range(n)]
    h = {b: p_u[data.path[-2]][data.eta] for b, data in params.branch}
    m = [[zero] * n for _ in range(n)]
    for a, b in params.edges:
        m[b][a] += r_u[b][a] * h[b]
        m[a][b] += p_u[a][b] * h[b]
    for c in range(n):
        m[c][c] += 1 - sum(m[c])
    return tuple(
        tuple(
            sum((p * m[c][b] for c, p in enumerate(row) if p and m[c][b]), zero)
            for b in range(n)
        )
        for row in spec.kernels[params.t]
    )


# ---------------------------------------------------------------------------
# cylinder sweeps before the window scan ran them: the depth-first enumerator
# with a full-sweep mode, and verify_slide's Markov check on top of it
# ---------------------------------------------------------------------------

_MAX_CYLINDERS = 500_000
ZERO, ONE = Fraction(0), Fraction(1)


def oracle_enumerate_cylinders(
    spec: MarkovSpec,
    domain: LeftConnectedSet,
    positive_only: bool = True,
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield (values, measure) for configurations on the domain, parents-first.

    Values follow the domain's canonical order.  With positive_only the
    depth-first sweep prunes zero-probability branches, so the yielded
    measures sum to exactly 1.  Raises BudgetError instead of yielding more
    than _MAX_CYLINDERS configurations.
    """
    words = domain.words
    parent_pos = [0] * len(words)
    kernels: list[Matrix | None] = [None] * len(words)
    for i, w in enumerate(words[1:], 1):
        parent_pos[i] = words.index(parent(w))
        kernels[i] = oracle_kernel(spec, w[0])
    n = spec.size
    values = [0] * len(words)
    yielded = 0

    def rec(i: int, weight: Fraction) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        nonlocal yielded
        if i == len(words):
            yielded += 1
            if yielded > _MAX_CYLINDERS:
                raise BudgetError(f"more than {_MAX_CYLINDERS} cylinders on the domain")
            yield tuple(values), weight
            return
        row = spec.pi if i == 0 else kernels[i][values[parent_pos[i]]]
        for b in range(n):
            f = row[b]
            if positive_only and f == 0:
                continue
            values[i] = b
            yield from rec(i + 1, weight * f)

    yield from rec(0, ONE)


def window_marginal(spec: MarkovSpec, fn) -> dict:
    """Exact law of fn's value over the chain: {value: probability}, from a
    window scan that must cover the space."""
    return covering_scan(spec, fn).law


def oracle_markov_factorization(spec, params, candidate) -> bool:
    """verify_slide's Markov check as a full sweep: on each check domain, every
    value tuple's recoded probability (0 when no window gives it) must equal
    the candidate's cylinder measure, zero cylinders included."""
    from treeshift.slides import _markov_check_domains

    rule = params.rule
    ok = True
    for domain in _markov_check_domains(spec, params):

        def fn(win, words=domain.words):
            view = RecodedView(rule, win)
            return tuple(view[g] for g in words)

        marginal = window_marginal(spec, fn)
        for values, expected in oracle_enumerate_cylinders(candidate, domain, positive_only=False):
            if marginal.get(values, 0) != expected:
                ok = False
                break
    return ok


def oracle_composite_pair_law(spec: MarkovSpec, slides, gen: int) -> dict:
    """Exact law of (x'_e, x'_s), s = s_gen, where x' is x ~ spec recoded by
    every slide in order (a RecodedView tower, one per window), from a window
    scan that must cover the space: {(a, b): probability} over positive pairs."""
    s = single(Letter(gen, 1))

    def fn(win):
        view = win
        for params in slides:
            view = RecodedView(params.rule, view)
        return view[IDENTITY], view[s]

    return window_marginal(spec, fn)


# ---------------------------------------------------------------------------
# the window scan as it ran on Fractions: one product per branch and one sum
# per window (budgets read from chains, so a monkeypatched budget applies)
# ---------------------------------------------------------------------------


class _Probe:
    """The window probe as the scan first used it: a wrapper whose missing
    reads raise MissingCoordinate, kept here so the oracle shares no probe
    with the engine."""

    __slots__ = ("assign",)

    def __init__(self, assign: dict):
        self.assign = assign

    def __getitem__(self, w: Word) -> int:
        try:
            return self.assign[w]
        except KeyError:
            raise MissingCoordinate(w) from None


def oracle_scan_positive_windows(spec: MarkovSpec, fn) -> WindowScan:
    """scan_positive_windows with Fraction weights: each branch multiplies
    its window's weight by one kernel (or pi) entry, and each window adds its
    weight to the law of its value."""
    law: dict = {}
    failures: list = []
    windows = 0
    kernels = [oracle_kernel(spec, c) for c in range(2 * spec.rank)]

    def run(assign: dict, weight: Fraction):
        nonlocal windows
        try:
            value = fn(_Probe(assign))
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
            if len(assign) + len(path) > chains._MAX_COORDS:
                raise BudgetError(f"window grew beyond {chains._MAX_COORDS} coordinates")

            def fill(i: int, w: Fraction):
                if i < 0:
                    run(assign, w)
                    return
                h = path[i]
                row = kernels[h[0]][assign[parent(h)]] if h else spec.pi
                for b, p in enumerate(row):
                    if p == 0:
                        continue
                    assign[h] = b
                    fill(i - 1, w * p)
                    del assign[h]

            fill(len(path) - 1, weight)
            return
        windows += 1
        if windows > chains._MAX_WINDOWS:
            raise BudgetError(f"more than {chains._MAX_WINDOWS} positive windows")
        law[value] = law.get(value, ZERO) + weight
        if not value and len(failures) < 5:
            failures.append((dict(assign), value))

    run({}, ONE)
    return WindowScan(windows, law, tuple(failures))


# ---------------------------------------------------------------------------
# test helpers, not oracles: spec builders, and generic rule checks on the
# package's window scan (the slide's own claims are checked by verify_slide)
# ---------------------------------------------------------------------------


def make_spec(generators, alphabet, pi, kernels) -> MarkovSpec:
    """Normalize plain containers into a MarkovSpec (no validation)."""
    return MarkovSpec(
        tuple(generators),
        tuple(alphabet),
        tuple(Fraction(x) for x in pi),
        tuple(tuple(tuple(Fraction(x) for x in row) for row in k) for k in kernels),
    )


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
