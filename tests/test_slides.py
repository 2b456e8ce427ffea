import dataclasses
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    bernoulli_spec,
    code,
    flag_triple,
    flagged,
    inverse_letter,
    make_spec,
    oracle_composite_pair_law,
    oracle_markov_factorization,
    oracle_orbit_covered,
    oracle_pushforward_kernel,
    oracle_sampled_pair_law,
    oracle_slide_image,
    window_marginal,
)
from treeshift import chains
from treeshift.chains import (
    Configuration,
    SampledTree,
    covering_scan,
    cylinder_measure,
    derive_seed,
    enumerate_cylinders,
    scan_positive_windows,
    validate,
)
from treeshift import slides as slides_module
from treeshift.cocycles import CocycleTable, RecodedView, RewriteRule, cocycle, recode_on
from treeshift.errors import (
    BudgetError,
    DomainError,
    InputError,
    MissingCoordinate,
    ParamsError,
    TreeshiftError,
)
from treeshift.graphs import (
    BranchData,
    classify,
    is_special,
    special_sets,
    support_edges,
)
from treeshift.randspec import random_properly_ergodic_spec, random_spec
from treeshift.slides import (
    SlideParams,
    _check_laws,
    _checked,
    _is_cylinder_law,
    _markov_check_domains,
    _orbit_covered,
    build_slide_params,
    generator_ergodic_pipeline,
    params_from_json,
    params_to_json,
    pushforward,
    replay,
    verify_slide,
)
from treeshift.words import (
    IDENTITY,
    LeftConnectedSet,
    Word,
    ball,
    single,
    word_from_str,
)

W = word_from_str
H = Fraction(1, 2)
Q14, Q34 = Fraction(1, 4), Fraction(3, 4)


@pytest.fixture
def m1_slide(m1):
    return build_slide_params(m1, u=0, t=1, edges=[(0, 1)])


@pytest.fixture
def m3_slide(m3):
    return build_slide_params(m3, u=0, t=1, edges=[(0, 1)])


_SEED_SEARCH = 64


def _sliding_spec(seed: int, size: int, rank: int, kind: str, product_t: bool = False):
    """(spec, slides) for the first spec at a seed from seed on, at most
    _SEED_SEARCH of them, that is properly ergodic and has pipeline slides;
    the last spec tried and no slides when none has.  kind "sparse" draws
    random_spec(..., style="sparse"), "proper" random_properly_ergodic_spec.
    With product_t, each spec is tried with a product kernel along its last
    generator, or along the one before it for a proper spec, whose last
    generator carries its periodic permutation."""
    for s in range(seed, seed + _SEED_SEARCH):
        if kind == "sparse":
            spec = random_spec(s, size, rank, style="sparse")
        else:
            spec = random_properly_ergodic_spec(s, size, rank)
        if product_t:
            gen = rank - 1 if kind == "sparse" else rank - 2
            spec = spec.with_kernel(gen, tuple(spec.pi for _ in spec.pi))
        slides = generator_ergodic_pipeline(spec)[1] if classify(spec).properly_ergodic else ()
        if slides:
            break
    return spec, slides


@st.composite
def slide_draws(draw, product_t=st.just(False)):
    """(spec, slides) from _sliding_spec on a drawn kind, seed, size 2-4, rank
    2-3 and product_t; the slides may be empty (see sliding_specs)."""
    kind = draw(st.sampled_from(["sparse", "proper"]))
    seed, size, rank = draw(st.integers(0, 10**6)), draw(st.integers(2, 4)), draw(st.integers(2, 3))
    return _sliding_spec(seed, size, rank, kind, draw(product_t))


def sliding_specs(product_t=st.just(False)):
    """The shared draw of the tests that check every pipeline slide: slide_draws
    with at least one slide (test_slide_draws_reach_a_slide guards the share)."""
    return slide_draws(product_t).filter(lambda drawn: drawn[1])


def test_slide_draws_reach_a_slide():
    """At least 90% of slide_draws' derandomized examples, either product_t,
    have a pipeline slide, so the tests on sliding_specs filter few draws."""
    reached = []

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(slide_draws(st.booleans()))
    def record(drawn):
        reached.append(bool(drawn[1]))

    record()
    assert reached and sum(reached) >= 0.9 * len(reached)


class TestParams:
    def test_m1_branch_data(self, m1_slide):
        assert m1_slide.branch == ((1, BranchData(n=1, path=(1, 0), eta=1)),)
        assert flagged(m1_slide) == {(0, 1, 1)}
        assert m1_slide.n_max == 1

    def test_m3_branch_data(self, m3_slide):
        assert m3_slide.branch == ((1, BranchData(n=1, path=(1, 0), eta=2)),)
        assert flagged(m3_slide) == {(0, 1, 2)}

    def test_same_generator_rejected(self, m1):
        with pytest.raises(ParamsError):
            build_slide_params(m1, 0, 0, [(0, 1)])

    def test_non_support_edge_rejected(self, m1):
        with pytest.raises(ParamsError):
            build_slide_params(m1, 1, 0, [(0, 0)])  # swap kernel lacks loops

    def test_non_special_rejected(self, m3):
        with pytest.raises(ParamsError):
            build_slide_params(m3, 0, 1, [(0, 1), (1, 2)])

    def test_json_round_trip(self, m3, m3_slide):
        obj = params_to_json(m3, m3_slide)
        assert obj["u"] == "s1" and obj["t"] == "s2" and obj["E"] == [[0, 1]]
        assert params_from_json(m3, {"u": "s1", "t": "s2", "E": [[0, 1]]}) == m3_slide

    def test_json_writer_checks_the_params_fit_the_spec(self, m1, m3, m3_slide):
        """params_to_json gates the spec and checks that the parameters fit it:
        a rank-3 pipeline's last slide (t = s3, symbols up to 3) with a rank-2
        spec on 3 symbols, m3's slide (eta = 2) with the 2-symbol m1, and a t
        beyond the rank raise ParamsError instead of a bare IndexError."""
        last = generator_ergodic_pipeline(random_properly_ergodic_spec(1, 4, 3))[1][-1]
        for spec, params in (
            (random_properly_ergodic_spec(0, 3, 2), last),
            (m1, m3_slide),
            (m3, dataclasses.replace(m3_slide, t=2)),
            (m3, dataclasses.replace(m3_slide, u=-1)),
            (m3, dataclasses.replace(m3_slide, t=True)),
        ):
            with pytest.raises(ParamsError):
                params_to_json(spec, params)
        with pytest.raises(InputError):
            params_to_json(m3, None)
        with pytest.raises(InputError):
            params_to_json(None, m3_slide)

    @pytest.mark.parametrize(
        "u, t, edges, error",
        [
            (0.0, 1, [(0, 1)], ParamsError),
            (0, 1.0, [(0, 1)], ParamsError),
            ("a", 1, [(0, 1)], ParamsError),
            (True, 1, [(0, 1)], ParamsError),
            (0, 1, 5, InputError),
            (0, 1, [(0,)], InputError),
            (0, 1, [(0, 1, 2)], InputError),
            (0, 1, [("a", "b")], InputError),
            (0, 1, [(0.0, 1)], InputError),
            (0, 1, [(0, True)], InputError),
            (0, 1, [(0, 1), (0, 1.0)], InputError),
            (0, 2, [(0, 1)], ParamsError),
        ],
    )
    def test_non_index_params_rejected(self, m3, u, t, edges, error):
        """Directions that are not int generator indices raise ParamsError, and
        edges that are not pairs of int symbol indices InputError, instead of
        building parameters that fail later (u=0.0 used to reach pushforward)."""
        with pytest.raises(error):
            build_slide_params(m3, u, t, edges)

    def test_non_params_rejected(self, m3):
        with pytest.raises(InputError, match="SlideParams"):
            pushforward(m3, None)
        with pytest.raises(InputError, match="SlideParams"):
            verify_slide(m3, None)
        with pytest.raises(InputError, match="symbol index 'x'"):
            special_sets(m3, 0, "x")

    @pytest.mark.parametrize("pairs", [5, [[0]], [[0, 1, 2]]])
    def test_json_bad_edge_shape_rejected(self, m3, pairs):
        with pytest.raises(InputError):
            params_from_json(m3, {"u": "s1", "t": "s2", "E": pairs})

    @pytest.mark.parametrize(
        "edges, verdict",
        [
            ({(0, 1)}, "accept"),
            ([(1, 0)], "accept"),
            ((), "accept"),
            ({(0, 1), (1, 2)}, "refuse"),
            ({(0, 2)}, "refuse"),
            ([[0, 1]], "malformed"),
            ([(0,)], "malformed"),
            ([(0, 1, 2)], "malformed"),
            ([("a", "b")], "malformed"),
            ([(0.0, 1)], "malformed"),
            ([(0, True)], "malformed"),
            ([(0, 1), (0, 1.0)], "malformed"),
            ("ab", "malformed"),
            (5, "malformed"),
            (None, "malformed"),
        ],
        ids=repr,
    )
    def test_one_edge_set_rule(self, m3, edges, verdict):
        """is_special and build_slide_params parse an edge set by one rule: they
        accept and refuse the same sets, and raise InputError on the same
        malformed ones (a list pair [0, 1] included).  A well-formed set that
        is off the u-support or not special is a ParamsError of the latter."""
        g = support_edges(m3, 0)
        if verdict == "malformed":
            with pytest.raises(InputError):
                is_special(g, edges)
            with pytest.raises(InputError):
                build_slide_params(m3, 0, 1, edges)
        elif verdict == "accept":
            assert is_special(g, edges)
            assert build_slide_params(m3, 0, 1, edges).edges == frozenset(edges)
        else:
            if set(edges) <= g.edges:
                assert not is_special(g, edges)
            else:
                with pytest.raises(InputError):
                    is_special(g, edges)
            with pytest.raises(ParamsError):
                build_slide_params(m3, 0, 1, edges)

    def test_rule_needs_a_branch_per_edge_target(self):
        """Parameters whose branch data misses a slide-edge target (or names a
        vertex that is none) raise ParamsError when their rule is built, so
        replay does not fail on a bare KeyError inside the flag test."""
        spec = random_properly_ergodic_spec(0, 3, 2)
        p = generator_ergodic_pipeline(spec)[1][0]
        extra = (*p.branch, (9, p.branch[0][1]))
        for branch in ((), extra):
            bad = SlideParams(p.rank, p.u, p.t, p.edges, branch)
            with pytest.raises(ParamsError, match="branch"):
                replay([bad], SampledTree(spec, 1), 3)


class TestFlagTriple:
    def test_pickles_after_rule_built(self, m3, m3_slide):
        rule = m3_slide.rule
        assert m3_slide.rule is rule
        replay([m3_slide], SampledTree(m3, 0), 2)
        again = pickle.loads(pickle.dumps(m3_slide))
        assert again == m3_slide and "rule" not in vars(again)
        assert replay([again], SampledTree(m3, 0), 2) == replay([m3_slide], SampledTree(m3, 0), 2)

    def test_flagged(self, m3_slide):
        x = Configuration({IDENTITY: 1, W("s1^-1"): 0, W("s1"): 2})
        assert flag_triple(m3_slide, x) == (0, 1, 2)
        assert flag_triple(m3_slide, x) in flagged(m3_slide)

    def test_eta_mismatch(self, m3_slide):
        x = Configuration({IDENTITY: 1, W("s1^-1"): 0, W("s1"): 0})
        assert flag_triple(m3_slide, x) == (0, 1, 0)
        assert flag_triple(m3_slide, x) not in flagged(m3_slide)

    def test_absent_off_edges(self, m3_slide):
        x = Configuration({IDENTITY: 0, W("s1^-1"): 1, W("s1"): 2})
        assert flag_triple(m3_slide, x) is None


class TestSlideRule:
    def test_empty_edges_identity(self, m3):
        params = build_slide_params(m3, 0, 1, [])
        rule = _checked(m3, params).rule
        assert not rule.steps
        assert pushforward(m3, params) == m3

    def test_flagged_rewrite(self, m1, m1_slide):
        rule = _checked(m1, m1_slide).rule
        x = Configuration(
            {IDENTITY: 1, W("s2"): 0, W("s1.s2"): 1, W("s1.s1.s2"): 1, W("s1^-1.s2"): 1}
        )
        assert rule.letter_image(2, x) == W("s1.s2")
        assert rule.window_radius == 3 and rule.max_output_length == 2

    def test_conflicting_window_detected(self, m3):
        # bypass validation: {(0,1),(1,2)} makes symbol 1 a source and a target
        bad = SlideParams(
            rank=2,
            u=0,
            t=1,
            edges=frozenset({(0, 1), (1, 2)}),
            branch=(
                (1, BranchData(n=1, path=(1, 0), eta=2)),
                (2, BranchData(n=3, path=(2, 0, 1, 0), eta=2)),
            ),
        )
        with pytest.raises(ParamsError):
            _checked(m3, bad).rule
        rule = bad.rule
        window = {
            IDENTITY: 0,
            W("s2"): 1,
            W("s1^-1.s2"): 0,
            W("s1.s2"): 2,
            W("s1.s1.s2"): 0,
            W("s1.s1.s1.s2"): 0,
            W("s1.s1.s1.s1.s2"): 2,
        }
        with pytest.raises(ParamsError):
            rule.letter_image(2, Configuration(window))

    def test_params_not_built_from_spec_rejected(self, m3, m3_slide):
        wrong_branch = ((1, BranchData(n=2, path=(1, 0, 1), eta=2)),)
        for bad in (
            dataclasses.replace(m3_slide, branch=wrong_branch),
            dataclasses.replace(m3_slide, t=0),
            dataclasses.replace(m3_slide, t=7),
        ):
            with pytest.raises(ParamsError):
                _checked(m3, bad).rule
            with pytest.raises(ParamsError):
                pushforward(m3, bad)
            with pytest.raises(ParamsError):
                verify_slide(m3, bad, samples=1)


    @given(sliding_specs(), st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_code_steps_match_letter_oracle(self, drawn, tree_seed, radius):
        """On every pipeline slide, the rule's code-level steps for t and t^-1
        give the word of the letter-level oracle (flag_triple(...) in
        flagged(params) on shifted views) and make the same reads in the same
        order.  Windows are a sampled tree on ball(rank, radius), so some reads
        miss, and then both raise at the same word; offsets range over
        ball(rank, 2)."""
        spec, slides = drawn
        rank = spec.rank
        for params in slides:
            tree = SampledTree(spec, tree_seed)
            values = {w: tree[w] for w in ball(rank, radius)}
            rule, t = params.rule, (params.t, 1)
            for offset in ball(rank, 2):
                for l in (t, inverse_letter(t)):
                    got = _reads_and_outcome(rule.steps[code(l)], values, offset)
                    want = _reads_and_outcome(
                        lambda x, offset: oracle_slide_image(params, l, x, offset), values, offset
                    )
                    assert got == want
            spec = pushforward(spec, params)


class _LoggedWindow:
    """A window on the given values that logs every read; a read outside
    them raises MissingCoordinate."""

    def __init__(self, values: dict):
        self.values, self.reads = values, []

    def __getitem__(self, w):
        self.reads.append(w)
        if w not in self.values:
            raise MissingCoordinate(w)
        return self.values[w]


def _reads_and_outcome(step, values, offset):
    """The words step reads from the window, in order, and the image it gives
    (or the word of the coordinate it missed)."""
    x = _LoggedWindow(values)
    try:
        out = step(x, offset)
    except MissingCoordinate as miss:
        out = ("missing", miss.word)
    return x.reads, out


class TestPushforward:
    def test_m1_exact_kernel(self, m1, m1_slide):
        rho = pushforward(m1, m1_slide)
        assert rho.kernels[1] == ((Q14, Q34), (Q34, Q14))
        assert rho.pi == m1.pi
        assert rho.kernels[0] == m1.kernels[0]
        assert validate(rho).ok

    def test_matches_oracle(self, m1, m1_slide, m3, m3_slide):
        for spec, params in [(m1, m1_slide), (m3, m3_slide)]:
            rho = pushforward(spec, params)
            assert rho.kernels[params.t] == oracle_pushforward_kernel(spec, params)

    @given(
        st.sampled_from(["mixed", "sparse", "proper"]),
        st.integers(0, 10**6),
        st.integers(2, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_oracle_on_random_specs(self, kind, seed, size):
        if kind == "proper":
            spec = random_properly_ergodic_spec(seed, size)
        else:
            spec = random_spec(seed, size, style=kind)
        for u in range(spec.rank):
            g = support_edges(spec, u)
            for cls, periodic in zip(g.classes, g.periodic):
                if periodic:
                    continue
                for edges in special_sets(spec, u, min(cls)):
                    if not edges:
                        continue
                    for t in range(spec.rank):
                        if t == u:
                            continue
                        params = build_slide_params(spec, u, t, edges)
                        rho = pushforward(spec, params)
                        assert rho.kernels[t] == oracle_pushforward_kernel(spec, params)

    @pytest.mark.parametrize("edges", [{(1, 0)}, {(2, 0)}, {(1, 0), (2, 0)}])
    @pytest.mark.parametrize(
        "p_t",
        [
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[Fraction(1, 3)] * 3] * 3,
            [[H, H, 0], [0, H, H], [H, 0, H]],
        ],
    )
    def test_matches_oracle_at_branch_distance_two(self, edges, p_t):
        # symbol 0 has a single u-successor, so the branch vertex is one
        # step further and the rule reads u^2 t and u^3 t
        p_u = [[0, 1, 0], [H, 0, H], [H, 0, H]]
        spec = make_spec(["s1", "s2"], [0, 1, 2], [Fraction(1, 3)] * 3, [p_u, p_t])
        params = build_slide_params(spec, 0, 1, edges)
        assert params.n_max == 2
        assert pushforward(spec, params).kernels[1] == oracle_pushforward_kernel(spec, params)

    @pytest.mark.parametrize("edges", [{(2, 0)}, {(3, 0)}, {(2, 0), (3, 0)}])
    @pytest.mark.parametrize(
        "p_t", [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], [[Q14] * 4] * 4]
    )
    def test_matches_window_engine_at_branch_distance_three(self, edges, p_t):
        # symbols 0 and 1 each have a single u-successor, so the branch test
        # from 0 reads u^3 t, beyond the oracle's window budget
        p_u = [[0, 1, 0, 0], [0, 0, 1, 0], [H, 0, 0, H], [H, 0, 0, H]]
        spec = make_spec(["s1", "s2"], [0, 1, 2, 3], [Q14] * 4, [p_u, p_t])
        params = build_slide_params(spec, 0, 1, edges)
        assert params.n_max == 3
        assert pushforward(spec, params).kernels[1] == window_engine_kernel(spec, params)

    @pytest.mark.parametrize("i", range(6))
    def test_matches_window_engine_on_rank_three_slides(self, i):
        spec = random_properly_ergodic_spec(1000 + i, 6, 3)
        _, slides = generator_ergodic_pipeline(spec)
        assert slides
        for params in slides:
            rho = pushforward(spec, params)
            assert rho.kernels[params.t] == window_engine_kernel(spec, params)
            spec = rho

    def test_restrictions_preserved(self, m1, m1_slide, m3, m3_slide):
        for spec, params in [(m1, m1_slide), (m3, m3_slide)]:
            rho = pushforward(spec, params)
            assert rho.pi == spec.pi
            assert rho.kernels[0] == spec.kernels[0]
        # product kernels along t make the slide measure-trivial; the swap
        # kernel of m1 genuinely changes
        assert pushforward(m3, m3_slide) == m3
        assert pushforward(m1, m1_slide).kernels[1] != m1.kernels[1]

    def test_monte_carlo_within_four_sigma(self, m1, m1_slide):
        rho = pushforward(m1, m1_slide)
        rule = m1_slide.rule
        t_word = single(2)
        n = 10_000
        counts = {}
        totals = {}
        for i in range(n):
            x = SampledTree(m1, derive_seed(99, i))
            a = x[IDENTITY]
            b = x[cocycle(rule, t_word, x)]
            counts[(a, b)] = counts.get((a, b), 0) + 1
            totals[a] = totals.get(a, 0) + 1
        for a in range(2):
            for b in range(2):
                q = rho.kernels[1][a][b]
                est = Fraction(counts.get((a, b), 0), totals[a])
                assert (est - q) ** 2 * totals[a] <= 16 * q * (1 - q)


def window_engine_kernel(spec, params):
    """The t kernel as the law of (x_e, x_{w(t,x)}) over every positive
    window of the rule, divided by pi: the rewrite rule evaluated window by
    window, independent of the factorised pushforward."""
    rule = _checked(spec, params).rule
    t = 2 * params.t
    law = window_marginal(spec, lambda w: (w[IDENTITY], w[rule.letter_image(t, w)]))
    n = spec.size
    return tuple(
        tuple(law.get((a, b), Fraction(0)) / spec.pi[a] for b in range(n)) for a in range(n)
    )


class TestVerifySlide:
    def test_all_ok_on_branch_data_example(self, m3, m3_slide):
        report = verify_slide(m3, m3_slide, samples=10)
        assert report.all_ok, report

    def test_map_level_checks_pass_on_m1(self, m1, m1_slide):
        report = verify_slide(m1, m1_slide, samples=10)
        assert report.double_recode_identity
        assert report.orbit_surjective
        assert report.support_contains_slid_edges
        assert report.endpoints_aperiodic

    def test_correlated_target_kernel_is_not_markov(self, m1, m1_slide):
        # The recoding is an exact orbit equivalence, and the computed kernel
        # is the exact recoded pair marginal, but with a swap kernel along
        # the target direction the recoded measure does not factor over the
        # tree: conditioned on the rewritten step, the u-continuation is
        # pinned.  Frozen counterexample values guard the analysis.
        report = verify_slide(m1, m1_slide, samples=4)
        assert not report.markov_factorization

        from treeshift.cocycles import RecodedView

        rule = m1_slide.rule
        rho = pushforward(m1, m1_slide)
        words = (word_from_str("e"), word_from_str("s2"), word_from_str("s1.s2"))

        def fn(win):
            view = RecodedView(rule, win)
            return tuple(view[g] for g in words)

        law = window_marginal(m1, fn)
        assert law.get((0, 0, 1)) == Fraction(1, 8)
        assert (0, 0, 0) not in law
        product = cylinder_measure(
            rho, Configuration(dict(zip(words, (0, 0, 1))))
        )
        assert product == Fraction(1, 16)

    def test_corrupted_kernel_caught(self, m3, m3_slide):
        rho = pushforward(m3, m3_slide)
        k = rho.kernels[1]
        corrupted = rho.with_kernel(1, ((k[0][0], k[0][2], k[0][1]),) + k[1:])
        assert corrupted != rho
        report = verify_slide(m3, m3_slide, candidate=corrupted, samples=4)
        assert not report.markov_factorization

    def test_candidate_of_other_shape_rejected(self):
        spec = random_properly_ergodic_spec(1, 4, 2)
        params = generator_ergodic_pipeline(spec)[1][0]
        other = random_properly_ergodic_spec(2, 5, 2)
        with pytest.raises(InputError):
            verify_slide(spec, params, candidate=other, samples=0)
        renamed = dataclasses.replace(spec, alphabet=tuple(range(10, 14)))
        with pytest.raises(InputError):
            verify_slide(spec, params, candidate=renamed, samples=0)
        with pytest.raises(InputError, match="MarkovSpec"):
            verify_slide(spec, params, candidate=5, samples=0)
        with pytest.raises(InputError, match="pi length"):
            verify_slide(spec, params, candidate=dataclasses.replace(spec, pi=None), samples=0)
        # form-valid, but pi(0) = 0: the inverse letters' kernels, which divide by pi, are undefined
        small = random_properly_ergodic_spec(1, 3, 2)
        first = generator_ergodic_pipeline(small)[1][0]
        rho = pushforward(small, first)
        zeroed = dataclasses.replace(rho, pi=(Fraction(0), rho.pi[0] + rho.pi[1], *rho.pi[2:]))
        with pytest.raises(InputError, match="is not positive"):
            verify_slide(small, first, candidate=zeroed, samples=0)

    def test_candidate_with_list_fields_accepted(self):
        """Once the form gate has passed, a candidate's generators and alphabet
        are compared as sequences, so list fields give the tuple report."""
        spec = random_properly_ergodic_spec(1, 4, 2)
        params = generator_ergodic_pipeline(spec)[1][0]
        rho = pushforward(spec, params)
        listed = chains.MarkovSpec(*map(list, (rho.generators, rho.alphabet, rho.pi, rho.kernels)))
        report = verify_slide(spec, params, candidate=listed, samples=3)
        assert report == verify_slide(spec, params, candidate=rho, samples=3)

    def test_default_candidate_derives_the_slide_once(self, monkeypatch, m3, m3_slide):
        """With candidate=None the pushforward's parameter check is the only
        derivation of the slide: build_slide_params runs once."""
        calls = []
        build = slides_module.build_slide_params

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(slides_module, "build_slide_params", counted)
        assert verify_slide(m3, m3_slide, samples=1).all_ok
        assert len(calls) == 1

    def test_pipeline_derives_each_slide_once(self, monkeypatch):
        """The pipeline pushes each slide forward on the parameters it just
        derived: one build_slide_params call per returned slide."""
        calls = []
        build = slides_module.build_slide_params

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(slides_module, "build_slide_params", counted)
        _, slides = generator_ergodic_pipeline(random_properly_ergodic_spec(1, 5, 3))
        assert slides and len(calls) == len(slides)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda k: k[:2],
            lambda k: (k[0][:2],) + k[1:],
            lambda k: (("1/4",) + k[0][1:],) + k[1:],
            lambda k: ((0.25,) + k[0][1:],) + k[1:],
        ],
        ids=["two-rows", "short-row", "str-entry", "float-entry"],
    )
    def test_malformed_candidate_rejected_before_scanning(self, monkeypatch, corrupt):
        """A candidate kernel that is not n x n, or has an entry that is not an
        int or a Fraction, raises InputError before any window is scanned."""
        spec = random_properly_ergodic_spec(1, 4, 2)
        params = generator_ergodic_pipeline(spec)[1][0]
        rho = pushforward(spec, params)
        bad = rho.with_kernel(params.t, corrupt(rho.kernels[params.t]))
        monkeypatch.setattr(slides_module, "covering_scan", None)
        monkeypatch.setattr(slides_module, "SampledTree", None)
        with pytest.raises(InputError):
            verify_slide(spec, params, candidate=bad)
        with pytest.raises(InputError):
            verify_slide(spec, params, candidate=dataclasses.replace(rho, pi=rho.pi[:-1]))

    @pytest.mark.parametrize("samples", [-3, -1, True, 2.0, "3", None])
    def test_bad_samples_rejected(self, m3, m3_slide, samples):
        with pytest.raises(InputError):
            verify_slide(m3, m3_slide, samples=samples)

    def test_two_cocycle_tables_per_sample(self, m3, m3_slide, monkeypatch):
        """Each sample builds the tables of its two recodings, and the orbit
        check reads the first one's, w(., x), rather than a third."""
        built = []
        init = CocycleTable.__init__
        monkeypatch.setattr(
            CocycleTable, "__init__", lambda self, *a: built.append(1) or init(self, *a)
        )
        counts = []
        for samples in (0, 3):
            built.clear()
            assert verify_slide(m3, m3_slide, samples=samples).all_ok
            counts.append(len(built))
        assert counts[1] - counts[0] == 2 * 3

    def test_zero_samples_skips_sampled_checks(self, m3, m3_slide, monkeypatch):
        monkeypatch.setattr(slides_module, "SampledTree", None)
        report = verify_slide(m3, m3_slide, samples=0)
        assert report.double_recode_identity and report.orbit_surjective

    @given(sliding_specs(), st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_orbit_check_matches_full_image_oracle(self, drawn, tree_seed):
        """On every pipeline slide and two sampled trees, the early-exit orbit
        check gives the full-image oracle's answer."""
        spec, slides = drawn
        rank = spec.rank
        ball2, ball4 = ball(rank, 2), ball(rank, 4)
        for params in slides:
            for i in range(2):
                x = SampledTree(spec, derive_seed(tree_seed, i))
                covered = _orbit_covered(CocycleTable(params.rule, x), ball2, ball4)
                assert covered == oracle_orbit_covered(params.rule, x, rank)
            spec = pushforward(spec, params)

    def test_non_surjective_rule_not_covered(self, m1):
        """s1 -> s1.s1, every other letter fixed: a reduced word never puts s1
        next to s1^-1, so no image cancels down to s1 and s1 is never reached."""
        s1, twice = 0, W("s1.s1")
        rule = RewriteRule(
            rank=2, window_radius=0, max_output_length=2,
            steps={s1: lambda x, offset: twice}, images=[twice],
        )
        x = SampledTree(m1, 5)
        assert not oracle_orbit_covered(rule, x, 2)
        assert not _orbit_covered(CocycleTable(rule, x), ball(2, 2), ball(2, 4))

    def test_dropped_transition_caught(self, m3, m3_slide):
        """A candidate that gives a reachable transition measure 0 (rows left
        unnormalised) fails: cylinders of candidate measure 0 are compared too."""
        rho = pushforward(m3, m3_slide)
        k = rho.kernels[1]
        a, b = next((a, b) for a in range(3) for b in range(3) if k[a][b] > 0)
        row = tuple(Fraction(0) if c == b else p for c, p in enumerate(k[a]))
        dropped = rho.with_kernel(1, k[:a] + (row,) + k[a + 1 :])
        assert verify_slide(m3, m3_slide, candidate=rho, samples=2).markov_factorization
        assert not verify_slide(m3, m3_slide, candidate=dropped, samples=2).markov_factorization

    @given(sliding_specs(product_t=st.booleans()))
    @settings(max_examples=40, deadline=None)
    def test_markov_check_matches_full_sweep_oracle(self, drawn):
        """markov_factorization equals the old full-sweep comparison on every
        pipeline slide, for the pushforward, a candidate with one t-row rotated
        and one with a dropped transition.  With product_t the spec carries a
        product kernel along one generator (_sliding_spec)."""
        spec, slides = drawn
        for params in slides:
            rho = pushforward(spec, params)
            for candidate in (rho, *_broken_candidates(rho, params.t)):
                report = verify_slide(spec, params, candidate=candidate, samples=0)
                assert report.markov_factorization == oracle_markov_factorization(
                    spec, params, candidate
                )
            spec = rho


def _recoded(rule, words, win):
    """The recoded values on words, read through a RecodedView word by word."""
    view = RecodedView(rule, win)
    return tuple(view[g] for g in words)


class TestGroupedLaws:
    @given(sliding_specs())
    @settings(max_examples=25, deadline=None)
    def test_marginals_match_single_domain_scans(self, drawn):
        """Every check domain's law, a marginal of its edge letter's one union
        scan held as ints over the scan's den, equals window_marginal on that
        domain alone, as dicts of Fractions, on every pipeline slide; no domain
        is dropped or repeated."""
        spec, slides = drawn
        for params in slides:
            domains = _markov_check_domains(spec, params)
            laws = list(_check_laws(spec, params))
            assert len(laws) == len(domains)
            assert {domain for domain, _, _ in laws} == set(domains)
            for domain, sums, den in laws:
                alone = window_marginal(spec, lambda win: _recoded(params.rule, domain.words, win))
                assert {key: Fraction(x, den) for key, x in sums.items()} == alone
            spec = pushforward(spec, params)

    @given(sliding_specs())
    @settings(max_examples=25, deadline=None)
    def test_union_scans_match_recoded_view_scans(self, drawn):
        """Each union scan of _check_laws, whose window function is recode_on
        on the union, equals the scan of the per-window RecodedView function
        _recoded: the same windows, weights in the same order, den and
        failures, on every pipeline slide."""
        spec, slides = drawn
        for params in slides:
            unions, scans = [], []

            def recording_recode_on(rule, domain):
                unions.append(domain)
                return recode_on(rule, domain)

            def recording_scan(spec, fn):
                scans.append(covering_scan(spec, fn))
                return scans[-1]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(slides_module, "recode_on", recording_recode_on)
                mp.setattr(slides_module, "covering_scan", recording_scan)
                list(_check_laws(spec, params))
            assert len(unions) == len(scans) == len({d.words[-1][-1] for d in unions})
            for union, scan in zip(unions, scans):
                old = covering_scan(spec, lambda win: _recoded(params.rule, union.words, win))
                assert scan.windows == old.windows
                assert list(scan.weights.items()) == list(old.weights.items())
                assert (scan.den, scan.failures) == (old.den, old.failures)
            spec = pushforward(spec, params)

    @given(sliding_specs())
    @settings(max_examples=25, deadline=None)
    def test_int_verdict_matches_fraction_comparison(self, drawn):
        """On every check domain of every pipeline slide, the int comparison
        _is_cylinder_law gives the verdict of comparing the law as Fractions
        with enumerate_cylinders, for the pushforward, the _broken_candidates
        and a candidate with mass moved within a t row (_moved_mass).  The
        pushforward is the recoded law on every 2-point domain."""
        spec, slides = drawn
        for params in slides:
            rho = pushforward(spec, params)
            candidates = [rho, *_broken_candidates(rho, params.t), _moved_mass(rho, params.t)]
            for domain, sums, den in _check_laws(spec, params):
                law = {key: Fraction(x, den) for key, x in sums.items()}
                for candidate in filter(None, candidates):
                    verdict = _is_cylinder_law(candidate, domain, sums, den)
                    assert verdict == (law == dict(enumerate_cylinders(candidate, domain)))
                if len(domain) == 2:
                    assert _is_cylinder_law(rho, domain, sums, den)
            spec = rho

    def test_moved_mass_on_the_same_support_is_caught(self, m3, m3_slide):
        """A candidate whose q_t row moves mass between two positive entries has
        the pushforward's support, so {e, t} has the same keys under both, but
        one value differs: the int comparison says unequal."""
        rho = pushforward(m3, m3_slide)
        planted = _moved_mass(rho, 1)
        domain = LeftConnectedSet([IDENTITY, W("s2")])
        [(sums, den)] = [(sums, den) for d, sums, den in _check_laws(m3, m3_slide) if d == domain]
        assert support_edges(planted, 1) == support_edges(rho, 1)
        assert sums.keys() == dict(enumerate_cylinders(planted, domain)).keys()
        assert _is_cylinder_law(rho, domain, sums, den)
        assert not _is_cylinder_law(planted, domain, sums, den)
        assert verify_slide(m3, m3_slide, candidate=rho, samples=0).markov_factorization
        assert not verify_slide(m3, m3_slide, candidate=planted, samples=0).markov_factorization

    def test_union_scan_is_under_the_window_budget(self, m1, m1_slide, monkeypatch):
        """On m1 the t group's union {e, t, ut, u^-1 t, tt} takes more windows
        than any check domain alone.  With the budget at the largest single
        domain's count, verify_slide raises BudgetError: the union is neither
        skipped nor split back into one scan per domain."""
        rule = m1_slide.rule

        def windows(words):
            return scan_positive_windows(m1, lambda win: _recoded(rule, words, win)).windows

        largest = max(windows(domain.words) for domain in _markov_check_domains(m1, m1_slide))
        union = LeftConnectedSet([IDENTITY, W("s2"), W("s1.s2"), W("s1^-1.s2"), W("s2.s2")])
        assert windows(union.words) > largest
        monkeypatch.setattr(chains, "_MAX_WINDOWS", largest)
        with pytest.raises(BudgetError):
            verify_slide(m1, m1_slide, samples=0)


def _broken_candidates(rho, t):
    """rho with one t-kernel row rotated (when some row changes by it), and rho
    with its first positive t-kernel entry set to 0."""
    k = rho.kernels[t]
    out = [
        rho.with_kernel(t, k[:a] + (row[1:] + row[:1],) + k[a + 1 :])
        for a, row in enumerate(k)
        if row[1:] + row[:1] != row
    ][:1]
    a, b = next((a, b) for a, row in enumerate(k) for b, p in enumerate(row) if p > 0)
    row = tuple(Fraction(0) if c == b else p for c, p in enumerate(k[a]))
    return out + [rho.with_kernel(t, k[:a] + (row,) + k[a + 1 :])]


def _moved_mass(rho, t):
    """rho with one t-kernel row changed on its support: in the first row with
    two positive entries, half the smaller of the first two moves from the
    second onto the first.  None when no row has two."""
    k = rho.kernels[t]
    for a, row in enumerate(k):
        positive = [b for b, p in enumerate(row) if p > 0]
        if len(positive) >= 2:
            b, c = positive[:2]
            d = min(row[b], row[c]) / 2
            row = tuple(p + d if e == b else p - d if e == c else p for e, p in enumerate(row))
            return rho.with_kernel(t, k[:a] + (row,) + k[a + 1 :])
    return None


class TestPipeline:
    def test_bernoulli_noop(self):
        spec = bernoulli_spec([0, 1], [H, H])
        out, slides = generator_ergodic_pipeline(spec)
        assert out == spec and slides == ()

    def test_m1(self, m1, m1_slide):
        out, slides = generator_ergodic_pipeline(m1)
        assert slides == (m1_slide,)
        assert out.pi == m1.pi
        assert out.kernels[1] == ((Q14, Q34), (Q34, Q14))
        assert classify(out).generator_ergodic

    def test_m4_two_slides(self, m4):
        out, slides = generator_ergodic_pipeline(m4)
        assert len(slides) == 2
        assert {s.edges for s in slides} == {frozenset({(0, 1)}), frozenset({(2, 0)})}
        c = classify(out)
        assert c.generator_ergodic and out.pi == m4.pi
        for params in slides:
            assert verify_slide_target_unchanged(out, m4)

    def test_not_properly_ergodic_rejected(self):
        swap = [[0, 1], [1, 0]]
        spec = make_spec(["s1", "s2"], [0, 1], [H, H], [swap, swap])
        assert classify(spec).ergodic
        with pytest.raises(InputError):
            generator_ergodic_pipeline(spec)

    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_inputs(self, seed):
        spec = random_properly_ergodic_spec(seed, size=seed % 2 + 2)
        assert classify(spec).properly_ergodic
        out, slides = generator_ergodic_pipeline(spec)
        c = classify(out)
        assert c.generator_ergodic
        assert out.pi == spec.pi

    @given(
        st.integers(0, 10**6),
        st.integers(2, 4),
        st.integers(2, 3),
        st.sampled_from(["mixed", "sparse"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_specs_reach_generator_ergodic(self, seed, size, rank, style):
        spec = random_spec(seed, size, rank, style=style)
        assume(classify(spec).properly_ergodic)
        out, _ = generator_ergodic_pipeline(spec)
        assert classify(out).generator_ergodic
        assert out.pi == spec.pi

    def test_loop_classification_leaves_the_union_unbuilt(self, monkeypatch):
        """The loop reads only generator_ergodic, so its classifications never
        build the union support graph; the input's, which also reads
        properly_ergodic, builds it once."""
        seen = []

        def recording(spec):
            seen.append(classify(spec))
            return seen[-1]

        monkeypatch.setattr(slides_module, "classify", recording)
        generator_ergodic_pipeline(random_properly_ergodic_spec(2, 8, 3))
        assert len(seen) >= 2 and "ergodic" in vars(seen[0])
        assert not any({"ergodic", "properly_ergodic"} & set(vars(c)) for c in seen[1:])


COMPOSITE_DEFECT = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="slide k+1 is built from pushforward(spec_k), which takes the u-line through "
    "the new t-neighbour for a fresh Markov chain; an earlier slide conditioned it",
)


def pair_cylinders(spec, gen: int) -> dict:
    """The spec's two-point law {(a, b): P(x_e = a, x_s = b)}, s = s_gen."""
    return dict(enumerate_cylinders(spec, LeftConnectedSet([IDENTITY, single(2 * gen)])))


class TestCompositePairLaw:
    """The pipeline's output spec against the exact pair law of the composite
    recoding (oracle_composite_pair_law)."""

    @given(sliding_specs())
    @settings(max_examples=100, deadline=None)
    def test_first_slide_is_the_recoded_pair_law(self, drawn):
        spec, slides = drawn
        first = slides[0]
        rho = pushforward(spec, first)
        for gen in range(spec.rank):
            assert oracle_composite_pair_law(spec, [first], gen) == pair_cylinders(rho, gen)

    @COMPOSITE_DEFECT
    @pytest.mark.parametrize("seed, size", [(1, 3), (4, 4)])
    def test_second_slide_is_the_recoded_pair_law(self, seed, size):
        spec = random_spec(seed, size, 2, "sparse")
        slides = generator_ergodic_pipeline(spec)[1]
        second = pushforward(pushforward(spec, slides[0]), slides[1])
        assert oracle_composite_pair_law(spec, slides[:2], 1) == pair_cylinders(second, 1)


def sampled_gate_input(kind: str, seed: int, size: int, rank: int = 2):
    """A spec the pipeline slides, and its slides."""
    if kind == "proper":
        spec = random_properly_ergodic_spec(seed, size, rank)
    else:
        spec = random_spec(seed, size, rank, "sparse")
    slides = generator_ergodic_pipeline(spec)[1]
    assert slides
    return spec, slides


class TestSampledPairLaw:
    """The pipeline's output spec against sampled recodings
    (oracle_sampled_pair_law): n and the seed are fixed here, before any run."""

    N, SEED = 2_000, 2024  # 2,000 radius-1 replays of one slide take about 0.1 s
    N_TOWER = 40_000  # two slides: about 2 s; the pair law's cells differ by up to 3e-3

    @pytest.mark.parametrize(
        "kind, seed, size",
        [("proper", 0, 2), ("proper", 1, 3), ("proper", 2, 4), ("sparse", 1, 3), ("sparse", 4, 4)],
    )
    def test_first_slide_raises_no_alarm(self, kind, seed, size):
        """Slide 0's pushforward is the recoded law (TestCompositePairLaw)."""
        spec, slides = sampled_gate_input(kind, seed, size)
        for gen in range(spec.rank):
            assert oracle_sampled_pair_law(spec, slides[:1], gen, self.N, self.SEED) == []

    def test_planted_kernels_are_flagged(self):
        """On slide 0 of sparse random_spec(1, 3, 2): t's kernel swapped for
        pi in every row (full support, wrong weights) trips the bound, and the
        unslid kernel (without the slid edges) an observed pair of probability 0."""
        spec, slides = sampled_gate_input("sparse", 1, 3)
        t = slides[0].t
        right = pushforward(spec, slides[0])
        for kernel in ((spec.pi,) * spec.size, spec.kernels[t]):
            final = right.with_kernel(t, kernel)
            assert validate(final).ok
            alarms = oracle_sampled_pair_law(spec, slides[:1], t, self.N, self.SEED, final)
            assert alarms
        assert any(p == 0 for _, _, p in alarms)

    @COMPOSITE_DEFECT
    @pytest.mark.parametrize("seed, size", [(1, 3), (4, 4)])
    def test_second_slide_raises_no_alarm(self, seed, size):
        """TestCompositePairLaw's sparse cases, seen by the sampled gate."""
        spec, slides = sampled_gate_input("sparse", seed, size)
        assert oracle_sampled_pair_law(spec, slides[:2], 1, self.N_TOWER, self.SEED) == []

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, pytest.param(3, marks=COMPOSITE_DEFECT), 7])
    def test_frozen_sparse_towers_raise_no_alarm(self, seed):
        """The frozen sparse (10, 5) pipelines (test_frozen_outputs), whole
        towers of 8, 40 and 36 slides: up to 10 ms per replay, about 150 s
        for the 40-slide tower."""
        spec, slides = sampled_gate_input("sparse", seed, 10, 5)
        alarms = {
            gen: oracle_sampled_pair_law(spec, slides, gen, self.N, self.SEED) for gen in range(5)
        }
        assert alarms == {gen: [] for gen in range(5)}


def verify_slide_target_unchanged(out, original):
    return out.pi == original.pi


class TestReplay:
    def test_empty_identity(self, m1):
        x = SampledTree(m1, 1)
        out = replay([], x, 2, rank=2)
        assert all(out[w] == x[w] for w in ball(2, 2))
        with pytest.raises(InputError):
            replay([], x, 2)

    def test_single_slide_involution(self, m1, m1_slide):
        for i in range(5):
            x = SampledTree(m1, derive_seed(13, i))
            twice = replay([m1_slide, m1_slide], x, 2)
            assert all(twice[w] == x[w] for w in ball(2, 2))

    def test_replay_is_the_checked_configuration(self, m1, m1_slide):
        out = replay([m1_slide], SampledTree(m1, 3), 3)
        again = Configuration(dict(out.items()))
        assert out == again and out.domain == again.domain == ball(2, 3)
        assert list(out.items()) == list(again.items())

    def test_rank_checked(self, m1, m1_slide):
        spec = random_properly_ergodic_spec(1, 4, 3)
        slides = generator_ergodic_pipeline(spec)[1]
        x = SampledTree(spec, 2)
        assert len(replay(slides, x, 2, rank=3)) == len(ball(3, 2))
        with pytest.raises(InputError):
            replay(slides, x, 2, rank=2)
        with pytest.raises(InputError):
            replay([m1_slide, *slides], x, 2)
        with pytest.raises(InputError):
            replay([*slides, m1_slide], SampledTree(m1, 2), 2, rank=2)

    @pytest.mark.parametrize("radius, rank", [(True, None), (2.0, None), (2, True), (2, 2.0)])
    def test_radius_and_rank_must_be_ints(self, m1, m1_slide, radius, rank):
        slides = [m1_slide] if rank is None else []
        with pytest.raises(InputError):
            replay(slides, SampledTree(m1, 3), radius, rank=rank)

    def test_slides_must_be_params(self, m1, m1_slide):
        x = SampledTree(m1, 3)
        for slides in (["x"], [m1_slide, None], None, 5, iter([m1_slide])):
            with pytest.raises(InputError, match="SlideParams"):
                replay(slides, x, 1)

    def test_budget_at_a_huge_radius(self, m1, m1_slide):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="radius 10000000 at rank 2"):
            replay([m1_slide], SampledTree(m1, 3), 10**7)
        assert time.perf_counter() - start < 1

    def test_configuration_must_be_a_coordinate_map(self, m1_slide):
        for slides in ([], [m1_slide]):
            with pytest.raises(InputError, match="coordinate map"):
                replay(slides, None, 2, rank=2)

    def test_plain_dict_is_read_as_a_configuration(self, m1_slide):
        """A Mapping is checked as a Configuration: an empty one has no
        identity, and a word outside its domain is a missing coordinate."""
        with pytest.raises(DomainError):
            replay([m1_slide], {}, 1)
        with pytest.raises(MissingCoordinate):
            replay([m1_slide], {IDENTITY: 0}, 1)

    @pytest.mark.parametrize(
        "spec",
        [
            random_properly_ergodic_spec(1, 4, 3),
            random_spec(1, 3, 2, style="sparse"),
            random_spec(1, 3, 3, style="sparse"),
        ],
    )
    def test_matches_the_recoded_view_tower(self, spec):
        """replay, which reads its last recoding on the ball in one pass
        (recode_on), equals the tower of RecodedViews read word by word on
        ball(rank, r), r <= 3, the radius-0 ball included: for a multi-slide
        tower, the tower followed by its reverse, and no slides at an explicit
        rank.  recode_on reads a domain that is not a ball the same way: the
        checked set of ball(rank, 3)'s words free of s1^-1, under the tower's
        inner views."""
        slides = list(generator_ergodic_pipeline(spec)[1])
        assert len(slides) >= 2
        pruned = LeftConnectedSet(w for w in ball(spec.rank, 3) if 1 not in w)
        for tower in (slides, slides + slides[::-1], []):
            for r in range(4):
                view = x = SampledTree(spec, derive_seed(9, r))
                for params in tower:
                    inner, view = view, RecodedView(params.rule, view)
                dom = ball(spec.rank, r)
                out = replay(tower, x, r, rank=spec.rank)
                assert list(out.items()) == [(h, view[h]) for h in dom]
                if tower:
                    recoded = recode_on(tower[-1].rule, pruned)(inner)
                    assert list(recoded) == [view[h] for h in pruned]

    @given(sliding_specs(), st.integers(0, 2**64 - 1), st.data())
    @settings(max_examples=20, deadline=None)
    def test_view_reads_match_fresh_cocycles(self, drawn, tree_seed, data):
        """Each view of a pipeline tower over a sampled tree, read in a drawn
        order (deep words of length 6 to 9 first, then their ancestors, the
        ancestors' children and ball(rank, 2) shuffled, each key a Word or a
        plain tuple), gives its base at cocycle(rule, h, base) from a fresh
        table per word: memo hits, one-step misses and deeper misses agree."""
        spec, slides = drawn
        rank = spec.rank
        codes = range(2 * rank)
        deep = []
        for _ in range(data.draw(st.integers(1, 3))):
            w = [data.draw(st.sampled_from(codes))]
            for _ in range(data.draw(st.integers(5, 8))):
                w.append(data.draw(st.sampled_from([c for c in codes if c != w[-1] ^ 1])))
            deep.append(tuple(w))
        ancestors = {w[i:] for w in deep for i in range(1, len(w) + 1)}
        children = {(c, *a) for a in ancestors for c in codes if not a or a[0] != c ^ 1}
        rest = ancestors | children | set(ball(rank, 2))
        order = deep + data.draw(st.permutations(sorted(rest, key=Word.sort_key)))
        as_word = [data.draw(st.booleans()) for _ in order]
        keys = [Word(h) if w else tuple(h) for h, w in zip(order, as_word)]
        base = SampledTree(spec, tree_seed)
        for params in slides:
            view = RecodedView(params.rule, base)
            assert [view[h] for h in keys] == [base[cocycle(params.rule, h, base)] for h in keys]
            base = view

    def test_pipeline_replay_roundtrip(self, m4):
        _, slides = generator_ergodic_pipeline(m4)
        assert len(slides) >= 2
        for i in range(5):
            x = SampledTree(m4, derive_seed(21, i))
            back = replay(list(slides) + list(reversed(slides)), x, 2)
            assert all(back[w] == x[w] for w in ball(2, 2))


def _gate_probes():
    """(id, call) for every entry point that reads a chain spec from outside,
    each given a spec that is not a MarkovSpec or has a malformed field."""
    spec = random_properly_ergodic_spec(1, 3, 2)
    params = generator_ergodic_pipeline(spec)[1][0]
    replace = dataclasses.replace
    return [
        ("validate-None", lambda: validate(None)),
        ("validate-kernel-None", lambda: validate(spec.with_kernel(0, None))),
        ("validate-row-None", lambda: validate(spec.with_kernel(0, (None,) * 3))),
        ("with_kernel-kernels-None", lambda: replace(spec, kernels=None).with_kernel(0, ())),
        ("with_kernel-generators-None", lambda: replace(spec, generators=None).with_kernel(0, ())),
        (
            "with_kernel-kernels-dict",
            lambda: replace(spec, kernels=dict(enumerate(spec.kernels))).with_kernel(0, ()),
        ),
        ("validate-pi-None", lambda: validate(replace(spec, pi=None))),
        ("validate-kernels-None", lambda: validate(replace(spec, kernels=None))),
        ("validate-alphabet-None", lambda: validate(replace(spec, alphabet=None))),
        ("validate-generators-None", lambda: validate(replace(spec, generators=None))),
        ("validate-unhashable-symbols", lambda: validate(replace(spec, alphabet=([0], [1], [2])))),
        ("classify-pi-short", lambda: classify(replace(spec, pi=spec.pi[:-1]))),
        ("classify-kernels-None", lambda: classify(replace(spec, kernels=None))),
        ("special_sets-None", lambda: special_sets(None, 0, 0)),
        ("support_edges-None", lambda: support_edges(None, 0)),
        ("build_slide_params-None", lambda: build_slide_params(None, 0, 1, [])),
        ("pushforward-None", lambda: pushforward(None, params)),
        ("verify_slide-None", lambda: verify_slide(None, params)),
        ("params_from_json-None", lambda: params_from_json(None, {"u": "s1", "t": "s2", "E": []})),
        ("pipeline-None", lambda: generator_ergodic_pipeline(None)),
        ("pipeline-int", lambda: generator_ergodic_pipeline(5)),
        ("SampledTree-None", lambda: SampledTree(None, 1)),
        ("sample_ball-None", lambda: chains.sample_ball(None, 1, 1)),
    ]


@pytest.mark.parametrize("probe", [pytest.param(f, id=i) for i, f in _gate_probes()])
def test_bad_spec_meets_the_gate(probe):
    """A spec that is not a MarkovSpec raises InputError, and a malformed one
    is reported by validate or raises SpecInvalidError from require_valid;
    no call raises a bare error."""
    try:
        result = probe()
    except TreeshiftError:
        return
    assert isinstance(result, chains.ValidationReport) and not result.ok
