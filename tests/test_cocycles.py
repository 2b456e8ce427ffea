from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Shifted,
    act,
    dependency_radius,
    oracle_scan_positive_windows,
    recode,
    window_marginal,
)
from treeshift import chains
from treeshift.chains import (
    Configuration,
    SampledTree,
    derive_seed,
    sample_ball,
    scan_positive_windows,
)
from treeshift.cocycles import (
    CocycleTable,
    RecodedView,
    RewriteRule,
    check_inverse_pair,
    check_involution,
    check_past_preservation,
    cocycle,
    identity_rule,
)
from treeshift.errors import BudgetError, InputError, MissingCoordinate
from treeshift.randspec import random_spec
from treeshift.slides import _checked, build_slide_params
from treeshift.words import (
    IDENTITY,
    Letter,
    Word,
    ball,
    letters_of_rank,
    multiply,
    reduce,
    single,
    word_from_str,
)

W = word_from_str
U, T = Letter(0, 1), Letter(1, 1)  # slides below move s1 onto s2


@pytest.fixture
def m1_slide(m1):
    return build_slide_params(m1, u=0, t=1, edges=[(0, 1)])


@pytest.fixture
def m1_rule(m1, m1_slide):
    return _checked(m1, m1_slide).rule


def flagged_window():
    """A configuration on which the s2 step is rewritten to s1.s2."""
    return Configuration(
        {
            IDENTITY: 1,
            W("s2"): 0,
            W("s1.s2"): 1,
            W("s1.s1.s2"): 1,
            W("s1^-1.s2"): 1,
        }
    )


class TestIdentityRule:
    def test_cocycle_is_trivial(self, m1):
        rule = identity_rule(2)
        x = SampledTree(m1, 5)
        for g in ball(2, 3):
            assert cocycle(rule, g, x) == g

    def test_recode_is_identity(self, m1):
        rule = identity_rule(2)
        x = sample_ball(m1, 2, seed=9)
        assert recode(rule, x, 2) == x

    def test_dependency_radius(self):
        rule = identity_rule(2)
        assert dependency_radius(rule, 0) == 0
        assert dependency_radius(rule, 4) == 4


class TestSlideRuleCocycle:
    def test_flagged_step(self, m1_rule):
        assert cocycle(m1_rule, single(T), flagged_window()) == W("s1.s2")

    def test_power_shift(self, m1_rule):
        # w(u^m t, x) = u^{m+1} t on the flagged window
        x = flagged_window()
        assert cocycle(m1_rule, W("s1.s2"), x) == W("s1.s1.s2")
        assert cocycle(m1_rule, W("s1.s1.s2"), x) == W("s1.s1.s1.s2")
        assert cocycle(m1_rule, W("s1^-1.s2"), x) == W("s2")

    def test_unflagged_step(self, m1_rule):
        x = Configuration(
            {IDENTITY: 0, W("s2"): 1, W("s1.s2"): 0, W("s1^-1.s2"): 0, W("s1.s1.s2"): 0}
        )
        assert cocycle(m1_rule, single(T), x) == W("s2")

    def test_insufficient_domain_raises(self, m1_rule):
        x = Configuration({IDENTITY: 1, W("s2"): 0})
        with pytest.raises(MissingCoordinate):
            cocycle(m1_rule, single(T), x)

    def test_dependency_radius_bound(self, m1, m1_rule):
        # n_max = 1 so the window radius is 3 and each step adds at most 2
        assert dependency_radius(m1_rule, 2) == 7
        r, radius = 2, dependency_radius(m1_rule, 2)
        lazy = SampledTree(m1, 31)
        exact = Configuration({w: lazy[w] for w in ball(2, radius)})
        out = recode(m1_rule, exact, r)  # must not read outside ball(radius)

        class Perturbed:
            def __getitem__(self, w):
                v = lazy[w]
                return v if len(w) <= radius else 1 - v

        assert recode(m1_rule, Perturbed(), r) == out

    def test_cocycle_identity_sampled(self, m1, m1_rule):
        pairs = [
            (g, h)
            for g in ball(2, 2)
            for h in ball(2, 2)
            if len(g) + len(h) <= 3
        ]
        for i in range(30):
            x = SampledTree(m1, derive_seed(77, i))
            table = CocycleTable(m1_rule, x)
            for g, h in pairs:
                wh = table.omega(h)
                lhs = table.omega(multiply(g, h))
                assert lhs == multiply(cocycle(m1_rule, g, Shifted(x, wh)), wh)

    def test_injective_on_ball(self, m1, m1_rule):
        for i in range(10):
            x = SampledTree(m1, derive_seed(3, i))
            table = CocycleTable(m1_rule, x)
            images = [table.omega(g) for g in ball(2, 3)]
            assert len(set(images)) == len(images)

    def test_equivariance(self, m1, m1_rule):
        for i in range(10):
            x = SampledTree(m1, derive_seed(11, i))
            table = CocycleTable(m1_rule, x)
            for g in ball(2, 2):
                wg = table.omega(g)
                moved = CocycleTable(m1_rule, Shifted(x, wg))
                for h in ball(2, 2):
                    lhs = x[table.omega(multiply(h, g))]
                    rhs = x[multiply(moved.omega(h), wg)]
                    assert lhs == rhs

    def test_double_recode_identity(self, m1, m1_rule):
        for i in range(10):
            x = SampledTree(m1, derive_seed(19, i))
            z = RecodedView(m1_rule, RecodedView(m1_rule, x))
            assert all(z[h] == x[h] for h in ball(2, 2))

    def test_act_inverts(self, m1, m1_rule):
        x = sample_ball(m1, 8, seed=4)
        y = act(m1_rule, single(T), x)
        z = act(m1_rule, single(T.inverse()), y)
        for w in ball(2, 2):
            assert z[w] == x[w]


class TestWindowScan:
    def test_unconditional_reads(self, m1):
        def fn(win):
            win[IDENTITY], win[W("s1")]
            return True

        scan = scan_positive_windows(m1, fn)
        assert scan.ok and scan.windows == 4 and scan.total_weight == 1

    def test_adaptive_reads(self, m1):
        def fn(win):
            if win[IDENTITY] == 0:
                win[W("s2")]
            return True

        scan = scan_positive_windows(m1, fn)
        # swap kernel: from symbol 0 the s2 coordinate is forced, one branch
        assert scan.windows == 2 and scan.total_weight == 1

    def test_budget(self, m1, monkeypatch):
        def fn(win):
            for w in ball(2, 2):
                win[w]
            return True

        # swap kernel along s2: only the s1-steps branch, 2^9 windows on ball(2, 2)
        monkeypatch.setattr(chains, "_MAX_WINDOWS", 512)
        assert scan_positive_windows(m1, fn).windows == 512
        monkeypatch.setattr(chains, "_MAX_WINDOWS", 511)
        with pytest.raises(BudgetError):
            scan_positive_windows(m1, fn)

    def test_marginal(self, m1):
        law = window_marginal(m1, lambda win: (win[IDENTITY], win[W("s2")]))
        assert law == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}

    def test_no_reads(self, m1):
        scan = scan_positive_windows(m1, lambda win: True)
        assert scan.windows == 1 and scan.total_weight == 1

    @given(
        st.integers(0, 10**6),
        st.integers(2, 3),
        st.integers(2, 3),
        st.sampled_from(["mixed", "sparse"]),
        st.lists(st.lists(st.integers(0, 5), max_size=2), min_size=1, max_size=4),
        st.integers(2, 3),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_oracle(self, seed, size, rank, style, reads, mod, zero_row):
        """The integer scan gives the Fraction scan's law (values, Fractions and
        key order), window count and failures.  The window function reads words
        of mixed letters and stops early depending on what it read, so windows
        differ in size and letters and carry different denominators; its value
        is 0 (falsy) on some windows.  With zero_row one kernel row is zeroed
        (left unnormalised, as in a dropped-transition candidate)."""
        spec = random_spec(seed, size, rank, style=style)
        if zero_row:
            gen, a = seed % rank, seed % size
            k = spec.kernels[gen]
            spec = spec.with_kernel(gen, k[:a] + ((Fraction(0),) * size,) + k[a + 1 :])
        letters = letters_of_rank(rank)
        words = [reduce(tuple(letters[j % len(letters)] for j in js)) for js in reads]

        def fn(win):
            acc = 0
            for i, w in enumerate(words):
                acc += win[w]
                if (acc + i) % mod == 0:
                    break
            return acc % mod

        scan, oracle = scan_positive_windows(spec, fn), oracle_scan_positive_windows(spec, fn)
        assert list(scan.law.items()) == list(oracle.law.items())
        assert all(type(p) is Fraction for p in scan.law.values())
        assert (scan.windows, scan.failures) == (oracle.windows, oracle.failures)


class TestOutputLength:
    def test_rule_from_rewrite_checks_every_image(self, m1):
        rule = RewriteRule(2, 0, 1, frozenset({U}), lambda l, x, offset: W("s1.s2"))
        x = SampledTree(m1, 0)
        with pytest.raises(InputError):
            rule.letter_image(U, x)
        with pytest.raises(InputError):
            cocycle(rule, single(U), x)

    def test_rule_from_steps_checks_its_images_once(self):
        def step(x, offset):
            return single(U)

        with pytest.raises(InputError):
            RewriteRule.from_steps(2, 0, 1, {U: step}, [single(U), W("s1.s2")])
        rule = RewriteRule.from_steps(2, 0, 1, {U: step}, [single(U)])
        assert rule.active == {U}
        assert rule.letter_image(U, {}) == rule.rewrite(U, {}, IDENTITY) == single(U)
        assert rule.letter_image(T, {}) == single(T)


class TestInvolution:
    def test_identity(self, m1):
        assert check_involution(identity_rule(2), m1)

    def test_slide_rule(self, m1, m1_rule):
        assert check_involution(m1_rule, m1)

    def test_broken_rule(self, m1):
        def rewrite(l, x, offset):
            return W("s1.s2") if l == U else single(l)

        rule = RewriteRule(2, 0, 2, frozenset({U, U.inverse()}), rewrite)
        assert not check_involution(rule, m1)


class TestPastPreservation:
    def test_identity(self, m1):
        for l in (U, T, U.inverse(), T.inverse()):
            assert check_past_preservation(identity_rule(2), m1, l, 2)

    def test_slide_preserves_target_direction(self, m1, m1_rule):
        # the only letter outside {t^-1, u, u^-1} at rank 2 is t itself
        assert check_past_preservation(m1_rule, m1, T, 2)

    def test_slide_moves_source_past(self, m1, m1_rule):
        # w(t^-1 u, x) = (ut)^-1 u = t^-1 on flagged windows, leaving past(u)
        assert not check_past_preservation(m1_rule, m1, U, 2)


class TestInversePair:
    def test_identity_pair(self, m1):
        assert check_inverse_pair(identity_rule(2), identity_rule(2), m1, 2)

    def test_slide_self_inverse(self, m1, m1_rule):
        assert check_inverse_pair(m1_rule, m1_rule, m1, 2)

    def test_mismatched_pair(self, m1, m1_rule):
        assert not check_inverse_pair(identity_rule(2), m1_rule, m1, 2)
