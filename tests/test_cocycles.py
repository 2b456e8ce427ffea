import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Shifted,
    act,
    check_inverse_pair,
    check_involution,
    check_past_preservation,
    dependency_radius,
    letters_of_rank,
    oracle_enumerate_cylinders,
    oracle_scan_positive_windows,
    recode,
    window_marginal,
)
from treeshift import chains
from treeshift.chains import (
    Configuration,
    SampledTree,
    covering_scan,
    derive_seed,
    enumerate_cylinders,
    sample_ball,
    scan_positive_windows,
)
from treeshift.cocycles import (
    CocycleTable,
    RecodedView,
    RewriteRule,
    cocycle,
    identity_rule,
    recode_on,
)
from treeshift.errors import BudgetError, InputError, MissingCoordinate
from treeshift.randspec import random_properly_ergodic_spec, random_spec
from treeshift.slides import _checked, build_slide_params, generator_ergodic_pipeline
from treeshift.words import (
    IDENTITY,
    LeftConnectedSet,
    Word,
    ball,
    multiply,
    single,
    word_from_str,
)

W = word_from_str
U, T = 0, 2  # the letter codes of s1 and s2: slides below move s1 onto s2


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
        """Recoding twice restores x; a view is its cocycle table read through."""
        for i in range(10):
            x = SampledTree(m1, derive_seed(19, i))
            y = RecodedView(m1_rule, x)
            z = RecodedView(m1_rule, y)
            assert all(z[h] == x[h] for h in ball(2, 2))
            assert isinstance(y, CocycleTable)
            assert all(y[h] == x[y.omega(h)] for h in ball(2, 2))

    def test_act_inverts(self, m1, m1_rule):
        x = sample_ball(m1, 8, seed=4)
        y = act(m1_rule, single(T), x)
        z = act(m1_rule, single(T ^ 1), y)
        for w in ball(2, 2):
            assert z[w] == x[w]


class TestWindowScan:
    def test_unconditional_reads(self, m1):
        def fn(win):
            win[IDENTITY], win[W("s1")]
            return True

        scan = scan_positive_windows(m1, fn)
        assert scan.ok and scan.windows == 4 and sum(scan.weights.values()) == scan.den

    def test_adaptive_reads(self, m1):
        def fn(win):
            if win[IDENTITY] == 0:
                win[W("s2")]
            return True

        scan = scan_positive_windows(m1, fn)
        # swap kernel: from symbol 0 the s2 coordinate is forced, one branch
        assert scan.windows == 2 and sum(scan.weights.values()) == scan.den

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

    def test_coordinate_budget(self):
        """A read of s2^399 fills its whole geodesic from one miss: 400
        coordinates, the most a window may hold.  s2 is a 3-cycle here, so each
        symbol at e gives one window.  One more letter raises BudgetError.
        Both finish fast: the window fills the geodesic in place, without
        running fn again per coordinate."""
        spec = random_properly_ergodic_spec(1, 3, 2)
        assert chains._MAX_COORDS == 400
        start = time.perf_counter()
        assert scan_positive_windows(spec, lambda win: win[Word((T,) * 399)]).windows == 3
        assert time.perf_counter() - start < 1
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="beyond 400 coordinates"):
            scan_positive_windows(spec, lambda win: win[Word((T,) * 400)])
        assert time.perf_counter() - start < 1

    def test_marginal(self, m1):
        law = window_marginal(m1, lambda win: (win[IDENTITY], win[W("s2")]))
        assert law == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}

    def test_no_reads(self, m1):
        scan = scan_positive_windows(m1, lambda win: True)
        assert scan.windows == 1 and sum(scan.weights.values()) == scan.den

    @given(
        st.integers(0, 10**6),
        st.integers(2, 3),
        st.integers(2, 3),
        st.sampled_from(["mixed", "sparse"]),
        st.lists(st.lists(st.integers(0, 5), max_size=3), min_size=1, max_size=4),
        st.integers(2, 3),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_oracle(self, seed, size, rank, style, reads, mod, zero_row):
        """The integer scan gives the Fraction scan's law (values, Fractions and
        key order), window count and failures.  The window function reads words
        of up to three mixed letters, so one miss fills up to four coordinates,
        and stops early depending on what it read, so windows differ in size
        and letters and carry different denominators; its value
        is 0 (falsy) on some windows.  With zero_row one kernel row is zeroed
        (left unnormalised, as in a dropped-transition candidate)."""
        spec = random_spec(seed, size, rank, style=style)
        if zero_row:
            gen, a = seed % rank, seed % size
            k = spec.kernels[gen]
            spec = spec.with_kernel(gen, k[:a] + ((Fraction(0),) * size,) + k[a + 1 :])
        words = [reduce(multiply, (single(j % (2 * rank)) for j in js), IDENTITY) for js in reads]

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

    def test_fn_runs_once_per_window(self):
        """A read outside the window fills it in place and fn reads on, so fn
        runs once per window, also when it misses several times per window
        (here on up to four separate geodesics, of one to three words)."""
        spec = random_spec(3, 3, 2)
        reads = [W("s1.s2"), W("s2^-1"), W("s1^-1.s2^-1.s1"), W("s2.s2")]
        calls = []

        def fn(win):
            calls.append(1)
            acc = win[IDENTITY]
            for w in reads:
                acc += win[w]
                if acc % 3 == 0:
                    break
            return acc

        scan = scan_positive_windows(spec, fn)
        assert len(calls) == scan.windows > 20
        assert sum(scan.weights.values()) == scan.den

    def test_enumerate_cylinders_runs_its_function_once_per_head_cylinder(self, m3, monkeypatch):
        """enumerate_cylinders' function misses on every domain word and defers
        its read of the last one: it runs once per cylinder on the domain
        without its last word, and the scan counts one window per cylinder."""
        calls, scans = [], []
        scan = chains.scan_positive_windows

        def counted(spec, fn):
            scans.append(scan(spec, lambda win: calls.append(1) or fn(win)))
            return scans[-1]

        monkeypatch.setattr(chains, "scan_positive_windows", counted)
        words = [IDENTITY, W("s1"), W("s2^-1")]
        cylinders = list(enumerate_cylinders(m3, LeftConnectedSet(words)))
        heads = list(oracle_enumerate_cylinders(m3, LeftConnectedSet(words[:-1])))
        assert len(calls) == len(heads) == 4
        assert scans[0].windows == len(cylinders) == 12

    def test_own_miss_propagates(self, m3):
        """No read of the window raises, so a MissingCoordinate that fn raises
        itself, here for a word it has not read, leaves the scan as it is."""
        far = W("s2.s1^-1")

        def fn(win):
            if far not in win:
                raise MissingCoordinate(far)
            return win[far]

        with pytest.raises(MissingCoordinate) as miss:
            scan_positive_windows(m3, fn)
        assert miss.value.word == far

    def test_dead_end_inside_a_fill(self, m3):
        """A zero row met in the middle of a geodesic fill drops that branch:
        reading s1.s2.s1 fills e, s1, s2.s1 and s1.s2.s1 from one miss, and
        the s2 row of symbol 0 is zeroed, so every window with 0 at s1 ends at
        s2.s1.  The windows, law and failures are the Fraction oracle's."""
        k = m3.kernels[1]
        spec = m3.with_kernel(1, ((Fraction(0),) * 3,) + k[1:])
        fn = lambda win: win[W("s1.s2.s1")] - win[IDENTITY]  # noqa: E731
        scan, oracle = scan_positive_windows(spec, fn), oracle_scan_positive_windows(spec, fn)
        assert list(scan.law.items()) == list(oracle.law.items())
        assert (scan.windows, scan.failures) == (oracle.windows, oracle.failures)
        assert 0 < scan.windows < scan_positive_windows(m3, fn).windows
        assert sum(scan.weights.values()) < scan.den

    def test_covering_scan_rejects_a_scan_that_misses_mass(self, m3):
        """covering_scan holds a scan's int weights to its den: with the s2
        row of symbol 0 halved, a spec that require_form accepts, a scan that
        reads s2 weighs 1 - pi(0) / 2 and raises InputError."""
        k = m3.kernels[1]
        spec = chains.require_form(m3.with_kernel(1, (tuple(p / 2 for p in k[0]),) + k[1:]))
        fn = lambda win: win[W("s2")]  # noqa: E731
        scan = covering_scan(m3, fn)
        assert sum(scan.weights.values()) == scan.den
        assert sum(scan_positive_windows(spec, fn).law.values()) == 1 - m3.pi[0] / 2
        with pytest.raises(InputError, match="did not cover the space"):
            covering_scan(spec, fn)


class _ReadThrough:
    """A scan's window read through a plain coordinate map, so that
    chains._read_last reads its last word as any other: the scan without the
    fanned-out last read."""

    __slots__ = ("win",)

    def __init__(self, win):
        self.win = win

    def __getitem__(self, w):
        return self.win[w]


def _codes_word(codes) -> Word:
    return reduce(multiply, map(single, codes), IDENTITY)


def _drawn_domain(rank: int, grows) -> LeftConnectedSet:
    """{e} grown by each (i, c) of grows: c put on the i-th word so far (mod
    their count), unless that cancels or the word is there already."""
    words = [IDENTITY]
    for i, c in grows:
        w, c = words[i % len(words)], c % (2 * rank)
        if not (w and w[0] == c ^ 1) and (c,) + w not in words:
            words.append(Word((c,) + w))
    return LeftConnectedSet(words)


def _drawn_rule(rank: int, picks) -> RewriteRule:
    """A rule whose step for each picked code c reads one probe word at the
    translate and picks one of two images by that symbol's parity; images
    and probes are words of up to two letters."""
    steps, images = {}, []
    for c, probe, one, two in picks:
        probe = _codes_word(j % (2 * rank) for j in probe)
        imgs = tuple(_codes_word(j % (2 * rank) for j in img) for img in (one, two))
        steps[c % (2 * rank)] = lambda x, offset, probe=probe, imgs=imgs: imgs[
            x[multiply(probe, offset)] % 2
        ]
        images += imgs
    return RewriteRule(rank, 2, 2, steps, images)


def _scan_fields(scan) -> tuple:
    """Every field of a WindowScan, the weights with their key order."""
    return scan.windows, list(scan.weights.items()), scan.den, scan.failures


class TestDeferredLastRead:
    """The scan's fan-out of a deferred last read (chains._read_last) against
    the scan that fills the word and runs the function once per successor."""

    @given(
        st.integers(0, 10**6),
        st.integers(2, 3),
        st.integers(2, 3),
        st.sampled_from(["mixed", "sparse", "proper"]),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5)), max_size=4),
        st.lists(
            st.tuples(
                st.integers(0, 5),
                *[st.lists(st.integers(0, 5), max_size=2)] * 3,
            ),
            max_size=2,
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fanned_out_scans_are_the_per_read_scans(
        self, seed, size, rank, style, grows, picks, zero_row
    ):
        """_cylinder_scan and a recode_on scan on a drawn left-connected domain
        equal the scan of the same function reading its last word plainly, in
        every WindowScan field and in key order, and the Fraction oracle's
        scan of that function in law and window count.  The recode_on rule is
        drawn, so its last cocycle word may be in the window, one step out or
        further.  With zero_row the row of the domain's last word at one
        symbol is zeroed (a row of P_i along s_i, a column along s_i^-1,
        whose reversed row it is), so a deferred word may have no successor."""
        if style == "proper":
            spec = random_properly_ergodic_spec(seed, size, rank)
        else:
            spec = random_spec(seed, size, rank, style=style)
        domain = _drawn_domain(rank, grows)
        last = domain.words[-1]
        if zero_row and last:
            gen, a = last[0] >> 1, seed % size
            k = [list(row) for row in spec.kernels[gen]]
            for i, j in [(b, a) if last[0] & 1 else (a, b) for b in range(size)]:
                k[i][j] = Fraction(0)
            spec = spec.with_kernel(gen, tuple(map(tuple, k)))

        words = domain.words
        cylinders = chains._cylinder_scan(spec, domain)
        plain = lambda win: tuple(win[w] for w in words)  # noqa: E731
        per_read = scan_positive_windows(spec, plain)
        oracle = oracle_scan_positive_windows(spec, plain)
        assert _scan_fields(cylinders) == _scan_fields(per_read)
        assert (cylinders.windows, list(cylinders.law.items())) == (
            oracle.windows, list(oracle.law.items())
        )

        recode = recode_on(_drawn_rule(rank, picks), domain)
        recoded = scan_positive_windows(spec, recode)
        per_read = scan_positive_windows(spec, lambda win: recode(_ReadThrough(win)))
        oracle = oracle_scan_positive_windows(spec, recode)
        assert _scan_fields(recoded) == _scan_fields(per_read)
        assert (recoded.windows, list(recoded.law.items())) == (
            oracle.windows, list(oracle.law.items())
        )

    @pytest.mark.parametrize("length", [399, 400])
    def test_deferred_read_keeps_the_coordinate_budget(self, length):
        """A cylinder scan of e, s2, ..., s2^length defers s2^length, the read
        that takes the window from length to length + 1 coordinates.  At 399
        the window reaches _MAX_COORDS and the scan passes; at 400, one past
        it, the deferred read raises BudgetError, as the plain read does.  s2
        is a 3-cycle here, so each symbol at e gives one window."""
        spec = random_properly_ergodic_spec(1, 3, 2)
        assert chains._MAX_COORDS == 400
        domain = LeftConnectedSet(Word((T,) * j) for j in range(length + 1))
        plain = lambda win: tuple(win[w] for w in domain.words)  # noqa: E731
        if length < chains._MAX_COORDS:
            scan = chains._cylinder_scan(spec, domain)
            assert scan == scan_positive_windows(spec, plain) and scan.windows == 3
        else:
            with pytest.raises(BudgetError, match="beyond 400 coordinates"):
                scan_positive_windows(spec, plain)
            with pytest.raises(BudgetError, match="beyond 400 coordinates"):
                chains._cylinder_scan(spec, domain)

    @pytest.mark.parametrize("recoded", [False, True])
    def test_fanned_out_windows_count_against_the_budget(self, m3, m1_rule, monkeypatch, recoded):
        """Each successor of a deferred read is one window of the budget: with
        _MAX_WINDOWS at the scan's window count the scan passes, one less
        raises BudgetError, for a cylinder scan and a recode_on scan."""
        domain = LeftConnectedSet([IDENTITY, W("s1"), W("s2^-1"), W("s1.s2^-1")])
        if recoded:
            scan = lambda: scan_positive_windows(m3, recode_on(m1_rule, domain))  # noqa: E731
        else:
            scan = lambda: chains._cylinder_scan(m3, domain)  # noqa: E731
        windows = scan().windows
        assert windows > 10
        monkeypatch.setattr(chains, "_MAX_WINDOWS", windows)
        assert scan().windows == windows
        monkeypatch.setattr(chains, "_MAX_WINDOWS", windows - 1)
        with pytest.raises(BudgetError, match="positive windows"):
            scan()


class TestOutputLength:
    def test_rule_checks_its_images_once(self):
        def step(x, offset):
            return single(U)

        with pytest.raises(InputError):
            RewriteRule(2, 0, 1, {U: step}, [single(U), W("s1.s2")])
        rule = RewriteRule(2, 0, 1, {U: step}, [single(U)])
        assert rule.steps.keys() == {U}
        assert rule.letter_image(U, {}) == single(U)
        assert rule.letter_image(T, {}) == single(T)


class TestInvolution:
    def test_identity(self, m1):
        assert check_involution(identity_rule(2), m1)

    def test_slide_rule(self, m1, m1_rule):
        assert check_involution(m1_rule, m1)

    def test_broken_rule(self, m1):
        up, back = W("s1.s2"), single(U ^ 1)
        rule = RewriteRule(2, 0, 2, {U: lambda x, o: up, U ^ 1: lambda x, o: back}, [up, back])
        assert not check_involution(rule, m1)


class TestPastPreservation:
    def test_identity(self, m1):
        for l in letters_of_rank(2):
            assert check_past_preservation(identity_rule(2), m1, l, 2)

    def test_slide_preserves_target_direction(self, m1, m1_rule):
        # the only letter outside {t^-1, u, u^-1} at rank 2 is t = s2 itself
        assert check_past_preservation(m1_rule, m1, (1, 1), 2)

    def test_slide_moves_source_past(self, m1, m1_rule):
        # w(t^-1 u, x) = (ut)^-1 u = t^-1 on flagged windows, leaving past(u), u = s1
        assert not check_past_preservation(m1_rule, m1, (0, 1), 2)


class TestInversePair:
    def test_identity_pair(self, m1):
        assert check_inverse_pair(identity_rule(2), identity_rule(2), m1, 2)

    def test_slide_self_inverse(self, m1, m1_rule):
        assert check_inverse_pair(m1_rule, m1_rule, m1, 2)

    def test_mismatched_pair(self, m1, m1_rule):
        assert not check_inverse_pair(identity_rule(2), m1_rule, m1, 2)


class TestTableKeys:
    @pytest.fixture
    def rank3(self):
        """A pipeline slide's rule on sparse random_spec(0, 3, 3), and a tree of that spec."""
        spec = random_spec(0, 3, 3, style="sparse")
        return generator_ergodic_pipeline(spec)[1][0].rule, SampledTree(spec, 5)

    def test_bad_keys_raise_after_a_hit(self, rank3):
        """A key equal to a memoised word but not made of int codes, (True,) or
        (1.0,), raises on a table as it does on a fresh one: the key is
        checked before the memo is read."""
        rule, x = rank3
        view, table = RecodedView(rule, x), CocycleTable(rule, x)
        assert view[(1,)] == x[table.omega((1,))] == x[cocycle(rule, (1,), x)]
        for bad in [(True,), (1.0,)]:
            with pytest.raises(InputError, match="not a reduced word of rank 3"):
                view[bad]
            with pytest.raises(InputError, match="not a reduced word of rank 3"):
                table.omega(bad)

    def test_codes_past_the_rank_raise(self, rank3):
        """A code at or past 2 rank is no letter, as a plain tuple or a Word,
        on a fresh table or after hits; recode_on checks its domain once."""
        rule, x = rank3
        past = Word([9])  # s5^-1
        view = RecodedView(rule, x)
        for hit in [(0,), (2, 0)]:  # (9, 0) and s4.s1 then miss with a memoized parent
            assert view[hit] == x[cocycle(rule, hit, x)]
        for key in [(9,), past, (9, 0), Word([6, 0])]:
            for read in (lambda h: view[h], lambda h: cocycle(rule, h, x)):
                with pytest.raises(InputError, match="rank 3"):
                    read(key)
        with pytest.raises(InputError, match="rank-3"):
            recode_on(rule, ball(4, 1))
