import copy
import hashlib
import itertools
import json
import pickle
import re
import time
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    bernoulli_spec,
    edge_letter,
    letters,
    word,
    brute_marginal,
    empirical_cylinder,
    left_connected_subsets,
    make_spec,
    marginal_table,
    oracle_draw,
    oracle_enumerate_cylinders,
    oracle_kernel,
    oracle_reverse_kernel,
    oracle_thresholds,
    translate_configuration,
    window_marginal,
)
from treeshift import chains
from treeshift.chains import (
    Configuration,
    MarkovSpec,
    SampledTree,
    _Ints,
    _thresholds,
    cylinder_measure,
    derive_seed,
    enumerate_cylinders,
    frac_from_str,
    kernel_for_letter,
    reverse_kernel,
    sample_ball,
    scaled,
    spec_from_json,
    spec_to_json,
    validate,
)
from treeshift.errors import (
    BudgetError,
    DomainError,
    InputError,
    MissingCoordinate,
    SpecInvalidError,
)
from treeshift.graphs import classify
from treeshift.randspec import random_properly_ergodic_spec, random_spec
from treeshift.slides import generator_ergodic_pipeline, pushforward, replay
from treeshift.words import (
    IDENTITY,
    LeftConnectedSet,
    Word,
    ball,
    multiply,
    parent,
    single,
    word_from_str,
    word_to_str,
)

H = Fraction(1, 2)
W = word_from_str


def sampler_bytes(w) -> bytes:
    """The bytes the sampler hashes for a word, built from its letters."""
    tokens = [f"s{gen + 1}" + ("^-1" if sign < 0 else "") for gen, sign in letters(w)]
    return (".".join(tokens) or "e").encode()


class TestFractions:
    def test_accepts_lowest_terms(self):
        assert frac_from_str("1/2") == H
        assert frac_from_str("3") == 3
        assert frac_from_str("0") == 0

    def test_rejects_bad_input(self):
        for bad in ["2/4", "-1/2", "1/-2", "1/0", "0/2", "1.5", "1/2/3", " 1/2", "01/2", 1, None]:
            with pytest.raises(InputError):
                frac_from_str(bad)

    @given(st.fractions(min_value=0, max_value=10))
    def test_round_trip(self, f):
        assert frac_from_str(str(f)) == f


class TestValidate:
    def test_bernoulli_valid(self):
        spec = bernoulli_spec([0, 1], [H, H])
        assert validate(spec).ok

    def test_identity_kernel_valid(self):
        spec = make_spec(
            ["s1", "s2"], [0, 1], [H, H], [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]
        )
        assert validate(spec).ok

    def test_nonstationary_rejected(self):
        spec = make_spec(
            ["s1", "s2"],
            [0, 1],
            [Fraction(1, 3), Fraction(2, 3)],
            [[[H, H], [H, H]], [[H, H], [H, H]]],
        )
        report = validate(spec)
        assert not report.ok
        assert any("stationary" in p for p in report.problems)

    def test_zero_mass_rejected(self):
        spec = make_spec(["s1", "s2"], [0, 1], [1, 0], [[[1, 0], [0, 1]]] * 2)
        assert any("positive" in p for p in validate(spec).problems)

    def test_non_stochastic_row_rejected(self):
        spec = make_spec(["s1", "s2"], [0, 1], [H, H], [[[H, H], [H, 1]], [[H, H], [H, H]]])
        assert any("sums to" in p for p in validate(spec).problems)


class TestReverseKernel:
    def test_symmetric_uniform_is_self_reverse(self):
        spec = make_spec(
            ["s1", "s2"], [0, 1], [H, H], [[[H, H], [H, H]], [[0, 1], [1, 0]]]
        )
        k = spec.kernels[0]
        assert reverse_kernel(spec, 0) == tuple(zip(*k)) == k

    def test_worked_example(self):
        spec = make_spec(
            ["s1", "s2"],
            [0, 1],
            [Fraction(1, 3), Fraction(2, 3)],
            [[[0, 1], [H, H]], [[0, 1], [H, H]]],
        )
        assert validate(spec).ok
        rev = reverse_kernel(spec, 0)
        assert rev == ((Fraction(0), Fraction(1)), (H, H))
        # detailed balance form: pi(a) rev(a,b) == pi(b) P(b,a)
        for a in range(2):
            for b in range(2):
                assert spec.pi[a] * rev[a][b] == spec.pi[b] * spec.kernels[0][b][a]

    @pytest.mark.parametrize("seed", range(6))
    def test_involution_and_rows(self, seed):
        spec = random_spec(seed, size=seed % 3 + 2)
        for gen in range(spec.rank):
            rev = reverse_kernel(spec, gen)
            for row in rev:
                assert sum(row) == 1
                assert all(x >= 0 for x in row)
            back = MarkovSpec(spec.generators, spec.alphabet, spec.pi, (rev,) * spec.rank)
            assert reverse_kernel(back, 0) == spec.kernels[gen]

    def test_list_field_spec_and_no_cached_spec(self):
        """A list-field spec passes validate but cannot be hashed: reverse_kernel
        serves it from the spec's own table, and its cache stays empty."""
        base = random_spec(0, 3, 2)
        spec = MarkovSpec(
            list(base.generators),
            list(base.alphabet),
            list(base.pi),
            [[list(row) for row in k] for k in base.kernels],
        )
        for s in (spec, base):
            for gen in range(2):
                assert reverse_kernel(s, gen) == oracle_reverse_kernel(base, gen)
        assert reverse_kernel.cache_info().currsize == 0
        with pytest.raises(InputError):
            reverse_kernel(base, 2)


class TestConfiguration:
    def test_requires_left_connected_domain(self):
        with pytest.raises(DomainError):
            Configuration({IDENTITY: 0, W("s1.s1"): 1})
        with pytest.raises(DomainError):
            Configuration({W("s1"): 0})

    def test_missing_coordinate(self):
        phi = Configuration({IDENTITY: 0})
        with pytest.raises(MissingCoordinate):
            phi[W("s1")]

    def test_missing_coordinate_names_the_word(self):
        """The message, written on demand, is the one the error always had."""
        phi = Configuration({IDENTITY: 0})
        with pytest.raises(MissingCoordinate, match=r"^coordinate s1\.s2\^-1 not in domain$") as e:
            phi[W("s1.s2^-1")]
        assert e.value.word == W("s1.s2^-1")
        assert str(MissingCoordinate(IDENTITY)) == "coordinate e not in domain"

    @given(
        st.integers(0, 40), st.integers(2, 3), st.integers(0, 3), st.integers(0, 2**64 - 1),
        st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_outputs_behave_as_rebuilt_from_their_items(self, seed, size, radius, s, replayed):
        """A configuration that sample_ball or replay builds from its values in
        canonical order equals, hashes like, pickles like and reads like the
        one Configuration builds from its items; a word outside the domain
        raises MissingCoordinate on both."""
        spec = random_properly_ergodic_spec(seed, size, 2)
        if replayed:
            c = replay(generator_ergodic_pipeline(spec)[1], SampledTree(spec, s), radius, rank=2)
        else:
            c = sample_ball(spec, radius, s)
        again = Configuration(dict(c.items()))
        assert c == again and hash(c) == hash(again) and repr(c) == repr(again)
        assert pickle.dumps(c) == pickle.dumps(again) and pickle.loads(pickle.dumps(c)) == again
        assert len(c) == len(again) == len(ball(2, radius)) and list(c) == list(again)
        for w in ball(2, radius):
            assert w in c and c[w] == again[w] == c.get(w) == again.get(w)
        outside = word(*((1, -1),) * (radius + 1))
        assert outside not in c and c.get(outside, -1) == again.get(outside, -1) == -1
        for config in (c, again):
            with pytest.raises(MissingCoordinate) as info:
                config[outside]
            assert info.value.word == outside


class TestCylinderMeasure:
    def test_singleton(self, m1):
        for a in range(2):
            assert cylinder_measure(m1, Configuration({IDENTITY: a})) == H

    def test_worked_quarter_cylinder(self, m1):
        phi = Configuration({IDENTITY: 0, W("s1"): 1, W("s2.s1"): 0})
        assert cylinder_measure(m1, phi) == Fraction(1, 4)

    @pytest.mark.parametrize(
        "values, named",
        [
            ({IDENTITY: -1}, "symbol -1 at e "),
            ({IDENTITY: 0, W("s1"): 2}, "symbol 2 at s1 "),
            ({IDENTITY: True}, "symbol True at e "),
            ({IDENTITY: 0, W("s2^-1"): "a"}, "symbol 'a' at s2^-1 "),
            # s2 swaps the symbols, so the measure is 0 before s1.s2 is read
            ({IDENTITY: 0, W("s2"): 0, W("s1.s2"): 5}, "symbol 5 at s1.s2 "),
        ],
    )
    def test_value_outside_alphabet_named(self, m1, values, named):
        """A negative value would read pi[-1] and one beyond the alphabet a
        bare IndexError; each is named with its word instead."""
        with pytest.raises(InputError, match=re.escape(named)):
            cylinder_measure(m1, Configuration(values))

    def test_bernoulli_product(self):
        spec = bernoulli_spec([0, 1, 2], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        for dom in [ball(2, 1), ball(2, 2)]:
            phi = Configuration({w: i % 3 for i, w in enumerate(dom)})
            expected = Fraction(1)
            for w, v in phi.items():
                expected *= spec.pi[v]
            assert cylinder_measure(spec, phi) == expected

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_brute_marginal_on_small_ball(self, seed, m1):
        spec = m1 if seed == 0 else random_spec(seed, size=3)
        big = ball(2, 1)
        for sub in left_connected_subsets(big):
            sub_words = sorted(sub, key=lambda w: w.sort_key())
            table = marginal_table(spec, big, sub_words)
            for values in itertools.product(range(spec.size), repeat=len(sub_words)):
                phi = Configuration(dict(zip(sub_words, values)))
                assert cylinder_measure(spec, phi) == table.get(values, Fraction(0))

    def test_brute_marginal_single_config(self, m1):
        phi = {IDENTITY: 0, W("s1"): 1, W("s2.s1"): 0}
        assert brute_marginal(m1, ball(2, 2), phi) == Fraction(1, 4)

    def test_additivity(self, m1):
        dom = ball(2, 1)
        child = W("s1.s1")
        weights = dict(enumerate_cylinders(m1, dom))
        for values in itertools.product(range(2), repeat=len(dom)):
            phi = dict(zip(dom.words, values))
            total = sum(
                cylinder_measure(m1, Configuration({**phi, child: a})) for a in range(2)
            )
            assert total == cylinder_measure(m1, Configuration(phi)) == weights.get(values, 0)

    def test_translation_invariance(self, m1):
        dom = ball(2, 1)
        for values, weight in enumerate_cylinders(m1, dom):
            phi = Configuration(dict(zip(dom.words, values)))
            for h in dom:
                psi = translate_configuration(phi, h)
                assert cylinder_measure(m1, psi) == weight

    @pytest.mark.parametrize("seed", range(3))
    def test_total_mass(self, seed):
        spec = random_spec(seed, size=2 + seed, style="sparse")
        total = sum(w for _, w in enumerate_cylinders(spec, ball(2, 1)))
        assert total == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_full_sweep_matches_cylinder_measures(self, seed):
        """enumerate_cylinders yields the value tuples of positive cylinder_measure
        in itertools.product order, each with its measure."""
        spec = random_spec(seed, 3, 3, style="sparse" if seed % 2 else "mixed")
        doms = [["e"], ["e", "s3^-1"], ["e", "s2", "s1.s2"], ["e", "s2", "s1^-1.s2"]]
        for words in doms:
            dom = Configuration({W(w): 0 for w in words}).domain
            measures = (
                (values, cylinder_measure(spec, Configuration(dict(zip(dom.words, values)))))
                for values in itertools.product(range(spec.size), repeat=len(dom))
            )
            expected = [(values, p) for values, p in measures if p > 0]
            assert list(enumerate_cylinders(spec, dom)) == expected

    def test_enumeration_budget(self, m1, monkeypatch):
        # on ball(2, 1) only x_e and the two s1-steps branch (s2 swaps): 2^3 cylinders
        monkeypatch.setattr(chains, "_MAX_WINDOWS", 8)
        assert len(list(enumerate_cylinders(m1, ball(2, 1)))) == 8
        monkeypatch.setattr(chains, "_MAX_WINDOWS", 7)
        with pytest.raises(BudgetError):
            list(enumerate_cylinders(m1, ball(2, 1)))
        # up to 3^17 positive cylinders: stops at the budget instead
        monkeypatch.setattr(chains, "_MAX_WINDOWS", 1000)
        with pytest.raises(BudgetError):
            list(enumerate_cylinders(random_spec(3, 3, 2), ball(2, 2)))

    @given(
        st.integers(0, 10**6),
        st.integers(2, 4),
        st.integers(2, 3),
        st.sampled_from(["mixed", "sparse"]),
        st.lists(st.tuples(st.integers(0, 10), st.integers(0, 5)), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_positive_sweep(self, seed, size, rank, style, steps):
        """The window scan on a fixed domain yields the old depth-first
        positive sweep: the same pairs in the same order."""
        spec = random_spec(seed, size, rank, style=style)
        words = [IDENTITY]
        for i, j in steps:  # c.w has parent w, or is w's parent when c cancels
            w = multiply(single(j % (2 * rank)), words[i % len(words)])
            words += [w] if w not in words else []
        dom = LeftConnectedSet(words)
        assert list(enumerate_cylinders(spec, dom)) == list(oracle_enumerate_cylinders(spec, dom))


class TestRestrictionAssemble:
    def test_three_step_cylinder_matches(self, m1):
        path = [0, 1, 0]
        k = m1.kernels[0]
        chain_prob = m1.pi[path[0]] * k[0][1] * k[1][0]
        phi = Configuration({IDENTITY: 0, W("s1"): 1, W("s1.s1"): 0})
        assert chain_prob == cylinder_measure(m1, phi) == Fraction(1, 8)


class TestSeedRange:
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: SampledTree(spec, -1)[IDENTITY],
            lambda spec: SampledTree(spec, 2**64)[IDENTITY],
            lambda spec: derive_seed(1, -1),
            lambda spec: derive_seed(-1, 0),
            lambda spec: sample_ball(spec, 1, -5),
            lambda spec: sample_ball(spec, 1, "x"),
            lambda spec: sample_ball(spec, 1, 1.5),
            lambda spec: SampledTree(spec, True),
            lambda spec: SampledTree(spec, Fraction(1)),
            lambda spec: derive_seed(1, "2"),
            lambda spec: derive_seed(1.0, 0),
        ],
        ids=[
            "tree-negative", "tree-2**64", "derive-index", "derive-seed", "sample-ball",
            "sample-ball-str", "sample-ball-float", "tree-bool", "tree-fraction",
            "derive-index-str", "derive-seed-float",
        ],
    )
    def test_out_of_range_rejected(self, m1, call):
        with pytest.raises(InputError):
            call(m1)


class TestBernoulliSpec:
    def test_rows_equal_pi(self):
        pi = [Fraction(1, 3), Fraction(2, 3)]
        spec = bernoulli_spec(["a", "b"], pi)
        for k in spec.kernels:
            for row in k:
                assert row == tuple(pi)
        assert validate(spec).ok

    def test_zero_mass_rejected(self):
        with pytest.raises(InputError):
            bernoulli_spec([0, 1], [1, 0])


class TestSampling:
    def test_swap_edges_respected(self, m1):
        phi = sample_ball(m1, 2, seed=7)
        for w in phi:
            if not w.is_identity and edge_letter(w) == (1, 1):
                from treeshift.words import parent

                assert phi[w] == 1 - phi[parent(w)]

    def test_deterministic_and_order_independent(self, m1):
        a = sample_ball(m1, 2, seed=123)
        b = sample_ball(m1, 2, seed=123)
        assert a == b
        tree = SampledTree(m1, 123)
        deep = W("s1.s2.s1")
        v = tree[deep]  # deep access first
        fresh = SampledTree(m1, 123)
        for w in ball(2, 2):
            fresh[w]
        assert fresh[deep] == v

    @given(
        st.lists(
            st.one_of(st.just(Fraction(0)), st.fractions(0, 1, max_denominator=10**6)),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=300)
    def test_threshold_draw_matches_fraction_draw(self, raw, normalise, k):
        """On any nonnegative row, normalised or not, bisecting the thresholds
        picks oracle_draw's symbol, and falls past the row (len(row)) exactly
        where the oracle finds the variate not covered."""
        total = sum(raw)
        row = tuple(p / total for p in raw) if normalise and total else tuple(raw)
        ints, den = scaled(row)
        thresholds = _thresholds([ints], den)[0]
        boundaries = {t + d for t in thresholds for d in (-1, 0)}
        for v in sorted({k} | {v for v in boundaries if 0 <= v < 2**64}):
            try:
                expected = oracle_draw(row, Fraction(v, 2**64))
            except SpecInvalidError:
                expected = len(row)
            assert bisect_right(thresholds, v) == expected

    @given(
        st.sampled_from(["mixed", "sparse", "properly ergodic"]),
        st.integers(0, 10**6),
        st.integers(2, 4),
        st.integers(2, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_valid_thresholds_end_at_the_unit(self, style, seed, size, rank):
        """On a valid spec every threshold row, forward and reversed, and pi's
        end at exactly 2^64, above every variate, so no draw falls past its row;
        so do the specs the pipeline's slides derive, whose slid kernel is held
        as ints (_Ints)."""
        if style == "properly ergodic":
            spec = random_properly_ergodic_spec(seed, size, rank)
        else:
            spec = random_spec(seed, size, rank, style=style)
        assume(validate(spec).ok)
        specs = [spec]
        if classify(spec).properly_ergodic:
            for params in generator_ergodic_pipeline(spec)[1]:
                specs.append(pushforward(specs[-1], params))
                assert type(specs[-1]._held[params.t]) is _Ints
        for s in specs:
            assert s.pi_thresholds[-1] == 2**64
            for c in range(2 * rank):
                assert len(s.letter_thresholds[c]) == size
                assert all(row[-1] == 2**64 for row in s.letter_thresholds[c])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 2**64 - 1])
    def test_samples_match_fraction_draw(self, seed):
        """Every sampled value is the Fraction draw from the parent's row,
        with the row (reversed inline for inverse letters) and the variate
        recomputed from first principles: one fresh keyed blake2b per word."""
        spec = random_spec(seed, 3, 3, style="sparse" if seed % 2 else "mixed")
        tree = SampledTree(spec, seed)
        key = seed.to_bytes(8, "big")
        pi = spec.pi
        for w in ball(3, 4):
            digest = hashlib.blake2b(sampler_bytes(w), key=key, digest_size=8).digest()
            u = Fraction(int.from_bytes(digest, "big"), 2**64)
            if w.is_identity:
                row = pi
            else:
                a, (gen, sign) = tree[parent(w)], edge_letter(w)
                k = spec.kernels[gen]
                row = k[a] if sign > 0 else [pi[b] * k[b][a] / pi[a] for b in range(3)]
            assert tree[w] == oracle_draw(row, u)

    @given(
        st.integers(0, 10**6),
        st.integers(2, 4),
        st.integers(2, 3),
        st.sampled_from(["mixed", "sparse"]),
        st.integers(0, 2**64 - 1),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_draws_independent_of_order(self, spec_seed, size, rank, style, seed, data):
        """Deep words (length >= 10) queried before their ancestors, after them,
        or after ball(rank, 2) get the same values, each equal to a draw
        recomputed here: keyed blake2b of word_to_str, then oracle_draw on the
        Fraction row of the parent's value."""
        spec = random_spec(spec_seed, size, rank, style=style)
        codes = range(2 * rank)
        deep = []
        for _ in range(data.draw(st.integers(1, 3))):
            w = [data.draw(st.sampled_from(codes))]
            for _ in range(data.draw(st.integers(9, 15))):
                w.append(data.draw(st.sampled_from([c for c in codes if c != w[-1] ^ 1])))
            deep.append(Word(w))
        ancestors = sorted({w[i:] for w in deep for i in range(len(w) + 1)}, key=len)
        ball2 = list(ball(rank, 2))

        key, pi, expected = seed.to_bytes(8, "big"), spec.pi, {}
        for w in sorted({*ancestors, *ball2}, key=len):
            digest = hashlib.blake2b(word_to_str(w).encode(), key=key, digest_size=8).digest()
            u = Fraction(int.from_bytes(digest, "big"), 2**64)
            if not w:
                row = pi
            else:
                a, k = expected[w[1:]], spec.kernels[w[0] >> 1]
                row = k[a] if w[0] % 2 == 0 else [pi[b] * k[b][a] / pi[a] for b in range(size)]
            expected[w] = oracle_draw(row, u)

        for order in (deep + ancestors[::-1], ancestors + deep, ball2 + deep):
            tree = SampledTree(spec, seed)
            assert [tree[w] for w in order] == [expected[w] for w in order]
        sample = sample_ball(spec, 2, seed)
        assert all(sample[w] == expected[w] for w in ball2)

    @given(
        st.integers(0, 10**6),
        st.integers(2, 4),
        st.integers(2, 3),
        st.sampled_from(["mixed", "sparse", "pushforward"]),
        st.integers(0, 2**64 - 1),
        st.integers(0, 3),
        st.booleans(),
    )
    @example(1, 3, 2, "mixed", 5, 0, False)
    @example(1, 3, 2, "mixed", 5, 0, True)
    @settings(max_examples=25, deadline=None)
    def test_sample_ball_matches_lookups_and_rehash(
        self, spec_seed, size, rank, style, seed, radius, pruned
    ):
        """sample_ball, the fixed-domain reader of the tree's draw rule, equals
        a fresh tree's lookups read deepest word first, and a draw recomputed
        here per word: keyed blake2b of word_to_str, then oracle_draw on the
        Fraction row of the parent's value.  A pushforward output, whose slid
        kernel is held as ints (_Ints), is sampled too.  A pruned draw reads a
        domain that is not a ball, put in the ball's place: the checked set of
        the ball's words free of the last inverse generator, whose parent
        positions the constructor records."""
        if style == "pushforward":
            spec = random_properly_ergodic_spec(spec_seed, size, rank)
            slides = generator_ergodic_pipeline(spec)[1]
            assume(slides)
            spec = pushforward(spec, slides[0])
            assert type(spec._held[slides[0].t]) is _Ints
        else:
            spec = random_spec(spec_seed, size, rank, style=style)
        domain = ball(rank, radius)
        with pytest.MonkeyPatch.context() as mp:
            if pruned:
                domain = LeftConnectedSet(w for w in domain if 2 * rank - 1 not in w)
                mp.setattr(chains, "ball", lambda rank, radius, budget: domain)
            sample = sample_ball(spec, radius, seed)
        words = domain.words
        assert sample.domain == domain
        tree = SampledTree(spec, seed)
        assert [tree[w] for w in reversed(words)][::-1] == [sample[w] for w in words]

        key, pi, expected = seed.to_bytes(8, "big"), spec.pi, {}
        for w in words:  # parents first, in canonical order
            digest = hashlib.blake2b(word_to_str(w).encode(), key=key, digest_size=8).digest()
            u = Fraction(int.from_bytes(digest, "big"), 2**64)
            if not w:
                row = pi
            else:
                a, k = expected[w[1:]], spec.kernels[w[0] >> 1]
                row = k[a] if w[0] % 2 == 0 else [pi[b] * k[b][a] / pi[a] for b in range(size)]
            expected[w] = oracle_draw(row, u)
        assert [expected[w] for w in words] == [sample[w] for w in words]

    def test_bad_keys_raise_input_error(self, m1):
        """A key that is not a tuple of reduced letter codes within the rank
        raises InputError on its lookup and draws nothing; a Word (reduced by
        construction) with a code beyond the rank raises it from the letter table.
        A new tree holds only its root, drawn when it is made."""
        tree = SampledTree(m1, 5)
        assert list(tree._memo) == [IDENTITY]
        for bad in [None, "s1", ["s1"], ("s1",), ([0],), (0, 1), (2, 3, 1), (4,), (-1,), (True,)]:
            with pytest.raises(InputError, match="not a reduced word of rank 2"):
                tree[bad]
        assert list(tree._memo) == [IDENTITY]
        with pytest.raises(InputError, match="outside rank 2"):
            tree[word((2, 1), (0, 1))]
        assert tree[(0, 2)] == tree[W("s1.s2")] == SampledTree(m1, 5)[W("s1.s2")]

    def test_bad_keys_raise_after_a_hit(self, m1):
        """A key equal to a memoised word but not made of int codes, (True,) or
        (1.0,), raises as it does on a fresh tree: the key is checked before
        the memo is read."""
        tree = SampledTree(m1, 5)
        assert tree[(1,)] == tree[W("s1^-1")]
        for bad in [(True,), (1.0,)]:
            with pytest.raises(InputError, match="not a reduced word of rank 2"):
                tree[bad]

    def test_sampler_bytes_pinned(self):
        words = {
            "e": IDENTITY,
            "s1": word((0, 1)),
            "s2^-1.s1": word((1, -1), (0, 1)),
            "s3.s3.s1^-1": word((2, 1), (2, 1), (0, -1)),
            "s12^-1": word((11, -1)),
        }
        for text, w in words.items():
            assert sampler_bytes(w) == text.encode()
            assert str(w) == text

    @pytest.mark.parametrize("radius", [True, 1.0, 1.5, "2"])
    def test_sample_ball_radius_must_be_an_int(self, m3, radius):
        with pytest.raises(InputError):
            sample_ball(m3, radius, 7)

    def test_sample_ball_is_the_checked_configuration(self, m3):
        phi = sample_ball(m3, 3, 7)
        again = Configuration(dict(phi.items()))
        assert phi == again and phi.domain == again.domain == ball(m3.rank, 3)
        assert list(phi.items()) == list(again.items())

    def test_empirical_trivial(self, m1):
        samples = [sample_ball(m1, 1, derive_seed(5, i)) for i in range(20)]
        phi_all = Configuration({IDENTITY: samples[0][IDENTITY]})
        none_value = Configuration({IDENTITY: 0, W("s2"): 0})  # swap forbids it
        assert empirical_cylinder(samples, none_value) == 0.0
        assert 0 < empirical_cylinder(samples, phi_all) <= 1

    def test_quarter_cylinder_frequency(self, m1):
        phi = Configuration({IDENTITY: 0, W("s1"): 1, W("s2.s1"): 0})
        n = 10_000
        trees = (SampledTree(m1, derive_seed(42, i)) for i in range(n))
        hits = sum(
            all(t[w] == v for w, v in phi.items()) for t in trees
        )
        p = Fraction(1, 4)
        # exact binomial four-sigma bound: (hits/n - p)^2 <= 16 p(1-p)/n
        assert (Fraction(hits, n) - p) ** 2 <= 16 * p * (1 - p) / n

    def test_sample_ball_budget_at_a_huge_radius(self, m1):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="radius 10000000 at rank 2"):
            sample_ball(m1, 10**7, 1)
        assert time.perf_counter() - start < 1


class TestSpecTables:
    def test_spec_hashed_at_most_rank_times(self, monkeypatch):
        """Sampling and window scans read the spec's own tables, the reversed
        kernels' ints included (derived from the forward ones): nothing hashes it."""
        spec = random_spec(7, 3, 3)
        hashes = []
        original = MarkovSpec.__hash__
        monkeypatch.setattr(MarkovSpec, "__hash__", lambda self: hashes.append(1) or original(self))
        sample_ball(spec, 4, 11)
        window_marginal(spec, lambda x: (x[W("s1^-1")], x[W("s2^-1.s3^-1")], x[W("s3.s1")]))
        assert len(hashes) == 0

    def test_spec_pickles_after_tables_built(self, m3):
        sample_ball(m3, 2, 1)
        again = pickle.loads(pickle.dumps(m3))
        assert again == m3 and "letter_scaled" not in vars(again)
        assert sample_ball(again, 2, 1) == sample_ball(m3, 2, 1)

    def test_with_kernel_keeps_untouched_tables(self):
        """A derived spec starts with the built entries of every letter off gen
        (the same objects, equal to a fresh spec's) and of pi; gen's two
        letters are built afresh, from the new kernel."""
        spec = random_spec(5, 3, 3)
        # each before its readers
        tables = ("letter_scaled", "letter_thresholds", "letter_support", "letter_successors")
        for name in tables:
            for c in range(2 * spec.rank):
                getattr(spec, name)[c]
        sample_ball(spec, 1, 3)  # builds pi_thresholds
        spec.pi_scaled, spec.pi_successors
        gen = 1
        new = spec.with_kernel(gen, tuple(spec.pi for _ in spec.pi))
        fresh = MarkovSpec(new.generators, new.alphabet, new.pi, new.kernels)
        for name in tables:
            kept = vars(new)[name]
            assert set(kept) == {c for c in range(2 * spec.rank) if c >> 1 != gen}
            for c, value in kept.items():
                assert value is getattr(spec, name)[c]
                assert value == getattr(fresh, name)[c]
            for c in (2 * gen, 2 * gen + 1):
                assert getattr(new, name)[c] is not getattr(spec, name)[c]
                assert getattr(new, name)[c] == getattr(fresh, name)[c]
        for name in ("pi_thresholds", "pi_scaled", "pi_successors"):
            assert vars(new)[name] is vars(spec)[name]
        assert kernel_for_letter(new, 2 * gen) == new.kernels[gen]
        assert kernel_for_letter(new, 2 * gen + 1) == oracle_reverse_kernel(new, gen)

    @pytest.mark.parametrize("gen", [-1, 2, 1.0, True])
    def test_with_kernel_rejects_generator_outside_rank(self, m3, gen):
        """A negative index would replace the last kernel while keeping its tables."""
        sample_ball(m3, 1, 1)
        with pytest.raises(InputError):
            m3.with_kernel(gen, m3.kernels[0])

    def test_derived_spec_pickles_without_tables(self, m3):
        sample_ball(m3, 2, 1)
        new = m3.with_kernel(1, m3.kernels[0])
        again = pickle.loads(pickle.dumps(new))
        assert again == new and "letter_scaled" in vars(new)
        assert not {"letter_scaled", "letter_thresholds", "pi_thresholds"} & set(vars(again))
        assert sample_ball(again, 2, 1) == sample_ball(new, 2, 1)

    @pytest.mark.parametrize(
        "name",
        ["letter_scaled", "letter_thresholds", "letter_support", "letter_successors", "letter_problems"],
    )
    def test_tables_take_int_codes_only(self, m3, name):
        """Anything but an int code in [0, 2 rank), a (gen, sign) pair included, raises
        InputError and leaves nothing behind: every key held is an int code."""
        table = getattr(m3, name)
        built = {c: table[c] for c in range(2 * m3.rank)}
        for key in ["x", None, 2.5, (0, 1), -1, 2 * m3.rank]:
            with pytest.raises(InputError):
                table[key]
        assert dict(vars(m3)[name]) == built
        assert all(type(c) is int for t in chains._LETTER_TABLES for c in vars(m3).get(t, ()))

    @pytest.mark.parametrize("seed", range(4))
    def test_successors_are_the_nonzero_scaled_entries(self, seed):
        """Each successor row holds exactly the nonzero ints of its
        letter_scaled row, as (b, weight) in symbol order, with its D; pi's
        likewise.  Sparse specs, one row zeroed and one entry negative."""
        spec = random_spec(seed, 4, 2, style="sparse")
        k = [list(row) for row in spec.kernels[1]]
        k[0] = [Fraction(0)] * 4
        k[1][seed % 4] = Fraction(-1, 3)
        spec = spec.with_kernel(1, tuple(map(tuple, k)))

        def nonzero(row):
            return tuple((b, x) for b, x in enumerate(row) if x != 0)

        pi, d_pi = spec.pi_scaled
        assert spec.pi_successors == (nonzero(pi), d_pi)
        for c in range(2 * spec.rank):
            rows, den = spec.letter_scaled[c]
            assert spec.letter_successors[c] == tuple((nonzero(row), den) for row in rows)
        assert spec.letter_successors[2][0] == ((), spec.letter_scaled[2][1])
        assert any(x < 0 for _, x in spec.letter_successors[2][1][0])

    def test_tables_match_direct_computation(self, m3):
        assert kernel_for_letter(m3, 0) == m3.kernels[0]
        assert kernel_for_letter(m3, 3) == oracle_reverse_kernel(m3, 1)
        with pytest.raises(InputError):
            m3.letter_thresholds[5]  # s3^-1, beyond rank 2

    @given(
        st.integers(0, 10**6),
        st.integers(2, 5),
        st.integers(2, 3),
        st.sampled_from(["mixed", "sparse", "properly ergodic"]),
        st.sampled_from(["valid", "row rotated", "entry zeroed"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_match_fraction_oracles(self, seed, size, rank, style, breakage):
        """Every letter's scaled ints and draw thresholds are those of its
        Fraction kernel (oracle_reverse_kernel along s_g^-1), pi's thresholds
        those of pi, and s_g^-1's support graph is s_g's transposed and the
        positive entries of the reversed kernel.  Also when one kernel is
        form-valid but neither stochastic nor stationary: one row rotated, or
        its first positive entry set to 0."""
        if style == "properly ergodic":
            spec = random_properly_ergodic_spec(seed, size, rank)
        else:
            spec = random_spec(seed, size, rank, style=style)
        if breakage != "valid":
            gen = seed % rank
            k = [list(row) for row in spec.kernels[gen]]
            if breakage == "row rotated":
                a = next((a for a, row in enumerate(k) if row[1:] + row[:1] != row), 0)
                k[a] = k[a][1:] + k[a][:1]
            else:
                a, b = next((a, b) for a, row in enumerate(k) for b, p in enumerate(row) if p)
                k[a][b] = Fraction(0)
            spec = spec.with_kernel(gen, tuple(map(tuple, k)))
        assert spec.pi_thresholds == oracle_thresholds(spec.pi)
        for c in range(2 * rank):
            kernel = oracle_kernel(spec, c)
            flat, den = scaled([x for row in kernel for x in row])
            rows = tuple(tuple(flat[a * size : (a + 1) * size]) for a in range(size))
            assert spec.letter_scaled[c] == (rows, den)
            assert spec.letter_thresholds[c] == tuple(map(oracle_thresholds, kernel))
            if c & 1:
                forward = spec.letter_support[c - 1].edges
                positive = {(a, b) for a, row in enumerate(kernel) for b, p in enumerate(row) if p}
                assert spec.letter_support[c].edges == {(b, a) for a, b in forward} == positive

    def test_list_field_spec_serves_inverse_letters(self):
        """A spec whose fields are lists passes validate but cannot be hashed;
        its inverse-letter tables are built without hashing it, so it samples
        and enumerates along s1^-1 like the tuple spec."""
        base = random_spec(0, 3, 2)
        spec = MarkovSpec(
            list(base.generators),
            list(base.alphabet),
            list(base.pi),
            [[list(row) for row in k] for k in base.kernels],
        )
        assert validate(spec).ok
        inv = word((0, -1))
        assert SampledTree(spec, 1)[inv] == SampledTree(base, 1)[inv]
        dom = LeftConnectedSet([IDENTITY, inv, W("s2.s1^-1")])
        cylinders = list(enumerate_cylinders(spec, dom))
        assert cylinders == list(enumerate_cylinders(base, dom))
        assert sum(p for _, p in cylinders) == 1


class TestCopies:
    @pytest.mark.parametrize("protocol", [*range(pickle.HIGHEST_PROTOCOL + 1), "deepcopy"])
    def test_words_configurations_and_misses_survive_copies(self, protocol):
        """Pickle round trips (every protocol) and deep copies rebuild a Word
        from its codes, a Configuration (and its domain) from its values, and
        a MissingCoordinate with its word and message."""

        def copy_of(x):
            if protocol == "deepcopy":
                return copy.deepcopy(x)
            return pickle.loads(pickle.dumps(x, protocol))

        w = W("s1.s2^-1")
        again = copy_of(w)
        assert type(again) is Word and again == w and tuple(again) == tuple(w)
        phi = Configuration({IDENTITY: 0, W("s2^-1"): 1, w: 0})
        again = copy_of(phi)
        assert type(again) is Configuration and again == phi and again.domain == phi.domain
        assert again[w] == 0 and copy_of(phi.domain) == phi.domain
        for config in (phi, again):  # a miss raises MissingCoordinate; get does not
            with pytest.raises(MissingCoordinate) as info:
                config[W("s2")]
            assert info.value.word == W("s2") and config.get(W("s2"), 7) == 7
        miss = MissingCoordinate(w)
        again = copy_of(miss)
        assert type(again) is MissingCoordinate and again.word == w and str(again) == str(miss)


class TestJson:
    def test_round_trip(self, m1):
        obj = spec_to_json(m1)
        again = spec_from_json(json.loads(json.dumps(obj)))
        assert again == m1

    def test_schema_errors(self, m1):
        good = spec_to_json(m1)
        bad = dict(good)
        bad["generators"] = ["s2", "s1"]
        with pytest.raises(InputError):
            spec_from_json(bad)
        bad = dict(good)
        bad["pi"] = {"0": "2/4", "1": "1/2"}
        with pytest.raises(InputError):
            spec_from_json(bad)
        bad = dict(good)
        bad["pi"] = {"0": "1/2", "2": "1/2"}
        with pytest.raises(InputError):
            spec_from_json(bad)
        with pytest.raises(InputError):
            spec_from_json([1, 2])

    @pytest.mark.parametrize("symbols", [[[0], [1]], [{"a": 0}, {"a": 1}], [0, [1]]])
    def test_container_symbols_rejected(self, m1, symbols):
        bad = dict(spec_to_json(m1))
        bad["alphabet"] = symbols
        bad["pi"] = {str(sym): "1/2" for sym in symbols}
        with pytest.raises(InputError):
            spec_from_json(bad)

    def test_kernel_for_letter_unknown_generator(self, m1):
        with pytest.raises(InputError):
            kernel_for_letter(m1, 10)
