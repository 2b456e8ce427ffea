"""The integer-scaled exact sums of validate and pushforward, against the
Fraction-per-term oracles they replaced."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_dense_pushforward, oracle_support, oracle_validate
from treeshift.chains import MarkovSpec, require_valid, scaled, validate
from treeshift.errors import SpecInvalidError
from treeshift.graphs import classify, support_edges
from treeshift.randspec import random_properly_ergodic_spec, random_spec
from treeshift.slides import generator_ergodic_pipeline, pushforward

H = Fraction(1, 2)


def half_spec(pi=(H, H), kernel=((H, H), (H, H))) -> MarkovSpec:
    return MarkovSpec(("s1", "s2"), ("a", "b"), tuple(pi), (tuple(kernel), ((H, H), (H, H))))


class TestScaled:
    @given(st.lists(st.fractions() | st.integers(-50, 50), max_size=8))
    def test_integers_over_the_lcm(self, values):
        ints, den = scaled(values)
        assert den > 0 and all(den % Fraction(x).denominator == 0 for x in values)
        assert [Fraction(v, den) for v in ints] == [Fraction(x) for x in values]

    def test_empty(self):
        assert scaled([]) == ([], 1)


class TestNonRationalEntries:
    @pytest.mark.parametrize(
        "spec, named",
        [
            (half_spec(pi=(0.5, H)), "pi entry 0 = 0.5"),
            (half_spec(kernel=((H, H), (H, 0.5))), "kernel s1 row 1 entry 1 = 0.5"),
            (half_spec(kernel=((H, "1/2"), (H, H))), "kernel s1 row 0 entry 1 = '1/2'"),
            (half_spec(pi=(H, "1/2")), "pi entry 1 = '1/2'"),
        ],
    )
    def test_rejected_by_name(self, spec, named):
        problems = validate(spec).problems
        assert any(p.startswith(named) and "not an int or a Fraction" in p for p in problems)
        with pytest.raises(SpecInvalidError):
            require_valid(spec)

    def test_exact_values_still_accepted(self):
        assert validate(half_spec(kernel=((1, 0), (0, 1)))).ok
        assert validate(half_spec(pi=(Fraction(1, 2), Fraction(2, 4)))).ok


def _base_spec(kind: str, seed: int, size: int, rank: int) -> MarkovSpec:
    if kind == "proper":
        return random_properly_ergodic_spec(seed, size, rank)
    return random_spec(seed, size, rank, kind)


def _mutate(data, spec: MarkovSpec, reshape: bool) -> MarkovSpec:
    """One corruption of the kinds validate reports on, at drawn positions; a
    wrong shape only when reshape is set, since later ones index by the shape."""
    n, rank = spec.size, spec.rank
    pi = list(spec.pi)
    kernels = [[list(row) for row in k] for k in spec.kernels]
    kinds = ["negative", "row", "column", "zero_pi"] + ["shape"] * reshape
    kind = data.draw(st.sampled_from(kinds))
    gi = data.draw(st.integers(0, rank - 1))
    a, b, c = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    eps = data.draw(st.fractions(min_value=Fraction(1, 10**6), max_value=1))
    k = kernels[gi]
    if kind == "negative":
        k[a][b] = -k[a][b] - eps
    elif kind == "row":
        k[a][b] += data.draw(st.sampled_from([eps, -eps]))
    elif kind == "column":  # rows still sum to 1, columns move
        k[a][b] += eps
        k[a][c] -= eps
    elif kind == "zero_pi":
        if data.draw(st.booleans()):
            pi[b] += pi[a]  # keep the total at 1
        pi[a] = Fraction(0)
    else:
        where = data.draw(st.sampled_from(["row", "entry", "pi", "kernel"]))
        if where == "row":
            del k[a]
        elif where == "entry":
            del k[a][b]
        elif where == "pi":
            del pi[a]
        else:
            del kernels[gi]
    return MarkovSpec(
        spec.generators,
        spec.alphabet,
        tuple(pi),
        tuple(tuple(tuple(row) for row in k) for k in kernels),
    )


class TestValidateMatchesOracle:
    @given(
        st.sampled_from(["mixed", "sparse", "proper"]),
        st.integers(0, 10**6),
        st.integers(2, 6),
        st.integers(2, 4),
        st.integers(0, 3),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_report(self, kind, seed, size, rank, mutations, data):
        spec = _base_spec(kind, seed, size, rank)
        for i in range(mutations):
            spec = _mutate(data, spec, reshape=i == mutations - 1)
        report = validate(spec)
        assert report == oracle_validate(spec)
        if not mutations:
            assert report.ok

    def test_each_problem_kind_in_oracle_order(self):
        third = Fraction(1, 3)
        spec = MarkovSpec(("s1",), ("a", "a"), (Fraction(0), H), (((H, H), (third, -third)),))
        assert validate(spec).problems == oracle_validate(spec).problems == (
            "rank 1 < 2: need a non-abelian free group",
            "alphabet empty or has duplicate symbols",
            "pi('a') = 0 is not positive",
            "pi sums to 1/2, not 1",
            "kernel s1 row 'a' has a negative entry",
            "kernel s1 row 'a' sums to 0, not 1",
            "pi is not stationary for kernel s1 at column 'a'",
        )


signed = st.fractions(-2, 2) | st.integers(-2, 2)  # zeros included
square_entries = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(signed, min_size=n, max_size=n),
        st.lists(st.lists(signed, min_size=n, max_size=n), min_size=n, max_size=n),
    )
)


def _square_spec(pi, kernel) -> MarkovSpec:
    k = tuple(map(tuple, kernel))
    return MarkovSpec(("s1", "s2"), tuple(range(len(pi))), tuple(pi), (k, k))


class TestLetterSupportSign:
    @given(square_entries)
    def test_same_edges_as_the_product(self, entries):
        """Invalid specs included: signed and zero int and Fraction entries.
        The table's graph, read from the scaled ints, is the product's; once
        the gate holds, support_edges serves that graph."""
        spec = _square_spec(*entries)
        graph = spec.letter_support[0]
        assert graph.edges == oracle_support(spec, 0)
        if not spec.form_problems:
            assert support_edges(spec, 0) is graph

    @given(square_entries, st.floats(), st.data())
    def test_a_float_entry_is_refused(self, entries, x, data):
        """A float entry in pi or the kernel fails the gate before any table is read."""
        pi, kernel = entries
        a, b = (data.draw(st.integers(0, len(pi) - 1)) for _ in range(2))
        if data.draw(st.booleans()):
            pi[a] = x
        else:
            kernel[a][b] = x
        with pytest.raises(SpecInvalidError, match="is not an int or a Fraction"):
            support_edges(_square_spec(pi, kernel), 0)


class TestPushforwardMatchesDenseProduct:
    @given(st.integers(0, 10**6), st.integers(3, 6), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_along_pipeline_slides(self, seed, size, rank):
        spec = random_spec(seed, size, rank, "sparse")
        assume(classify(spec).properly_ergodic)
        _, slides = generator_ergodic_pipeline(spec)
        for params in slides:
            rho = pushforward(spec, params)
            q = rho.kernels[params.t]
            assert q == oracle_dense_pushforward(spec, params)
            assert all(type(x) is Fraction for row in q for x in row)
            assert rho.pi == spec.pi
            assert all(rho.kernels[g] == spec.kernels[g] for g in range(rank) if g != params.t)
            spec = rho

    @given(
        st.sampled_from(["sparse", "mixed", "proper"]),
        st.integers(0, 10**6),
        st.integers(3, 6),
        st.integers(2, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_derived_specs_carry_fresh_tables(self, kind, seed, size, rank):
        """The t entry of letter_scaled that a slide hands to its derived spec,
        and the validation read from it, are a fresh instance's, along the
        pipeline's slides and on the spec it returns."""
        if kind == "proper":
            spec = random_properly_ergodic_spec(seed, size, rank)
        else:
            spec = random_spec(seed, size, rank, kind)
        assume(classify(spec).properly_ergodic)
        final, slides = generator_ergodic_pipeline(spec)
        for params in slides:
            rho = pushforward(spec, params)
            assert rho.kernels[params.t] == oracle_dense_pushforward(spec, params)
            spec = rho
        assert final == spec
        for rho in (spec, final):
            fresh = MarkovSpec(rho.generators, rho.alphabet, rho.pi, rho.kernels)
            for g in range(rank):
                assert rho.letter_scaled[2 * g] == fresh.letter_scaled[2 * g]
            assert rho.validation == fresh.validation and rho.validation.ok

    def test_denominators_grow_along_a_sparse_rank_five_run(self):
        spec = random_spec(3, 10, 5, "sparse")
        _, slides = generator_ergodic_pipeline(spec)
        bits = []
        for params in slides:
            rho = pushforward(spec, params)
            assert rho.kernels[params.t] == oracle_dense_pushforward(spec, params)
            bits.append(max(x.denominator.bit_length() for k in rho.kernels for row in k for x in row))
            spec = rho
        assert len(slides) == 40 and bits[-1] > 10 * bits[0]


def _swap_in(data, original, gen: int):
    """A kernel for generator gen: the spec's original one (swapping a bad one
    back out), another generator's (stationary for the same pi), or the
    original with one defect: a float entry, a wrong shape, or every row a
    point mass (row-stochastic, but not stationary for a fully supported pi)."""
    kind = data.draw(st.sampled_from(["original", "other", "float", "shape", "not_stationary"]))
    k = [list(row) for row in original[gen]]
    n = len(k)
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if kind == "other":
        k = original[data.draw(st.integers(0, len(original) - 1))]
    elif kind == "float":
        k[a][b] = float(k[a][b])
    elif kind == "shape":
        del (k[a] if data.draw(st.booleans()) else k)[b]
    elif kind == "not_stationary":
        k = [[Fraction(int(c == b)) for c in range(n)] for _ in range(n)]
    return tuple(map(tuple, k))


class TestDerivedSpecs:
    @given(
        st.sampled_from(["mixed", "sparse", "proper"]),
        st.integers(0, 10**6),
        st.integers(2, 5),
        st.integers(2, 4),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_report_and_support_as_a_fresh_spec(self, kind, seed, size, rank, data):
        """Along a chain of with_kernel calls, some of whose specs build their
        validation entries and support graphs (for the next spec to carry) and
        some not, validate and letter_support give what they give on a fresh
        spec of the same fields: oracle_validate's report (validate's own on
        a fresh spec where a float entry is named, a check the oracle lacks)
        and, for each int and Fraction kernel of the right shape,
        oracle_support's edges.  support_edges refuses a spec with a float
        entry or a wrong shape (SpecInvalidError)."""
        spec = _base_spec(kind, seed, size, rank)
        original = spec.kernels
        for step in range(data.draw(st.integers(1, 6)), -1, -1):
            gen = data.draw(st.integers(0, rank - 1))
            spec = spec.with_kernel(gen, _swap_in(data, original, gen))
            if step and not data.draw(st.booleans()):
                continue
            fresh = MarkovSpec(spec.generators, spec.alphabet, spec.pi, spec.kernels)
            report = validate(spec)
            if any(isinstance(x, float) for k in spec.kernels for row in k for x in row):
                assert report == validate(fresh)
                assert any("is not an int or a Fraction" in p for p in report.problems)
            else:
                assert report == oracle_validate(fresh)
            for g, k in enumerate(spec.kernels):
                if spec.form_problems:
                    with pytest.raises(SpecInvalidError):
                        support_edges(spec, g)
                if len(k) == size and all(
                    len(row) == size and not any(isinstance(x, float) for x in row) for row in k
                ):
                    assert spec.letter_support[2 * g].edges == oracle_support(fresh, g)

    def test_validating_a_derived_spec_checks_only_the_new_kernel(self):
        """with_kernel carries pi's entry and the kernel entries off gen, so
        validate builds gen's entry alone, and the report is still complete."""
        spec = random_spec(4, 4, 3, "sparse")
        bad = spec.with_kernel(0, tuple(row[::-1] for row in spec.kernels[0]))
        report = validate(bad)
        assert not report.ok and report == oracle_validate(bad)
        derived = bad.with_kernel(2, spec.kernels[1])
        entries = vars(bad)["letter_problems"]
        assert dict(vars(derived)["letter_problems"]) == {0: entries[0], 2: entries[2]}
        assert vars(derived)["pi_problems"] is vars(bad)["pi_problems"]
        assert validate(derived) == report
        built = vars(derived)["letter_problems"]
        assert set(built) == {0, 2, 4} and built[0] is entries[0] and built[2] is entries[2]
