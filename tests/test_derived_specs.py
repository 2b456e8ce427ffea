"""Specs derived by a slide hold the slid kernel as ints.

pushforward's spec holds q_t as its ints over one denominator (chains._Ints)
and builds q_t's Fractions only when kernels is read.  Each
derived spec must behave exactly as the same spec rebuilt from its Fractions.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_validate
from treeshift import slides as slides_module
from treeshift.chains import MarkovSpec, _Ints, spec_to_json, validate
from treeshift.graphs import classify
from treeshift.randspec import random_properly_ergodic_spec, random_spec
from treeshift.slides import generator_ergodic_pipeline, pushforward


def rebuilt(spec: MarkovSpec) -> MarkovSpec:
    """The spec built afresh from its fields: reads (and so builds) kernels."""
    return MarkovSpec(spec.generators, spec.alphabet, spec.pi, spec.kernels)


def derived_chain(spec: MarkovSpec) -> list[MarkovSpec]:
    """Every spec pushforward derives along the pipeline's slides."""
    chain = [spec]
    for params in generator_ergodic_pipeline(spec)[1]:
        chain.append(pushforward(chain[-1], params))
    return chain[1:]


@given(
    st.sampled_from(["proper", "sparse"]),
    st.integers(0, 10**6),
    st.integers(2, 4),
    st.integers(2, 3),
)
@settings(max_examples=100, deadline=None)
def test_derived_spec_behaves_as_rebuilt_from_its_fractions(kind, seed, size, rank):
    """Read before kernels is built, a derived spec's validate report,
    letter_scaled and with_kernel results are those of the rebuilt spec; it
    is == and hash-equal to it, and so are its pickle and deep copy."""
    if kind == "proper":
        spec = random_properly_ergodic_spec(seed, size, rank)
    else:
        spec = random_spec(seed, size, rank, "sparse")
    assume(classify(spec).properly_ergodic)
    for derived in derived_chain(spec):
        assert "kernels" not in vars(derived)
        report = validate(derived)
        scaled = [derived.letter_scaled[c] for c in range(2 * rank)]
        swapped = [derived.with_kernel(gen, spec.kernels[gen]) for gen in range(rank)]
        swapped_reports = [validate(s) for s in swapped]
        assert "kernels" not in vars(derived)

        fresh = rebuilt(derived)
        assert all(type(x) is Fraction for k in derived.kernels for row in k for x in row)
        assert derived == fresh and hash(derived) == hash(fresh)
        for again in (pickle.loads(pickle.dumps(derived)), copy.deepcopy(derived)):
            assert again == fresh and hash(again) == hash(fresh)
        assert report == validate(fresh) == oracle_validate(fresh)
        assert scaled == [fresh.letter_scaled[c] for c in range(2 * rank)]
        assert spec_to_json(derived) == spec_to_json(fresh)
        for gen, s in enumerate(swapped):
            assert s == fresh.with_kernel(gen, spec.kernels[gen])
            assert swapped_reports[gen] == validate(fresh.with_kernel(gen, spec.kernels[gen]))


@pytest.mark.parametrize("seed, size, rank", [(1, 5, 3), (2, 8, 3), (3, 6, 4)])
def test_pipeline_builds_no_fraction_kernel(monkeypatch, seed, size, rank):
    """No spec the pipeline derives builds its kernels, the output included,
    until a caller reads them."""
    spec = random_properly_ergodic_spec(seed, size, rank)
    made = []
    real = slides_module._pushforward

    def recording(spec, params):
        made.append(real(spec, params))
        return made[-1]

    monkeypatch.setattr(slides_module, "_pushforward", recording)
    out, slides = generator_ergodic_pipeline(spec)
    assert slides and out is made[-1]
    assert not any("kernels" in vars(s) for s in made)
    spec_to_json(out)
    assert "kernels" in vars(out)


@pytest.mark.parametrize("corrupt", ["swap", "bump"])
def test_validate_reports_a_corrupted_derived_row(corrupt):
    """A derived kernel's laws are checked on its ints: a row with two
    entries swapped breaks stationarity, a row with one entry raised also
    its sum, and the report is the rebuilt spec's."""
    spec = random_properly_ergodic_spec(1, 4, 2)
    params = generator_ergodic_pipeline(spec)[1][0]
    rows, den = pushforward(spec, params).letter_scaled[2 * params.t]
    a = next(a for a, row in enumerate(rows) if len(set(row)) > 1)
    row = list(rows[a])
    if corrupt == "swap":
        i = row.index(min(row))
        j = row.index(max(row))
        row[i], row[j] = row[j], row[i]
    else:
        row[0] += 1
    derived = spec.with_kernel(params.t, _Ints(((*rows[:a], tuple(row), *rows[a + 1 :]), den)))
    report = validate(derived)
    assert "kernels" not in vars(derived)
    name = spec.generators[params.t]
    assert f"pi is not stationary for kernel {name} at column" in " ".join(report.problems)
    assert (f"kernel {name} row {a!r} sums to" in " ".join(report.problems)) == (corrupt == "bump")
    assert report == validate(rebuilt(derived)) == oracle_validate(rebuilt(derived))
