"""Bad input raises a TreeshiftError: a fuzz gate over the public entry points.

Each test pairs one mutation kind in KINDS with one entry point in
ENTRY_POINTS.  Its examples corrupt one field of a small valid spec in that
way and pass the result to the entry point twice: with the spec's fields
(rows included) as tuples, then as lists.  Whatever it raises must be a
TreeshiftError; returning is fine (a rotated constant row leaves a valid
spec).  The kinds, the entry points and the example count are fixed here,
and the examples are derandomized.
"""

import inspect
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import chains, graphs, slides
from treeshift.chains import Configuration, MarkovSpec, SampledTree, covering_scan
from treeshift.chains import cylinder_measure, enumerate_cylinders, kernel_for_letter
from treeshift.chains import problem_entries, require_form, require_valid, reverse_kernel
from treeshift.chains import sample_ball, scan_positive_windows, spec_to_json, validate
from treeshift.cocycles import CocycleTable, RecodedView, RewriteRule, cocycle, identity_rule
from treeshift.cocycles import recode_on
from treeshift.errors import InputError, TreeshiftError
from treeshift.graphs import branch_data, classify, is_special, special_sets, support_edges
from treeshift.randspec import random_properly_ergodic_spec
from treeshift.slides import build_slide_params, generator_ergodic_pipeline, params_from_json
from treeshift.slides import params_to_json, pushforward, replay, verify_slide
from treeshift.words import IDENTITY, LeftConnectedSet, Word, ball, single, word_to_str

KINDS = (
    "junk_pi",  # a non-rational entry in pi
    "junk_kernel",  # a non-rational entry in a kernel
    "pi_on_one_symbol",  # all of pi's mass moved onto one symbol: zero entries
    "rotated_row",  # a kernel row rotated by one place
    "duplicate_symbol",
    "unhashable_symbol",
    "dropped_kernel",
    "dropped_row",
)
JUNK = (None, "1/2", 0.5, float("nan"), -1.5, [1], {}, object(), 1j)
SEEDS = (0, 1, 2, 3)
EXAMPLES = 10  # per kind and entry point

INVERSE = Word((1,))  # s1^-1
# e, s1^-1 and s2: the domain reads a reversed kernel, so a zero pi entry would divide by zero
DOMAIN = LeftConnectedSet([IDENTITY, INVERSE, Word((2,))])


@cache
def base(seed: int):
    """A valid rank-2 spec on 3 symbols and its pipeline's first slide."""
    spec = random_properly_ergodic_spec(seed, 3, 2)
    return spec, generator_ergodic_pipeline(spec)[1][0]


ENTRY_POINTS = {
    "validate": lambda bad, spec, params: validate(bad),
    "classify": lambda bad, spec, params: classify(bad),
    "special_sets": lambda bad, spec, params: special_sets(bad, params.u, 0),
    "build_slide_params": lambda bad, spec, params: build_slide_params(
        bad, params.u, params.t, params.edges
    ),
    "pushforward": lambda bad, spec, params: pushforward(bad, params),
    "verify_slide": lambda bad, spec, params: verify_slide(spec, params, candidate=bad, samples=1),
    "sample_ball": lambda bad, spec, params: sample_ball(bad, 1, 7),
    "pipeline": lambda bad, spec, params: generator_ergodic_pipeline(bad),
    "enumerate_cylinders": lambda bad, spec, params: list(enumerate_cylinders(bad, DOMAIN)),
    "cylinder_measure": lambda bad, spec, params: cylinder_measure(
        bad, Configuration({w: 0 for w in DOMAIN})
    ),
    "support_edges": lambda bad, spec, params: support_edges(bad, 0),
    "scan_positive_windows": lambda bad, spec, params: scan_positive_windows(
        bad, lambda x: (x[IDENTITY], x[INVERSE])
    ),
    "kernel_for_letter": lambda bad, spec, params: kernel_for_letter(bad, 0),
    "reverse_kernel": lambda bad, spec, params: reverse_kernel(bad, 0),
    "spec_to_json": lambda bad, spec, params: spec_to_json(bad),
    "covering_scan": lambda bad, spec, params: covering_scan(
        bad, lambda x: (x[IDENTITY], x[INVERSE])
    ),
    "SampledTree": lambda bad, spec, params: SampledTree(bad, 7)[INVERSE],
    "require_form": lambda bad, spec, params: require_form(bad),
    "require_valid": lambda bad, spec, params: require_valid(bad),
    "problem_entries": lambda bad, spec, params: list(problem_entries(bad)),
    "params_to_json": lambda bad, spec, params: params_to_json(bad, params),
    "params_from_json": lambda bad, spec, params: params_from_json(
        bad, params_to_json(spec, params)
    ),
}
# public callables whose first parameter is spec, under another name in ENTRY_POINTS
COVERED_AS = {"pipeline": "generator_ergodic_pipeline"}
# public callables whose first parameter is spec, not in ENTRY_POINTS, and why
EXEMPT: dict[str, str] = {}


@st.composite
def corrupted_fields(draw, kind: str):
    """(generators, alphabet, pi, kernels) of a base spec, with one corruption
    of the given kind, and the base spec and its first slide."""
    spec, params = base(draw(st.sampled_from(SEEDS)))
    n = spec.size
    alphabet, pi = list(spec.alphabet), list(spec.pi)
    kernels = [[list(row) for row in k] for k in spec.kernels]
    gi = draw(st.integers(0, spec.rank - 1))
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "junk_pi":
        pi[a] = draw(st.sampled_from(JUNK))
    elif kind == "junk_kernel":
        kernels[gi][a][b] = draw(st.sampled_from(JUNK))
    elif kind == "pi_on_one_symbol":
        pi = [Fraction(int(c == a)) for c in range(n)]
    elif kind == "rotated_row":
        row = kernels[gi][a]
        kernels[gi][a] = row[1:] + row[:1]
    elif kind == "duplicate_symbol":
        alphabet[a] = alphabet[(a + 1) % n]
    elif kind == "unhashable_symbol":
        alphabet[a] = [alphabet[a]]
    elif kind == "dropped_kernel":
        del kernels[gi]
    else:
        del kernels[gi][a]
    return (spec.generators, alphabet, pi, kernels), spec, params


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(derandomize=True, max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_bad_spec_raises_only_treeshift_errors(entry, kind, data):
    (generators, alphabet, pi, kernels), spec, params = data.draw(corrupted_fields(kind))
    for seq in (tuple, list):
        bad = MarkovSpec(
            seq(generators), seq(alphabet), seq(pi), seq(seq(map(seq, k)) for k in kernels)
        )
        try:
            ENTRY_POINTS[entry](bad, spec, params)
        except TreeshiftError:
            pass


def test_every_public_spec_reader_is_an_entry_point():
    """Each public callable of chains, graphs and slides whose first parameter
    is named spec is fuzzed here (ENTRY_POINTS), or exempt with a reason."""
    readers = {
        name
        for module in (chains, graphs, slides)
        for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
        and next(iter(inspect.signature(obj).parameters), None) == "spec"
    }
    covered = {COVERED_AS.get(entry, entry) for entry in ENTRY_POINTS}
    assert readers - covered - set(EXEMPT) == set()
    assert covered <= readers and set(EXEMPT) <= readers and all(EXEMPT.values())


def _step(x, offset):
    return IDENTITY


NON_SPEC_ARGUMENTS = {
    "enumerate_cylinders-list": lambda spec: list(enumerate_cylinders(spec, [IDENTITY])),
    "enumerate_cylinders-None": lambda spec: list(enumerate_cylinders(spec, None)),
    "cylinder_measure-dict": lambda spec: cylinder_measure(spec, {IDENTITY: 0}),
    "cylinder_measure-None": lambda spec: cylinder_measure(spec, None),
    "LeftConnectedSet-ints": lambda spec: LeftConnectedSet([1, 2]),
    "LeftConnectedSet-None": lambda spec: LeftConnectedSet(None),
    "LeftConnectedSet-list-word": lambda spec: LeftConnectedSet([IDENTITY, [0]]),
    "LeftConnectedSet-str-code": lambda spec: LeftConnectedSet([IDENTITY, ("a",)]),
    "LeftConnectedSet-negative-code": lambda spec: LeftConnectedSet([IDENTITY, (-1,)]),
    "LeftConnectedSet-bool-code": lambda spec: LeftConnectedSet([IDENTITY, (True,)]),
    "LeftConnectedSet-unreduced": lambda spec: LeftConnectedSet([(), (1,), (0, 1)]),
    "cylinder_measure-unreduced": lambda spec: cylinder_measure(
        spec, Configuration({(): 0, (1,): 0, (0, 1): 1})
    ),
    "Configuration-int-key": lambda spec: Configuration({1: 0}),
    "Configuration-None": lambda spec: Configuration(None),
    "Configuration-pairs": lambda spec: Configuration([(IDENTITY, 0)]),
    "ball-str-budget": lambda spec: ball(2, 1, budget="x"),
    "ball-None-budget": lambda spec: ball(2, 1, budget=None),
    "ball-float-budget": lambda spec: ball(2, 1, budget=1.5),
    "recode_on-list": lambda spec: recode_on(base(0)[1].rule, [IDENTITY]),
    "recode_on-None-rule": lambda spec: recode_on(None, ball(2, 1)),
    "CocycleTable-None-rule": lambda spec: CocycleTable(None, SampledTree(spec, 1)).omega((0,)),
    "RecodedView-None-rule": lambda spec: RecodedView(None, SampledTree(spec, 1))[(0,)],
    "cocycle-None-rule": lambda spec: cocycle(None, (0,), SampledTree(spec, 1)),
    "cocycle-str-word": lambda spec: cocycle(base(0)[1].rule, "ab", SampledTree(spec, 1)),
    "cocycle-unreduced-word": lambda spec: cocycle(base(0)[1].rule, (0, 1), SampledTree(spec, 1)),
    "RecodedView-list-key": lambda spec: RecodedView(base(0)[1].rule, SampledTree(spec, 1))[[0]],
    "cocycle-code-past-rank": lambda spec: cocycle(base(0)[1].rule, (9,), SampledTree(spec, 1)),
    "cocycle-Word-past-rank": lambda spec: cocycle(base(0)[1].rule, Word([8]), {}),
    "RecodedView-Word-past-rank": lambda spec: RecodedView(base(0)[1].rule, {IDENTITY: 0})[
        Word([5])
    ],
    "recode_on-domain-past-rank": lambda spec: recode_on(base(0)[1].rule, ball(3, 1)),
    "CocycleTable-str-code": lambda spec: CocycleTable(base(0)[1].rule, {}).omega(("a",)),
    "word_to_str-str": lambda spec: word_to_str("abc"),
    "word_to_str-list": lambda spec: word_to_str([0]),
    "RecodedView-None-map": lambda spec: RecodedView(base(0)[1].rule, None)[(2,)],
    "recode_on-None-map": lambda spec: recode_on(base(0)[1].rule, ball(2, 1))(None),
    "recode_on-list-map": lambda spec: recode_on(base(0)[1].rule, ball(2, 1))([0, 1, 2]),
    "scan_positive_windows-None-fn": lambda spec: scan_positive_windows(spec, None),
    "covering_scan-int-fn": lambda spec: covering_scan(spec, 3),
    "branch_data-None": lambda spec: branch_data(None, 0),
    "branch_data-str-vertex": lambda spec: branch_data(support_edges(spec, 0), "a"),
    "replay-list": lambda spec: replay([], [0, 1], 1, 2),
    "replay-str": lambda spec: replay([], "ab", 1, 2),
    "is_special-list-edge": lambda spec: is_special(support_edges(spec, 0), [[0, 1]]),
    "is_special-None": lambda spec: is_special(support_edges(spec, 0), None),
    "is_special-float-vertex": lambda spec: is_special(support_edges(spec, 0), {(0.0, 1)}),
    "is_special-bool-vertex": lambda spec: is_special(support_edges(spec, 0), {(True, 0)}),
    "is_special-None-graph": lambda spec: is_special(None, {(0, 1)}),
    "Word-int": lambda spec: Word(5),
    "single-list": lambda spec: single([0]),
    "RewriteRule-int-image": lambda spec: RewriteRule(2, 0, 1, {}, [5]),
    "RewriteRule-step-past-rank": lambda spec: RewriteRule(2, 0, 1, {4: _step}, []),
    "RewriteRule-bool-step": lambda spec: RewriteRule(2, 0, 1, {True: _step}, []),
    "identity_rule-str-rank": lambda spec: identity_rule("x"),
    "identity_rule-negative-rank": lambda spec: identity_rule(-1),
    "letter_image-past-rank": lambda spec: base(0)[1].rule.letter_image(4, {}),
    "letter_image-bool": lambda spec: base(0)[1].rule.letter_image(True, {}),
    "kernel_for_letter-past-rank": lambda spec: kernel_for_letter(spec, 4),
    "kernel_for_letter-bool-after-hit": lambda spec: [kernel_for_letter(spec, c) for c in (1, True)],
    "reverse_kernel-bool-gen": lambda spec: reverse_kernel(spec, True),
    "reverse_kernel-str-gen": lambda spec: reverse_kernel(spec, "a"),
    "support_edges-None-gen": lambda spec: support_edges(spec, None),
}


@pytest.mark.parametrize("entry", NON_SPEC_ARGUMENTS)
def test_bad_non_spec_argument_raises_input_error(entry):
    """The exact engine's other arguments are checked too: a domain that is not
    a LeftConnectedSet, a phi that is not a Configuration, an assignment that
    is not a Mapping, words that are not reduced tuples of non-negative int
    letter codes (a domain's, a cocycle's or a recoded view's key,
    word_to_str's argument, Word's codes or a rule's image) or that hold a
    code past a rule's rank (a cocycle's or a recoded view's key, recode_on's
    domain), a letter code or a generator index that is a bool or past the
    rank (a rule's step key, letter_image's, kernel_for_letter's,
    reverse_kernel's, support_edges'), a rank that is not an int >= 1, a
    rule that is not a RewriteRule, a coordinate map that is None or a sequence, a window
    function that is not callable, a graph that is not a TransitionGraph, a
    vertex that is not one of its ints and an edge set that is not a set of
    int pairs raise InputError, whether they would raise a bare error or pass."""
    with pytest.raises(InputError):
        NON_SPEC_ARGUMENTS[entry](base(0)[0])


def test_words_pass_as_words_or_plain_tuples():
    """A plain reduced tuple of letter codes is taken as the Word it equals."""
    spec, s1, s2 = base(0)[0], Word((0,)), Word((2,))
    domain = LeftConnectedSet([(), (0,), s2])
    assert domain == LeftConnectedSet([IDENTITY, s1, (2,)])
    assert sum(p for _, p in enumerate_cylinders(spec, domain)) == 1
    by_tuples, by_words = Configuration({(): 0, (0,): 1}), Configuration({IDENTITY: 0, s1: 1})
    assert cylinder_measure(spec, by_tuples) == cylinder_measure(spec, by_words)
