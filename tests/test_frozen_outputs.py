"""Frozen exact pipeline outputs and recoded window laws.

Each pipeline digest is the sha256 of the pipeline's final spec
(spec_to_json) and slide list (params_to_json), as compact sorted JSON.  They
were computed before the pipeline's sums moved to integer-scaled arithmetic,
so a change of any exact output, however it comes about, fails here.

Each law digest is the sha256 of the window_marginal laws that verify_slide's
Markov check computes on the first slide (every _markov_check_domains domain,
in order), each law's items in insertion order.  They were computed while the
window scan still multiplied Fractions, so a change of a law value or of the
order in which the scan finds the values fails here.
"""

import hashlib
import json

import pytest

from oracles import window_marginal
from treeshift.chains import spec_to_json
from treeshift.cocycles import RecodedView
from treeshift.randspec import random_properly_ergodic_spec, random_spec
from treeshift.slides import _markov_check_domains, generator_ergodic_pipeline, params_to_json
from treeshift.words import word_to_str


def pipeline_digest(spec) -> str:
    final, slides = generator_ergodic_pipeline(spec)
    doc = {"spec": spec_to_json(final), "slides": [params_to_json(spec, p) for p in slides]}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "seed, size, rank, digest",
    [
        (1, 3, 2, "8012eb4dfae4f9cfc6f4e708d5d436ab423ff67f0cf9eed01eb5884233cccc36"),
        (1, 5, 3, "336ab0b54d24b5561057da14957ab403f387f23b30b78460946d85096460ea1e"),
        (2, 8, 3, "7ddf4923fe39b69c75783d1292c20d8cf42e133ac9f26f46a4a8c6d97dccaab4"),
    ],
)
def test_ladder_point(seed, size, rank, digest):
    assert pipeline_digest(random_properly_ergodic_spec(seed, size, rank)) == digest


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "a95436ccc1e3517abb9624befa6855e96b84512688a373fa925adf2ce2f8d93c"),
        (3, "859af537973b1cd9784d10604f2db3abd9780ef768871a781da6365f48c7ea86"),
        (7, "f76abd478c1321d2aa24826ce2e414f6ef059f68ee03adc5c541c8cb087be2cb"),
    ],
)
def test_sparse_rank_five(seed, digest):
    """8, 40 and 36 slides; denominators grow to thousands of bits."""
    assert pipeline_digest(random_spec(seed, 10, 5, "sparse")) == digest


def first_slide_law_digest(spec) -> str:
    _, slides = generator_ergodic_pipeline(spec)
    rule = slides[0].rule
    doc = []
    for domain in _markov_check_domains(spec, slides[0]):

        def fn(win, words=domain.words):
            view = RecodedView(rule, win)
            return tuple(view[g] for g in words)

        law = window_marginal(spec, fn)
        doc.append({
            "domain": [word_to_str(w) for w in domain.words],
            "law": [[list(values), str(p)] for values, p in law.items()],
        })
    text = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "seed, size, rank, digest",
    [
        (1, 3, 2, "b3749e69556b5f0a79d6993515eca5bc248583653e86aff4883bdbefbeab5d12"),
        (1, 5, 3, "674847a564781cf7d81ed2b0b26e0e1d0d578500d785d13dd9328fb769edd70b"),
        (2, 8, 3, "a1f9d58a4356a4b47366bc581aa385592027d493d543a22671ec9bcb14098036"),
    ],
)
def test_first_slide_window_laws(seed, size, rank, digest):
    assert first_slide_law_digest(random_properly_ergodic_spec(seed, size, rank)) == digest
