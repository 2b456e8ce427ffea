"""Frozen exact pipeline outputs.

Each digest is the sha256 of the pipeline's final spec (spec_to_json) and
slide list (params_to_json), as compact sorted JSON.  They were computed
before the pipeline's sums moved to integer-scaled arithmetic, so a change of
any exact output, however it comes about, fails here.
"""

import hashlib
import json

import pytest

from treeshift.chains import spec_to_json
from treeshift.randspec import random_properly_ergodic_spec, random_spec
from treeshift.slides import generator_ergodic_pipeline, params_to_json


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
