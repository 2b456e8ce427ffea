from fractions import Fraction

import pytest

from oracles import make_spec

H = Fraction(1, 2)


@pytest.fixture
def m1():
    """Two symbols; s1 carries the fair coin kernel, s2 the swap permutation.

    Globally ergodic, s1-restriction free, s2-restriction periodic.
    """
    return make_spec(
        ["s1", "s2"],
        [0, 1],
        [H, H],
        [
            [[H, H], [H, H]],
            [[0, 1], [1, 0]],
        ],
    )


@pytest.fixture
def m3():
    """Three symbols; the s1 support graph is 0->1, 1->2, 2->0 plus 1->0.

    One aperiodic class {0,1,2}; s2 is the product kernel with the same
    marginal (2/5, 2/5, 1/5).
    """
    pi = [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)]
    p1 = [
        [0, 1, 0],
        [H, 0, H],
        [1, 0, 0],
    ]
    p2 = [pi, pi, pi]
    return make_spec(["s1", "s2"], [0, 1, 2], pi, [p1, p2])


@pytest.fixture
def m4():
    """Like m3 in the s1 direction but with uniform marginal unavailable;
    instead: s2 swaps 0 and 1 and fixes 2, so its classes are periodic."""
    pi = [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)]
    p1 = [
        [0, 1, 0],
        [H, 0, H],
        [1, 0, 0],
    ]
    p2 = [
        [0, 1, 0],
        [1, 0, 0],
        [0, 0, 1],
    ]
    return make_spec(["s1", "s2"], [0, 1, 2], pi, [p1, p2])
