"""Seeded generation of random valid chain specs, for tests and surveys.

Stationarity is exact by construction: each kernel is built from a
nonnegative matrix whose row sums and column sums both equal pi (a balanced
"flow" matrix), divided row-wise by pi.  Balanced matrices are assembled
from three kinds of balanced pieces: cycle flows through distinct symbols,
loop flows, and the product flow pi x pi.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .chains import Matrix, MarkovSpec, require_valid
from .errors import InputError


def random_pi(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    weights = [rng.randint(1, 9) for _ in range(size)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _flow_kernel(
    rng: random.Random,
    pi: tuple[Fraction, ...],
    *,
    bernoulli_share: Fraction = Fraction(0),
    cycles: int = 3,
) -> Matrix:
    n = len(pi)
    flow = [[Fraction(0)] * n for _ in range(n)]
    rem = list(pi)
    total = sum(pi)  # pi may be a block of a larger distribution
    if bernoulli_share:
        for a in range(n):
            for b in range(n):
                flow[a][b] += bernoulli_share * pi[a] * pi[b] / total
            rem[a] -= bernoulli_share * pi[a]
    for _ in range(cycles):
        length = rng.randint(1, n)
        cyc = rng.sample(range(n), length)
        cap = min(rem[v] for v in cyc)
        if cap <= 0:
            continue
        f = cap * Fraction(rng.randint(1, 4), 8)
        for i, v in enumerate(cyc):
            flow[v][cyc[(i + 1) % length]] += f
            rem[v] -= f
    for a in range(n):
        flow[a][a] += rem[a]
    return tuple(tuple(flow[a][b] / pi[a] for b in range(n)) for a in range(n))


def permutation_kernel(perm: list[int]) -> Matrix:
    n = len(perm)
    return tuple(
        tuple(Fraction(1) if b == perm[a] else Fraction(0) for b in range(n))
        for a in range(n)
    )


def _check_args(seed: int, size: int, rank: int) -> None:
    """InputError unless seed is an int (random.Random(None) would seed from
    the OS), size a positive int and rank an int (a rank below 2 is left to
    require_valid)."""
    if type(seed) is not int:
        raise InputError(f"seed must be an int, got {seed!r}")
    if type(size) is not int or size < 1:
        raise InputError(f"alphabet size must be a positive int, got {size!r}")
    if type(rank) is not int:
        raise InputError(f"rank must be an int, got {rank!r}")


def random_spec(seed: int, size: int, rank: int = 2, style: str = "mixed") -> MarkovSpec:
    """A random valid spec.

    Styles: "mixed" draws flow kernels with a positive product component
    (full support, generator restrictions ergodic); "sparse" drops the
    product component so supports vary; "split" confines flows to two symbol
    blocks (non-ergodic whenever both blocks are nonempty).  Any other style
    raises InputError.
    """
    _check_args(seed, size, rank)
    if style not in ("mixed", "sparse", "split"):
        raise InputError(f"style must be 'mixed', 'sparse' or 'split', got {style!r}")
    rng = random.Random(seed)
    generators = tuple(f"s{i + 1}" for i in range(rank))
    if style == "split" and size >= 2:
        pi = random_pi(rng, size)
        cut = rng.randint(1, size - 1)
        kernels = []
        for _ in range(rank):
            k = [[Fraction(0)] * size for _ in range(size)]
            for block in (range(0, cut), range(cut, size)):
                block = list(block)
                block_pi = tuple(pi[v] for v in block)
                sub = _flow_kernel(rng, block_pi, bernoulli_share=Fraction(1, 2))
                for i, a in enumerate(block):
                    for j, b in enumerate(block):
                        k[a][b] = sub[i][j]
            kernels.append(tuple(tuple(row) for row in k))
        return require_valid(MarkovSpec(generators, tuple(range(size)), pi, tuple(kernels)))
    pi = random_pi(rng, size)
    share = Fraction(1, 2) if style == "mixed" else Fraction(0)
    kernels = tuple(
        _flow_kernel(rng, pi, bernoulli_share=share, cycles=rng.randint(1, 4))
        for _ in range(rank)
    )
    return require_valid(MarkovSpec(generators, tuple(range(size)), pi, kernels))


def random_properly_ergodic_spec(seed: int, size: int, rank: int = 2) -> MarkovSpec:
    """A valid spec that is properly ergodic with a periodic restriction class.

    The last generator carries a full-cycle permutation kernel (one periodic
    class covering the alphabet, which also forces ergodicity), the others
    carry fully supported flow kernels (aperiodic classes).  Permutation
    kernels need a marginal that is uniform on each cycle, so pi is uniform.
    A size below 2 raises InputError: on one symbol every restriction is the
    periodic loop, so no spec there is properly ergodic.
    """
    _check_args(seed, size, rank)
    if size < 2:
        raise InputError(f"alphabet size must be at least 2 to be properly ergodic, got {size}")
    rng = random.Random(seed)
    pi = tuple(Fraction(1, size) for _ in range(size))
    perm_order = rng.sample(range(size), size)
    perm = [0] * size
    for i in range(size):
        perm[perm_order[i]] = perm_order[(i + 1) % size]
    kernels = [
        _flow_kernel(rng, pi, bernoulli_share=Fraction(1, 2)) for _ in range(rank - 1)
    ]
    kernels.append(permutation_kernel(perm))
    generators = tuple(f"s{i + 1}" for i in range(rank))
    return require_valid(MarkovSpec(generators, tuple(range(size)), pi, tuple(kernels)))
