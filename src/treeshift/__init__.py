"""treeshift: exact-arithmetic Markov chains indexed by free groups.

The package represents shift-invariant Markov measures on A^F (F a free
group of finite rank) through one stochastic kernel per generator, decides
ergodicity and essential freeness of the generator restrictions, constructs
explicit edge-sliding recodings that transfer connectivity between generator
directions, computes their pushforward kernels exactly, and checks the paper's
claims about each slide on exact window scans and seeded samples.

All probability arithmetic is exact (fractions.Fraction); floats appear only
in Monte Carlo estimates.
"""

__version__ = "0.1.0"
