"""Exact computation of inverted Kloosterman sums and their L-functions.

Modules: finite-field tables (gf), exact cyclotomic arithmetic
(cyclotomic), character-sum kernels (expsum), L-function reconstruction
and Newton polygons (lfun), lattice polytopes and Hodge data (polytope),
verification suites (suites) and the command line (cli).
"""

__version__ = "0.1.0"
