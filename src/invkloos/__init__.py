"""Exact computation of inverted Kloosterman sums and their L-functions.

Modules: finite-field tables (gf), exact cyclotomic arithmetic
(cyclotomic), character-sum kernels (expsum), L-function reconstruction
and Newton polygons (lfun), lattice polytopes and Hodge data (polytope),
verification suites (suites) and the command line (cli).
"""

from .cyclotomic import CycloRational, embed_complex, reduce_mod_phi
from .expsum import (CharacterTuple, LaurentPoly, b_class, e_sum,
                     gauss_formula_parts, gauss_sum, ik_laurent, kloosterman_sum,
                     kloosterman_sums, tn_transform, toric_sum, tower_sums)
from .gf import ExtensionMaps, FieldTable, build_field, field_maps
from .lfun import (LFactorization, alpha_hodge_slopes, complex_weights,
                   lfunction_pipeline, newton_polygon, newton_to_elementary,
                   strip_trivial_roots)
from .polytope import (HodgeData, IkPolytope, PolytopeData, SolutionGroup,
                       build_polytope, diagonal_nondegenerate, facial_ordinary,
                       hodge_data, ik_polytope, ordinary_test, weight)

__version__ = "0.1.0"
