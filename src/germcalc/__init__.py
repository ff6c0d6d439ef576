"""Exact invariants of isolated singularities at the origin.

Local standard bases (Buchberger on Lazard-homogenized input) and Groebner
bases drive Milnor and Tjurina numbers, weight gradings, tangent vector
fields with their twisted action on the Tjurina algebra, the first-order
modular tangent space, projective hypersurface comparisons, and
parameterized family scans.  All arithmetic is exact over the rationals.
"""

from .family import FamilySpec, ScanReport, ScanRow, catalog, evaluate, scan
from .groebner import (
    StandardBasis,
    Staircase,
    VectorPoly,
    normal_form,
    quotient_coordinates,
    spoly,
    staircase,
    standard_basis,
    syzygies,
)
from .modular import (
    ActionMatrix,
    Derivation,
    ModularTangent,
    action_matrix,
    derivation_module,
    embedding_check,
    modular_tangent_space,
    projective_closed_form,
    projective_t1_dimension,
    tangent_derivation,
)
from .oracle import truncated_quotient_dimension
from .packed import ExponentOverflow
from .orders import DEGREVLEX, NEGDEGREVLEX, MonomialOrder, compare, weighted_local
from .parse import ParseError, parse_poly
from .poly import Polynomial, format_polynomial
from .singularity import (
    INFINITE,
    GermInput,
    GradedT1,
    NonIsolatedError,
    WeightData,
    find_weights,
    graded_piece,
    icis_tjurina,
    milnor_number,
    tjurina_number,
)

__version__ = "0.1.0"

__all__ = [
    "ActionMatrix",
    "DEGREVLEX",
    "Derivation",
    "ExponentOverflow",
    "FamilySpec",
    "GermInput",
    "GradedT1",
    "INFINITE",
    "ModularTangent",
    "MonomialOrder",
    "NEGDEGREVLEX",
    "NonIsolatedError",
    "ParseError",
    "Polynomial",
    "ScanReport",
    "ScanRow",
    "StandardBasis",
    "Staircase",
    "VectorPoly",
    "WeightData",
    "action_matrix",
    "catalog",
    "compare",
    "derivation_module",
    "embedding_check",
    "evaluate",
    "find_weights",
    "format_polynomial",
    "graded_piece",
    "icis_tjurina",
    "milnor_number",
    "modular_tangent_space",
    "normal_form",
    "parse_poly",
    "projective_closed_form",
    "projective_t1_dimension",
    "quotient_coordinates",
    "scan",
    "spoly",
    "staircase",
    "standard_basis",
    "syzygies",
    "tangent_derivation",
    "tjurina_number",
    "truncated_quotient_dimension",
    "weighted_local",
]
