"""Exact Groebner-basis engine for Laurent polynomial rings over valued
fields and for polytopal affinoid algebras.

The engine works with generalized monomial orders built from a conic
decomposition of the exponent lattice, cone-aware multivariate division,
and a Buchberger algorithm whose S-pairs are formed at collision
monomials of shifted-cone modules.  All arithmetic is exact.
"""

from lgb.coeffs import INF, Coefficient, FieldError, FieldSpec
from lgb.lattice import (
    Cone,
    ConicDecomposition,
    IncompleteSearchError,
    LatticeError,
    UnsupportedConeError,
    build_decomposition,
    validate_decomposition,
)
from lgb.gmo import GeneralizedOrder, ScoreFunction, make_order, validate_gmo
from lgb.laurent import ConeModule, LaurentMode, LaurentPoly, LaurentRing, RingError, cone_module
from lgb.reduction import ReductionResult, reduce
from lgb.groebner import (
    GBConfig,
    GBResult,
    buchberger,
    ideal_membership,
    is_groebner,
    same_ideal,
    spair,
)
from lgb.affinoid import (
    CappedSeries,
    PolytopeContext,
    RefinedDecomposition,
    buchberger_P,
    build_refined_decomposition,
    reduce_P,
)

__all__ = [
    "INF",
    "Coefficient",
    "FieldError",
    "FieldSpec",
    "Cone",
    "ConicDecomposition",
    "IncompleteSearchError",
    "LatticeError",
    "UnsupportedConeError",
    "build_decomposition",
    "validate_decomposition",
    "GeneralizedOrder",
    "ScoreFunction",
    "make_order",
    "validate_gmo",
    "ConeModule",
    "LaurentMode",
    "LaurentPoly",
    "LaurentRing",
    "RingError",
    "cone_module",
    "ReductionResult",
    "reduce",
    "GBConfig",
    "GBResult",
    "buchberger",
    "ideal_membership",
    "is_groebner",
    "same_ideal",
    "spair",
    "CappedSeries",
    "PolytopeContext",
    "RefinedDecomposition",
    "buchberger_P",
    "build_refined_decomposition",
    "reduce_P",
]

__version__ = "0.1.0"
