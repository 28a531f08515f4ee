"""Amalgam-width machinery for matroids.

Construction and validation of amalgam decompositions built from
generalized parallel connections, the Tutte-polynomial dynamic program
over such decompositions, and MSO model checking, all cross-verified
against brute-force oracles at small scale.
"""

from .amalgam import (
    eta,
    generalized_parallel_connection,
    glue,
    glue_violations,
    is_modular_flat,
    is_modular_semiflat,
    is_proper_amalgam,
    proper_amalgam,
    zeta,
)
from .branch import BranchDecomposition, branch_width_of, from_branch_decomposition
from .decomposition import AmalgamDecomposition, DecompositionNode
from .errors import (
    AmwidthError,
    CompilationBudgetError,
    DomainError,
    GluePreconditionError,
    NoProperAmalgamError,
    ResourceError,
    ValidationError,
)
from .matroid import GraphDescription, LinearRep, Matroid, restrictions_equal, two_sum
from .mso.compiled import eval_decomposition
from .mso.naive import eval_naive
from .mso.parser import parse as parse_formula
from .tutte import TuttePolynomial, tutte_bruteforce, tutte_decomposition
from .types_dp import ExtendedType, extended_type_of, type_of

__all__ = [
    "AmalgamDecomposition",
    "AmwidthError",
    "BranchDecomposition",
    "CompilationBudgetError",
    "DecompositionNode",
    "DomainError",
    "ExtendedType",
    "GluePreconditionError",
    "GraphDescription",
    "LinearRep",
    "Matroid",
    "NoProperAmalgamError",
    "ResourceError",
    "TuttePolynomial",
    "ValidationError",
    "branch_width_of",
    "eta",
    "eval_decomposition",
    "eval_naive",
    "extended_type_of",
    "from_branch_decomposition",
    "generalized_parallel_connection",
    "glue",
    "glue_violations",
    "is_modular_flat",
    "is_modular_semiflat",
    "is_proper_amalgam",
    "parse_formula",
    "proper_amalgam",
    "restrictions_equal",
    "tutte_bruteforce",
    "tutte_decomposition",
    "two_sum",
    "type_of",
    "zeta",
]

__version__ = "0.1.0"
