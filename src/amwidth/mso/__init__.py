"""MSO formulas over matroids: parsing, naive and compiled evaluation."""

from .compiled import compiled_state_counts, eval_decomposition
from .naive import Assignment, eval_naive
from .parser import parse

__all__ = [
    "Assignment",
    "compiled_state_counts",
    "eval_decomposition",
    "eval_naive",
    "parse",
]
