"""MSO formulas over matroids: parsing, naive and compiled evaluation."""

from .compiled import compiled_state_counts, eval_decomposition
from .naive import eval_naive
from .parser import parse

__all__ = [
    "compiled_state_counts",
    "eval_decomposition",
    "eval_naive",
    "parse",
]
