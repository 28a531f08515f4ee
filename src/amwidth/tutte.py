"""Tutte polynomial: brute-force oracle and the decomposition dynamic program.

The DP runs on the shared leaves-to-root driver ``types_dp.bottom_up``
and keeps, per node, exact counts of subsets by (rank, size, extended
type).  Internal nodes combine child tables entry-by-entry, looping over
the subsets of the node's fresh elements and rejecting any combination
that touches the node's deleted set; ranks come from the extended-type
join, never from realization.  Counts are Python ints, so coefficients
never overflow.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import kernels
from .errors import DomainError
from .types_dp import bottom_up, leaf_signatures

__all__ = ["TuttePolynomial", "tutte_bruteforce", "tutte_decomposition"]


@dataclass(frozen=True)
class TuttePolynomial:
    """Exact-integer bivariate polynomial in both standard and Whitney bases."""

    coeffs: tuple  # ((i, j, c), ...) sorted, c != 0
    whitney: tuple  # ((a, b, c), ...) sorted, c != 0

    @classmethod
    def from_whitney(cls, counts):
        """counts: mapping (a, b) -> count of (x-1)^a (y-1)^b."""
        whitney = {k: int(v) for k, v in counts.items() if v}
        coeffs = {}
        for (a, b), c in whitney.items():
            for i in range(a + 1):
                for j in range(b + 1):
                    term = c * comb(a, i) * comb(b, j)
                    if (a - i + b - j) % 2:
                        term = -term
                    coeffs[(i, j)] = coeffs.get((i, j), 0) + term
        coeffs = {k: v for k, v in coeffs.items() if v}
        return cls(
            coeffs=tuple(sorted((i, j, c) for (i, j), c in coeffs.items())),
            whitney=tuple(sorted((a, b, c) for (a, b), c in whitney.items())),
        )

    def coeff_dict(self):
        return {(i, j): c for i, j, c in self.coeffs}

    def evaluate(self, x, y):
        """Exact rational evaluation."""
        x, y = Fraction(x), Fraction(y)
        return sum((c * x**i * y**j for i, j, c in self.coeffs), Fraction(0))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, j, c in sorted(self.coeffs, key=lambda t: (-t[0], t[1])):
            mon = []
            if i:
                mon.append("x" if i == 1 else f"x^{i}")
            if j:
                mon.append("y" if j == 1 else f"y^{j}")
            body = "*".join(mon)
            if not body:
                piece = str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = f"-{body}"
            else:
                piece = f"{c}*{body}"
            parts.append(piece)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def tutte_bruteforce(m):
    """Whitney-form accumulation over all subsets of the ground set."""
    counts = kernels.whitney_counts(np.asarray(m.table), m.size)
    return TuttePolynomial.from_whitney(
        {
            (a, b): int(counts[a, b])
            for a in range(counts.shape[0])
            for b in range(counts.shape[1])
        }
    )


class _NodeTable:
    """Counts of subsets of E(M(v)) keyed by extended type, then (r, s)."""

    __slots__ = ("by_sig",)

    def __init__(self):
        self.by_sig = {}

    def add(self, sig, r, s, count):
        rows = self.by_sig.setdefault(sig, {})
        key = (r, s)
        rows[key] = rows.get(key, 0) + count

    def total(self):
        return sum(c for rows in self.by_sig.values() for c in rows.values())


def tutte_decomposition(tree, want_tables=False):
    """Tutte polynomial of realize(tree) straight from the decomposition.

    The tree is validated and, when needed, made nice first.  Returns the
    polynomial, or (polynomial, per-node tables) when ``want_tables``.
    """
    tables = {}
    leaf, join = _leaf_table, _join_tables
    if want_tables:
        leaf, join = _kept(tables, leaf), _kept(tables, join)
    counts = Counter()
    for rows in bottom_up(tree.prepared(), leaf, join).by_sig.values():
        counts.update(rows)
    full_rank = max((r for r, _ in counts), default=0)
    whitney = Counter()
    for (r, s), c in counts.items():
        whitney[(full_rank - r, s - r)] += c
    poly = TuttePolynomial.from_whitney(whitney)
    if want_tables:
        return poly, tables
    return poly


def _leaf_table(view):
    table = _NodeTable()
    for _, r, s, sig in leaf_signatures(view.k, view.boundary):
        table.add(sig, r, s, 1)
    return table


def _join_tables(view, t1, t2):
    ctx = view.ctx
    table = _NodeTable()
    for sig1, rows1 in t1.by_sig.items():
        if _trace_hits(ctx.side1, sig1.trace, ctx.dmask):
            continue
        for sig2, rows2 in t2.by_sig.items():
            if _trace_hits(ctx.side2, sig2.trace, ctx.dmask):
                continue
            for fmask in view.fresh_masks:
                try:
                    sig, delta = ctx.extended_join(sig1, sig2, fmask)
                except DomainError:
                    continue
                extra = bin(fmask).count("1")
                for (r1, s1), n1 in rows1.items():
                    for (r2, s2), n2 in rows2.items():
                        table.add(sig, r1 + r2 + delta, s1 + s2 + extra, n1 * n2)
    return table


def _kept(tables, build):
    """``build``, also recording each node's table in ``tables``."""
    return lambda view, *children: tables.setdefault(view.nid, build(view, *children))


def _trace_hits(side, trace, dmask):
    return bool(int(side.scatter[trace]) & dmask)
