"""Tutte polynomial: brute-force oracle and the decomposition dynamic program.

The DP walks a nice, anchored decomposition leaves-to-root keeping, per
node, exact counts of subsets by (rank, size, extended type).  Internal
nodes combine child tables entry-by-entry, looping over the glue
matroid's fresh elements and rejecting any combination that touches the
node's deleted set; ranks come from the extended-type join, never from
realization.  Counts are Python ints, so coefficients never overflow.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import kernels
from .decomposition import AmalgamDecomposition
from .errors import DomainError
from .types_dp import JoinContext, leaf_signatures

__all__ = ["TuttePolynomial", "tutte_bruteforce", "tutte_decomposition", "evaluate"]


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

    def coeff(self, i, j):
        for a, b, c in self.coeffs:
            if (a, b) == (i, j):
                return c
        return 0

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


def evaluate(poly, x, y):
    return poly.evaluate(x, y)


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
    tree = tree.prepared()
    tables = {}
    for v in tree.postorder():
        node = tree.nodes[v]
        boundary = tree.boundary(v)
        table = _NodeTable()
        if node.is_leaf:
            for _, r, s, sig in leaf_signatures(node.K, boundary):
                table.add(sig, r, s, 1)
            tables[v] = table
            continue
        c1, c2 = node.children
        ctx = JoinContext(node.K, node.J1, node.J2, boundary, node.D)
        fresh_ids = sorted(
            node.K.ground_set - node.J1 - node.J2 - node.D
        )
        fresh_masks = [node.K.mask_of(sub) for sub in _subsets(fresh_ids)]
        t1, t2 = tables[c1], tables[c2]
        for sig1, rows1 in t1.by_sig.items():
            if _trace_hits(ctx.side1, sig1.trace, ctx.dmask):
                continue
            for sig2, rows2 in t2.by_sig.items():
                if _trace_hits(ctx.side2, sig2.trace, ctx.dmask):
                    continue
                for fmask in fresh_masks:
                    try:
                        sig, delta = ctx.extended_join(sig1, sig2, fmask)
                    except DomainError:
                        continue
                    extra = bin(fmask).count("1")
                    for (r1, s1), n1 in rows1.items():
                        for (r2, s2), n2 in rows2.items():
                            table.add(sig, r1 + r2 + delta, s1 + s2 + extra, n1 * n2)
        tables[v] = table
    root_table = tables[tree.root]
    mc = {}
    for rows in root_table.by_sig.values():
        for (r, s), c in rows.items():
            mc[(r, s)] = mc.get((r, s), 0) + c
    full_rank = max((r for r, _ in mc), default=0)
    whitney = {}
    for (r, s), c in mc.items():
        key = (full_rank - r, s - r)
        whitney[key] = whitney.get(key, 0) + c
    poly = TuttePolynomial.from_whitney(whitney)
    if want_tables:
        return poly, tables
    return poly


def _subsets(ids):
    ids = list(ids)
    for mask in range(1 << len(ids)):
        yield frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)


def _trace_hits(side, trace, dmask):
    return bool(int(side.scatter[trace]) & dmask)
