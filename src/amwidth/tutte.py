"""Tutte polynomial: brute-force oracle and the decomposition dynamic program.

The DP runs on the shared leaves-to-root driver ``types_dp.bottom_up``
and keeps, per node, exact counts of subsets by extended type, nullity
and rank.  The counts of one (extended type, nullity) row are packed
into one Python int by rank (Kronecker substitution; layout and slot
width at ``_NodeTable``), so a join multiplies whole rows: one product
per pair of child rows adds ranks and multiplies counts at once.  The
join's rank increment delta then shifts the product by delta slots.  A
negative delta is an exact right shift: no parent rank is below 0, so
the product's lowest -delta slots are empty.  Ranks come from the
extended-type join, never from realization.

Every node, a leaf too, joins its children's tables through its glue
matroid.  A leaf's children are empty subtrees, whose table is one row:
the signature ``EMPTY`` at nullity 0, one subset of rank 0.  Leaves of
one canonical shape get one table, built once per run and kept in the
memo of the shape's ``JoinContext``.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .types_dp import EMPTY, bottom_up
from .types_dp import leaf_signatures  # unused here: only benchmarks/tracing.py patches this name

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
        rows = 1 + max((a for a, _ in whitney), default=0)
        cols = 1 + max((b for _, b in whitney), default=0)
        grid = [[0] * cols for _ in range(rows)]
        for (a, b), c in whitney.items():
            grid[a][b] = c
        # x -> x - 1 down each column, then y -> y - 1 along each row
        by_x = zip(*map(_taylor_shift, zip(*grid)))
        coeffs = {
            (i, j): c
            for i, row in enumerate(by_x)
            for j, c in enumerate(_taylor_shift(row))
            if c
        }
        return cls(
            coeffs=tuple(sorted((i, j, c) for (i, j), c in coeffs.items())),
            whitney=tuple(sorted((a, b, c) for (a, b), c in whitney.items())),
        )

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


def _taylor_shift(coeffs):
    """Coefficients of p(t - 1) from those of p(t), lowest degree first.

    Horner's rule, q <- q * (t - 1) + c from the top coefficient down, with
    additions only: no binomials, so no products of big integers.
    """
    out = []
    for c in reversed(coeffs):
        out.append(0)
        for i in range(len(out) - 1, 0, -1):
            out[i] = out[i - 1] - out[i]
        out[0] = c - out[0]
    return out


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


_FEW_SLOTS = 4  # a factor spanning at most this many slots goes by shift-and-add


class _NodeTable:
    """Counts of subsets of E(M(v)) by extended type, nullity and rank.

    ``by_sig[sig][nu]`` is one int packing the counts of the subsets with
    extended type ``sig`` and nullity ``nu = s - r``: the count for rank r
    sits in bits ``width * r`` up to ``width * (r + 1)``.  A slot counts
    subsets of E(M(v)), and a join's product counts pairs of subsets of the
    children's ground sets E(M1) and E(M2).  So ``width`` is one more than
    the largest of |E(M(v))| and |E(M1)| + |E(M2)| over the nodes: no
    slot, not even a partial sum, reaches ``2**width``, and slots never
    carry.
    """

    __slots__ = ("by_sig", "width")

    def __init__(self, width):
        self.by_sig = {}
        self.width = width

    def add(self, sig, nu, packed):
        rows = self.by_sig.setdefault(sig, {})
        rows[nu] = rows.get(nu, 0) + packed

    def counts(self, sig):
        """{(r, s): count} for one extended type."""
        return {
            (r, r + nu): c
            for nu, packed in self.by_sig[sig].items()
            for r, c in _slots(packed, self.width).items()
        }


def tutte_decomposition(tree, want_tables=False):
    """Tutte polynomial of realize(tree) straight from the decomposition.

    The tree is validated and, when needed, made nice first.  Returns the
    polynomial, or (polynomial, per-node tables) when ``want_tables``.
    """
    tree = tree.prepared()
    width = 1 + max(
        max(tree.ground_size(v), sum(map(tree.ground_size, tree.nodes[v].children)))
        for v in tree.postorder()
    )
    tables = {}
    empty = _NodeTable(width)
    empty.add(EMPTY, 0, 1)

    def join(ctx, nid, t1, t2):
        if t1 is not empty or t2 is not empty:
            table = _join_tables(ctx, t1, t2)
        elif "leaf" in ctx.memo:  # a leaf: tables are never changed once built
            table = ctx.memo["leaf"]
        else:
            table = ctx.memo["leaf"] = _join_tables(ctx, t1, t2)
        if want_tables:
            tables[nid] = table
        return table

    by_nu = Counter()
    for rows in bottom_up(tree, empty, join).by_sig.values():
        by_nu.update(rows)
    full_rank = max(((p.bit_length() - 1) // width for p in by_nu.values()), default=0)
    whitney = {
        (full_rank - r, nu): c
        for nu, packed in by_nu.items()
        for r, c in _slots(packed, width).items()
    }
    poly = TuttePolynomial.from_whitney(whitney)
    if want_tables:
        return poly, tables
    return poly


def _join_tables(ctx, t1, t2):
    """Parent table: per signature pair, one product per pair of nullity
    rows, moved by each fresh choice's rank increment (see module doc)."""
    width = t1.width
    table = _NodeTable(width)
    for sig1, rows1 in t1.by_sig.items():
        if ctx.scatter1[sig1.trace] & ctx.dmask:
            continue
        for sig2, rows2 in t2.by_sig.items():
            if ctx.scatter2[sig2.trace] & ctx.dmask:
                continue
            joined = []
            for fmask in ctx.fresh_masks:  # fresh masks and these traces miss D
                sig, delta = ctx.extended_join(sig1, sig2, fmask)
                joined.append((sig, delta, fmask.bit_count() - delta))
            for nu1, p1 in rows1.items():
                for nu2, p2 in rows2.items():
                    product = _product(p1, p2, width)
                    for sig, delta, extra in joined:
                        shift = width * delta
                        moved = product << shift if shift >= 0 else product >> -shift
                        table.add(sig, nu1 + nu2 + extra, moved)
    return table


def _product(p, q, width):
    """p * q, by shift-and-add when the shorter factor spans few slots.

    A leaf's rows hold one subset each, so against the long rows of a deep
    subtree a full multiplication would mostly multiply zero slots.
    """
    if p.bit_length() < q.bit_length():
        p, q = q, p
    if q.bit_length() > _FEW_SLOTS * width:
        return p * q
    mask = (1 << width) - 1
    out = shift = 0
    while q:
        c = q & mask
        if c:
            out += (p if c == 1 else p * c) << shift  # p * 1 would copy p
        q >>= width
        shift += width
    return out


def _slots(packed, width):
    """{r: count} of the nonzero slots of one packed row.

    Each slot is read from the bytes that hold it, so the cost is linear
    in the row's length (shifting the remaining int once per slot would
    be quadratic).
    """
    raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    mask = (1 << width) - 1
    out = {}
    for r, lo in enumerate(range(0, packed.bit_length(), width)):
        c = (int.from_bytes(raw[lo // 8 : (lo + width + 7) // 8], "little") >> lo % 8) & mask
        if c:
            out[r] = c
    return out
