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

A pair of child signatures expands, over the fresh subsets of K, into
parent signatures with their rank increments and added nullities.  The
expansion depends on the node's shape alone, so it is computed on the
pair's first visit and kept in the memo of the shape's ``JoinContext``;
a node whose shape repeats pays one lookup per pair, however long the
tree.  A row with one nonzero slot, as every row of a one-element leaf
has, is no real factor: the other row moves by a single shift, of that
slot's rank plus delta, after one multiplication by its count when that
is not 1.

Every node, a leaf too, joins its children's tables through its glue
matroid.  A leaf's children are empty subtrees, whose table is one row:
the signature ``EMPTY`` at nullity 0, one subset of rank 0.  Leaves of
one canonical shape get one table, built once per run and kept in the
memo of the shape's ``JoinContext``.  A pair's first visit charges the
type-map entries its expansion can make against ``TUTTE_BUDGET``, and
past it the run raises ResourceError before making them; a repeated
shape charges nothing, so a long chain costs no more than a short one.

The root's counts give the Whitney form, the sum of c_ab (x-1)^a (y-1)^b.
``TuttePolynomial.from_whitney`` changes basis in one packed pass: it
evaluates that sum at x = 2^w, y = 2^(w * rows) by Horner's rule, one
shift and one subtraction per step, and reads the standard coefficients
back as the value's balanced base-2^w digits.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .config import TUTTE_BUDGET
from .errors import ResourceError
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
        """counts: mapping (a, b) -> count of (x-1)^a (y-1)^b.

        With rows = 1 + the largest a, the coefficient t_ij of x^i y^j is
        the digit in slot i + rows * j of the Whitney form evaluated at
        x = 2^w and y = 2^(w * rows).  Every |t_ij| is at most
        S = sum |c_ab| 2^(a + b), so slots of whole bytes with
        2^(w-1) > S hold them as balanced digits; adding 2^(w-1) to every
        slot makes each digit a plain unsigned one.
        """
        whitney = {k: int(v) for k, v in counts.items() if v}
        rows = 1 + max((a for a, _ in whitney), default=0)
        cols = 1 + max((b for _, b in whitney), default=0)
        grid = [[0] * rows for _ in range(cols)]  # grid[b][a]
        bound = 0
        for (a, b), c in whitney.items():
            grid[b][a] = c
            bound += abs(c) << a + b
        size = bound.bit_length() // 8 + 1  # bytes per slot
        width = 8 * size
        value = 0
        for column in reversed(grid):  # Horner in y - 1, by columns in x - 1
            packed = 0
            for c in reversed(column):
                packed = (packed << width) - packed + c
            value = (value << width * rows) - value + packed
        half = 1 << width - 1
        slots = rows * cols
        value += int.from_bytes(half.to_bytes(size, "little") * slots, "little")
        raw = value.to_bytes(size * slots, "little")
        coeffs = []
        for i in range(rows):
            for j in range(cols):
                lo = size * (i + rows * j)
                t = int.from_bytes(raw[lo : lo + size], "little") - half
                if t:
                    coeffs.append((i, j, t))
        return cls(
            coeffs=tuple(coeffs),
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

    ``split`` is ``_single_slots`` of the finished table, what a parent's
    join reads.
    """

    __slots__ = ("by_sig", "width", "split")

    def __init__(self, width):
        self.by_sig = {}
        self.width = width

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
    Raises ResourceError when the joins would pass ``TUTTE_BUDGET``.
    """
    tree = tree.prepared()
    sizes = tree.ground_sizes()
    width = 1 + max(
        max(sizes[v], sum(sizes[c] for c in tree.nodes[v].children)) for v in tree.postorder()
    )
    tables = {}
    empty = _NodeTable(width)
    empty.by_sig[EMPTY] = {0: 1}
    empty.split = _single_slots(empty)
    interned = {}  # every signature of the run, as its one instance
    spent = 0

    def expand(ctx, sig1, sig2):
        """((sig, delta, |fresh| - delta), ...) over the fresh masks for one
        signature pair, or () when a child's trace meets D.

        The budget is charged here, before ``extended_join`` makes the
        pair's parent signatures: only a pair's first visit makes any.
        Contexts of other shapes make equal signatures too; interning
        them keeps every memo lookup of the run an identity match.
        """
        nonlocal spent
        if (ctx.scatter1[sig1.trace] | ctx.scatter2[sig2.trace]) & ctx.dmask:
            return ()
        spent += ctx.pair_cost
        if spent > TUTTE_BUDGET:
            raise ResourceError(f"the Tutte DP would make more than {TUTTE_BUDGET} type-map entries")
        out = []
        for fmask in ctx.fresh_masks:  # fresh masks miss D
            sig, delta = ctx.extended_join(sig1, sig2, fmask)
            out.append((interned.setdefault(sig, sig), delta, fmask.bit_count() - delta))
        return tuple(out)

    def join(ctx, nid, t1, t2):
        if t1 is not empty or t2 is not empty:
            table = _join_tables(ctx, t1, t2, expand)
        elif "leaf" in ctx.memo:  # a leaf: tables are never changed once built
            table = ctx.memo["leaf"]
        else:
            table = ctx.memo["leaf"] = _join_tables(ctx, t1, t2, expand)
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


def _join_tables(ctx, t1, t2, expand):
    """Parent table: per signature pair, one product per pair of nullity
    rows, moved by each fresh choice's rank increment (see module doc).
    ``expand(ctx, sig1, sig2)`` makes a pair's memo entry."""
    width = t1.width
    table = _NodeTable(width)
    by_sig, memo = table.by_sig, ctx.memo
    for sig1, rows1 in t1.split:
        for sig2, rows2 in t2.split:
            joined = memo.get((sig1, sig2))
            if joined is None:
                joined = memo[sig1, sig2] = expand(ctx, sig1, sig2)
            if not joined:
                continue
            targets = [(by_sig.setdefault(sig, {}), delta, extra) for sig, delta, extra in joined]
            for nu1, p1, one1 in rows1:
                for nu2, p2, one2 in rows2:
                    if one1 is not None:
                        r, c = one1
                        product = p2 * c if c != 1 else p2
                    elif one2 is not None:
                        r, c = one2
                        product = p1 * c if c != 1 else p1
                    else:
                        r, product = 0, _product(p1, p2, width)
                    for out, delta, extra in targets:
                        shift = width * (r + delta)
                        moved = product << shift if shift >= 0 else product >> -shift
                        nu = nu1 + nu2 + extra
                        out[nu] = out[nu] + moved if nu in out else moved
    table.split = _single_slots(table)
    return table


def _single_slots(table):
    """[(sig, [(nu, row, one), ...]), ...] for a table; ``one`` is (rank,
    count) of a row whose one nonzero slot lies below ``_FEW_SLOTS``,
    else None."""
    width = table.width
    few = _FEW_SLOTS * width
    out = []
    for sig, rows in table.by_sig.items():
        split = []
        for nu, p in rows.items():
            one = None
            if p.bit_length() <= few:
                r = (p.bit_length() - 1) // width
                c = p >> width * r
                if c << width * r == p:
                    one = (r, c)
            split.append((nu, p, one))
        out.append((sig, split))
    return out


def _product(p, q, width):
    """p * q, by shift-and-add when the shorter factor spans few slots.

    Against the long rows of a deep subtree, a full multiplication by a
    short row would mostly multiply zero slots.
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
