"""Node types, extended types, and their join through a glue matroid.

The type of a node v with respect to a tracked set X maps each boundary
subset Y to the boundary part of cl((X restricted to the subtree) + Y);
it is exactly what a parent needs to know about a subtree when resolving
closures, and it is that map's tuple, indexed by Y's mask.  Extended
types add the tracked set's boundary trace.  The rank increment of the
restricted tracked set X' when Y joins it is read off the closure map:
adding the top element t of Y to Y - t raises the rank of X' + Y - t
exactly when t is outside its closure, so
offsets[Y] = offsets[Y - t] + (0 if t in fmap[Y - t] else 1) for any
matroid.  The join computes the parent's type by closure fixed points,
and one rank query gives the rank increment of the combination; nothing
is realized.  The tests check it against types recomputed on the
realized matroid (``tests/reference.py``).

Types hold no element ids: a boundary subset is a mask over the sorted
boundary.  A node's *shape* is its glue matroid's ``Matroid.key``
followed by its ``Positions`` record (the K-positions of sorted J1,
sorted J2 and the sorted parent boundary, and the mask of D).  Every
rank-level fact of a join depends on the shape alone.  A shape is made
canonical before a context is built: K is reordered by role (``canonical_shape``),
so two nodes that differ only in the order their K lists its elements,
as string-sorted ids in a loaded file do, get one shape.  The tree
computes each node's canonical shape and K order once
(``AmalgamDecomposition.shapes``), one ``MaskMap`` permutation of the
table per distinct raw shape.  One ``JoinContext`` per canonical shape
serves every node of that shape in a DP run; it holds all of the shape's
state for the run, the running DP's ``memo`` too.  Contexts are private
to a run, making concurrent runs over shared decompositions safe.  A
bounded-width tree has boundedly many shapes, so the memos turn the DP
into a finite tree automaton.

There is one node kind.  A leaf's matroid is its K, and gluing two
empty matroids through K with D empty gives exactly K; so a leaf is a
node whose J1, J2 and D are empty, joined from two empty subtrees, whose
signature is ``EMPTY``.  ``bottom_up`` is the one leaves-to-root pass of
both dynamic programs, the Tutte DP and compiled MSO: a loop over the
postorder, not recursion, so depth is bounded by memory alone.  It hands
each node's ``join`` the context of its canonical shape and its id,
joins the children's results (the empty subtree's at a leaf) and frees
each child's result once the parent has used it.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DomainError
from .matroid import positions_of

__all__ = [
    "ExtendedType",
    "EMPTY",
    "JoinContext",
    "canonical_shape",
    "bottom_up",
]


@dataclass(frozen=True)
class ExtendedType:
    """A node type, the closure-map tuple ``base``, and the tracked set's
    boundary trace.  ``offsets`` is read off ``base`` when built (see the
    module doc), so it takes no part in equality or hashing.  The hash of
    (base, trace) is computed once: the DPs' memos key on signatures."""

    base: tuple  # the node type: [Ymask] = closure mask over the sorted boundary
    trace: int  # tracked set's boundary mask
    offsets: tuple = field(init=False, compare=False)  # [Ymask] = r(X' + Y) - r(X')
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        fmap = self.base
        offsets = [0]
        bit = 1
        while bit < len(fmap):
            offsets += [o + (not fmap[y] & bit) for y, o in enumerate(offsets)]
            bit <<= 1
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "_hash", hash((fmap, self.trace)))

    def __hash__(self):
        return self._hash


# the signature of an empty subtree: empty boundary, empty tracked set
EMPTY = ExtendedType((0,), 0)


# only leaf_signatures calls this (ROADMAP item 8)
def _signature(m, side, x):
    """Extended type of the mask x of matroid m over the boundary ``side``."""
    gather = side.gather.tolist()
    fmap = tuple(gather[m.closure_mask(x | y)] for y in side.scatter.tolist())
    return ExtendedType(fmap, gather[x])


def _reflect(scatter, gather, fmap, mask):
    """K-mask of f(mask & J) for a child's type map f; mask is a K-mask,
    and ``scatter``/``gather`` are J's tables as lists."""
    return scatter[fmap[gather[mask]]]


class JoinContext:
    """Joining child signatures through the glue matroid of one shape.

    Built from a node's shape and holding no element ids, so every node
    of the shape shares it, memos included.  The shape's boundaries sit
    inside E(K) (anchored decompositions); the tracked set's intersection
    with K is trace1 | trace2 | fresh choices.

    ``side1``, ``side2``, ``parent`` and ``fresh`` are the ``MaskMap``s
    of sorted J1, sorted J2, the sorted parent boundary and the fresh
    positions, those outside J1, J2 and D.  The join reads their tables
    as lists converted once (its scalar lookups are slower on numpy
    scalars): ``scatter1``, ``gather1``, ``scatter2``, ``gather2``,
    ``gather_parent``, and ``fresh_masks``, the fresh subsets' K-masks.
    ``interior`` is the K-mask outside D and the parent boundary: the
    elements of K that E(M(v)) holds and no ancestor sees.

    ``charge``, None unless a run sets it, is called with the type-map
    entries (2^|parent boundary|) that a miss of ``fixpoints``' or
    ``extended_join``'s memo is about to make, before it makes them, so a
    run can stop on a budget first.
    """

    def __init__(self, shape):
        table, pos1, pos2, pos_parent, self.dmask = shape
        tk = np.frombuffer(table, dtype=np.int8)
        n = tk.size.bit_length() - 1
        self.side1 = kernels.MaskMap(n, pos1)
        self.side2 = kernels.MaskMap(n, pos2)
        self.parent = kernels.MaskMap(n, pos_parent)
        taken = self.side1.mask | self.side2.mask | self.dmask
        self.fresh = kernels.MaskMap(n, [p for p in range(n) if not taken >> p & 1])
        self.scatter1, self.gather1 = self.side1.scatter.tolist(), self.side1.gather.tolist()
        self.scatter2, self.gather2 = self.side2.scatter.tolist(), self.side2.gather.tolist()
        self.gather_parent = self.parent.gather.tolist()
        self.interior = (1 << n) - 1 & ~(self.dmask | self.parent.mask)
        self.fresh_masks = self.fresh.scatter.tolist()
        # type-map entries one signature pair's expansion can make: a parent
        # signature per fresh subset, each over every parent-boundary subset
        self.pair_cost = len(self.fresh_masks) << len(pos_parent)
        self.clk = kernels.closure_table(tk, n).tolist()
        self.tk = tk.tolist()
        self.entries = 1 << len(pos_parent)  # of one type map, or of one fixpoints list
        self.charge = None
        self.memo = {}  # the results the running DP keeps for this shape
        self._join_memo = {}
        self._fix_memo = {}

    # -- plumbing -----------------------------------------------------------

    def _rank(self, e1, e2, xk):
        """Rank of the tracked set inside M(v), minus r1 + r2.

        xk is the tracked set's K-part; each child's rank increment is one
        lookup in its offsets.
        """
        s1, g1, s2, g2 = self.scatter1, self.gather1, self.scatter2, self.gather2
        clk, tk = self.clk, self.tk
        f2_0 = _reflect(s2, g2, e2.base, 0)
        xk2 = xk | f2_0
        a1 = clk[xk2]
        f1f20 = _reflect(s1, g1, e1.base, f2_0)
        w2k = f1f20 | xk2
        n1arg = (a1 & self.side1.mask) | f1f20
        rp1_delta = tk[w2k] + e1.offsets[g1[a1 | f2_0]] - tk[n1arg]
        # closure of the K-part in the first connection, restricted to J2
        f1_0 = _reflect(s1, g1, e1.base, 0)
        a = clk[xk | f1_0]
        b = _reflect(s1, g1, e1.base, (clk[xk] | xk) & self.side1.mask)
        y2m = (a | b | xk) & self.side2.mask
        return rp1_delta + e2.offsets[g2[y2m]] - tk[y2m | f2_0]

    def fixpoint(self, t1, t2, z):
        while True:  # z grows every round, so this ends within |K| + 1
            z2 = self.clk[z]
            z2 |= _reflect(self.scatter1, self.gather1, t1, z2)
            z2 |= _reflect(self.scatter2, self.gather2, t2, z2)
            if z2 == z:
                return z
            z = z2

    def fixpoints(self, t1, t2, xk):
        """The closure fixed point seeded by xk and each parent-boundary
        subset, in subset order; memoized per context.

        A subset's point grows from that of the subset without its top
        element t, as cl(A + t) = cl(cl(A) + t): it is that point itself
        when the point holds t, else ``fixpoint`` from the point plus t.
        """
        key = (t1, t2, xk)
        hit = self._fix_memo.get(key)
        if hit is None:
            if self.charge is not None:
                self.charge(self.entries)
            out = [self.fixpoint(t1, t2, xk)]
            for p in self.parent.pos:
                t = 1 << p
                out += [z if z & t else self.fixpoint(t1, t2, z | t) for z in out]
            hit = self._fix_memo[key] = tuple(out)
        return hit

    # -- public joins -----------------------------------------------------

    def join_types(self, t1, t2, xk):
        """Definition-of-join fixed point, restricted to the parent boundary."""
        gather = self.gather_parent
        return tuple(gather[z] for z in self.fixpoints(t1, t2, xk))

    def extended_join(self, e1, e2, fresh):
        """Parent signature and rank increment for one combination.

        ``fresh`` is a K-mask over E(K) - (J1 | J2).  Returns
        (ExtendedType, delta) with delta = r(X') - r1 - r2, or raises
        DomainError when the tracked set meets D: through a child's trace
        or through ``fresh``.  J1 and J2 are disjoint on a nice tree, so
        the traces cannot disagree.  One rank query per new combination:
        the parent's offsets are read off its type.
        """
        xk = self.scatter1[e1.trace] | self.scatter2[e2.trace] | fresh
        if xk & self.dmask:
            raise DomainError("tracked set meets the deleted set D")
        key = (e1, e2, fresh)
        hit = self._join_memo.get(key)
        if hit is not None:
            return hit
        if self.charge is not None:
            self.charge(self.entries)
        base = self.join_types(e1.base, e2.base, xk)
        result = (ExtendedType(base, self.gather_parent[xk]), self._rank(e1, e2, xk))
        self._join_memo[key] = result
        return result


def canonical_shape(shape):
    """The same node's shape with K ordered by role, and that order.

    K is renumbered as sorted J1, then sorted J2, the sorted parent
    boundary, D and the other elements, each at its first role and the
    last two in K order; ``order[i]`` is the given position of canonical
    position i, or None when nothing moves.  Nodes that differ only in
    how their K lists its elements get one canonical shape, and a
    canonical shape is its own canonical form.
    """
    table, pos1, pos2, pos_parent, dmask = shape
    n = len(table).bit_length() - 1
    dpos = [p for p in range(n) if dmask >> p & 1]
    order = list(dict.fromkeys([*pos1, *pos2, *pos_parent, *dpos, *range(n)]))
    if order == list(range(n)):
        return shape, None
    new = {p: i for i, p in enumerate(order)}
    tk = np.frombuffer(table, dtype=np.int8)[kernels.MaskMap(n, order).scatter]
    return (
        tk.tobytes(),
        tuple(new[p] for p in pos1),
        tuple(new[p] for p in pos2),
        tuple(new[p] for p in pos_parent),
        sum(1 << new[p] for p in dpos),
    ), order


def bottom_up(tree, empty, join, charge=None):
    """Root result of ``join(ctx, nid, r1, r2)`` in postorder.

    ``empty`` is the result of an empty subtree, both children's at a
    leaf.  ``tree`` must be prepared (``AmalgamDecomposition.prepared``).
    One ``JoinContext`` per canonical shape (``tree.shapes()``) serves
    the whole run; ``ctx`` is node nid's.  Each context gets ``charge``
    as its ``JoinContext.charge``.
    """
    shapes = tree.shapes()

    @functools.cache  # by canonical shape
    def context(shape):
        ctx = JoinContext(shape)
        ctx.charge = charge
        return ctx

    results = {}
    for nid in tree.postorder():
        children = [results.pop(c) for c in tree.nodes[nid].children] or (empty, empty)
        results[nid] = join(context(shapes[nid][0]), nid, *children)
    return results[tree.root]


# no CLI path calls this: benchmarks/tracing.py patches it (ROADMAP item 8)
def leaf_signatures(k, boundary):
    """Oracle: (rank, size, ExtendedType) of every subset of a leaf with
    matroid k, indexed by the subset's K-mask."""
    side = kernels.MaskMap(k.size, positions_of(k._index, sorted(boundary)))
    return [
        (k.rank_mask(x), x.bit_count(), _signature(k, side, x)) for x in range(1 << k.size)
    ]
