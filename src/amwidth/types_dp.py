"""Node types, extended types, and their join through a glue matroid.

The type of a node v with respect to a tracked set X maps each boundary
subset Y to the boundary part of cl((X restricted to the subtree) + Y);
it is exactly what a parent needs to know about a subtree when resolving
closures.  Extended types add the tracked set's boundary trace and, for
each Y, the rank increment of the restricted tracked set when Y joins it.
The join computes the parent's signature from the children's without
realizing anything; ``type_of``/``extended_type_of`` recompute the same
data on the realized matroid and serve as the oracle in tests.

Joins carry a per-node ``JoinContext`` so repeated signatures are memoized
per DP run; contexts are private to a run, making concurrent runs over
shared decompositions safe.

``bottom_up`` is the one leaves-to-root pass of both dynamic programs,
the Tutte DP and compiled MSO: a loop over the postorder, not recursion,
so depth is bounded by memory alone.  It hands each node a ``NodeView``
(boundary, context, fresh elements) and frees each child's result once
the parent has used it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import DomainError

__all__ = [
    "NodeType",
    "ExtendedType",
    "JoinContext",
    "NodeView",
    "bottom_up",
    "type_of",
    "extended_type_of",
    "join",
    "extended_join",
    "all_types",
]


@dataclass(frozen=True)
class NodeType:
    boundary: tuple  # sorted element ids
    fmap: tuple  # fmap[Ymask] = closure mask over the boundary order

    def apply(self, ymask):
        return self.fmap[ymask]


@dataclass(frozen=True)
class ExtendedType:
    base: NodeType
    trace: int  # tracked set's boundary mask
    offsets: tuple  # offsets[Ymask] = r(X' + Y) - r(X')

    @property
    def boundary(self):
        return self.base.boundary


def _boundary_order(ids):
    return tuple(sorted(ids))


def type_of(tree, nid, tracked):
    """Oracle: the type of node nid w.r.t. ``tracked``, on the realized M(v)."""
    m = tree.realize(nid)
    boundary = _boundary_order(tree.boundary(nid))
    x = m.mask_of(set(tracked) & m.ground_set)
    jpos = [m._index[e] for e in boundary]
    fmap = []
    for ymask in range(1 << len(boundary)):
        ym = 0
        for i, p in enumerate(jpos):
            if ymask >> i & 1:
                ym |= 1 << p
        cl = m.closure_mask(x | ym)
        fmap.append(sum(1 << i for i, p in enumerate(jpos) if cl >> p & 1))
    return NodeType(boundary, tuple(fmap))


def extended_type_of(tree, nid, tracked):
    """Oracle: extended type (type, trace, rank offsets) on the realized M(v)."""
    m = tree.realize(nid)
    boundary = _boundary_order(tree.boundary(nid))
    base = type_of(tree, nid, tracked)
    xs = set(tracked) & m.ground_set
    x = m.mask_of(xs)
    jpos = [m._index[e] for e in boundary]
    trace = sum(1 << i for i, p in enumerate(jpos) if x >> p & 1)
    r0 = m.rank_mask(x)
    offsets = []
    for ymask in range(1 << len(boundary)):
        ym = 0
        for i, p in enumerate(jpos):
            if ymask >> i & 1:
                ym |= 1 << p
        offsets.append(m.rank_mask(x | ym) - r0)
    return ExtendedType(base, trace, tuple(offsets))


class _Side:
    """Gather/scatter between K's mask space and a child boundary's."""

    def __init__(self, k, boundary):
        self.boundary = boundary
        self.size = len(boundary)
        missing = [e for e in boundary if e not in k._index]
        if missing:
            raise DomainError(
                f"boundary elements {missing} are outside the glue matroid; "
                "the decomposition is not anchored"
            )
        pos = [k._index[e] for e in boundary]
        self.mask = sum(1 << p for p in pos)
        gather_bitmap = np.full(k.size, -1, dtype=np.int64)
        for i, p in enumerate(pos):
            gather_bitmap[p] = i
        self.gather = kernels.translate_all_masks(k.size, gather_bitmap)
        scatter_bitmap = np.array(pos, dtype=np.int64)
        self.scatter = kernels.translate_all_masks(self.size, scatter_bitmap)


class JoinContext:
    """Per-node machinery for joining child signatures through K(v).

    Boundaries must sit inside E(K(v)) (anchored decompositions); the
    tracked set's intersection with K is trace1 | trace2 | fresh choices.
    """

    def __init__(self, k, j1, j2, j_parent, deletions=()):
        self.k = k
        self.side1 = _Side(k, _boundary_order(j1))
        self.side2 = _Side(k, _boundary_order(j2))
        self.parent = _Side(k, _boundary_order(j_parent))
        self.dmask = k.mask_of(deletions)
        self.clk = np.asarray(k.closure_table())
        self.tk = np.asarray(k.table).astype(np.int64)
        self.fresh_mask = k.full_mask & ~(self.side1.mask | self.side2.mask)
        self._memo = {}

    # -- plumbing -----------------------------------------------------------

    def _reflect(self, side, ntype, mask, shift=0):
        """K-mask of f((mask | shift) & J) for a child's type map.

        Both mask and shift are K-masks; shift adds boundary seeds when
        evaluating signatures of the tracked set extended by a Y.
        """
        arg = int(side.gather[(mask | shift) & side.mask])
        return int(side.scatter[ntype.fmap[arg]])

    def _rank(self, e1, e2, xk, y1=0, y2=0):
        """Rank of the tracked set inside M(v), minus r1 + r2.

        xk is the tracked set's K-part (already including any extra Y);
        y1/y2 are K-masks of boundary seeds added to the children's
        tracked sets (used to evaluate parent offsets).  Offsets are
        absolute, so shifted signatures reduce to shifted lookups.
        """
        s1, s2 = self.side1, self.side2
        off1, off2 = e1.offsets, e2.offsets
        f2_0 = self._reflect(s2, e2.base, 0, shift=y2)
        xk2 = xk | f2_0
        a1 = int(self.clk[xk2])
        off1_arg = int(s1.gather[(((a1 | f2_0) & s1.mask) | y1)])
        f1f20 = self._reflect(s1, e1.base, f2_0, shift=y1)
        w2k = f1f20 | xk2
        n1arg = (a1 & s1.mask) | f1f20
        rp1_delta = int(self.tk[w2k]) + off1[off1_arg] - int(self.tk[n1arg])
        # closure of the K-part in the first connection, restricted to J2
        f1_0 = self._reflect(s1, e1.base, 0, shift=y1)
        a = int(self.clk[xk | f1_0])
        b = self._reflect(s1, e1.base, (int(self.clk[xk]) | xk) & s1.mask, shift=y1)
        y2m = (a | b | xk) & s2.mask
        off2_arg = int(s2.gather[(y2m | y2) & s2.mask])
        return rp1_delta + off2[off2_arg] - int(self.tk[y2m | f2_0])

    def fixpoint(self, t1, t2, seed):
        z = seed
        for _ in range(self.k.size + 1):
            z2 = int(self.clk[z])
            z2 |= self._reflect(self.side1, t1, z2)
            z2 |= self._reflect(self.side2, t2, z2)
            if z2 == z:
                return z
            z = z2
        return z

    # -- public joins -----------------------------------------------------

    def join_types(self, t1, t2, xk):
        """Definition-of-join fixed point, restricted to the parent boundary."""
        fmap = []
        for ymask in range(1 << self.parent.size):
            seed = int(self.parent.scatter[ymask]) | xk
            z = self.fixpoint(t1, t2, seed)
            fmap.append(int(self.parent.gather[z & self.parent.mask]))
        return NodeType(self.parent.boundary, tuple(fmap))

    def extended_join(self, e1, e2, fresh):
        """Parent signature and rank increment for one combination.

        ``fresh`` is a K-mask over E(K) - (J1 | J2).  Returns
        (ExtendedType, delta) with delta = r(X') - r1 - r2, or raises
        DomainError when the combination includes deleted elements or the
        traces disagree on the shared boundary.
        """
        tr1 = int(self.side1.scatter[e1.trace])
        tr2 = int(self.side2.scatter[e2.trace])
        shared = self.side1.mask & self.side2.mask
        if (tr1 ^ tr2) & shared:
            raise DomainError("child traces disagree on the shared boundary")
        xk = tr1 | tr2 | fresh
        if xk & self.dmask:
            raise DomainError("tracked set meets the deleted set D")
        key = (e1, e2, fresh)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        delta = self._rank(e1, e2, xk)
        base = self.join_types(e1.base, e2.base, xk)
        trace = int(self.parent.gather[xk & self.parent.mask])
        offsets = []
        for ymask in range(1 << self.parent.size):
            ym = int(self.parent.scatter[ymask])
            off = self._rank(
                e1,
                e2,
                xk | ym,
                y1=ym & self.side1.mask,
                y2=ym & self.side2.mask,
            ) - delta
            offsets.append(off)
        result = (ExtendedType(base, trace, tuple(offsets)), delta)
        self._memo[key] = result
        return result


class NodeView:
    """One node as both dynamic programs see it.

    ``boundary`` and ``fresh`` are sorted; ``ctx`` is None at a leaf.  The
    fresh elements are all of K at a leaf and K - J1 - J2 - D otherwise.
    Their subsets are built on first use, as K-masks for the Tutte DP and
    as frozensets for compiled MSO, so neither DP pays for the other's form.
    """

    def __init__(self, tree, nid):
        node = self.node = tree.nodes[nid]
        self.nid = nid
        self.k = node.K
        self.boundary = _boundary_order(tree.boundary(nid))
        self.fresh = _boundary_order(node.K.ground_set - node.J1 - node.J2 - node.D)
        self.ctx = None
        if not node.is_leaf:
            self.ctx = JoinContext(node.K, node.J1, node.J2, self.boundary, node.D)

    @cached_property
    def fresh_masks(self):
        masks = [0]
        for e in self.fresh:
            masks += [m | 1 << self.k._index[e] for m in masks]
        return masks

    @cached_property
    def fresh_subsets(self):
        return [self.k.set_of(m) for m in self.fresh_masks]


def bottom_up(tree, leaf, join):
    """Root result of ``leaf(view)`` and ``join(view, r1, r2)`` in postorder.

    ``tree`` must be prepared (``AmalgamDecomposition.prepared``).
    """
    results = {}
    for nid in tree.postorder():
        view = NodeView(tree, nid)
        if view.ctx is None:
            results[nid] = leaf(view)
        else:
            c1, c2 = view.node.children
            results[nid] = join(view, results.pop(c1), results.pop(c2))
    return results[tree.root]


def join(f1, f2, k, x_k, j1, j2, j_parent):
    """Join of two child types through K w.r.t. the tracked K-part x_k."""
    ctx = JoinContext(k, j1, j2, j_parent)
    return ctx.join_types(f1, f2, k.mask_of(x_k))


def extended_join(e1, e2, k, s_fresh, deletions, j1, j2, j_parent):
    """Extended join; see JoinContext.extended_join."""
    ctx = JoinContext(k, j1, j2, j_parent, deletions)
    return ctx.extended_join(e1, e2, k.mask_of(s_fresh))


def leaf_signatures(k, boundary):
    """(subset, rank, size, ExtendedType) rows for a leaf with matroid k."""
    boundary = _boundary_order(boundary)
    jpos = [k._index[e] for e in boundary]
    rows = []
    for xmask in range(1 << k.size):
        fmap = []
        offsets = []
        r0 = k.rank_mask(xmask)
        for ymask in range(1 << len(boundary)):
            ym = 0
            for i, p in enumerate(jpos):
                if ymask >> i & 1:
                    ym |= 1 << p
            cl = k.closure_mask(xmask | ym)
            fmap.append(sum(1 << i for i, p in enumerate(jpos) if cl >> p & 1))
            offsets.append(k.rank_mask(xmask | ym) - r0)
        trace = sum(1 << i for i, p in enumerate(jpos) if xmask >> p & 1)
        sig = ExtendedType(NodeType(boundary, tuple(fmap)), trace, tuple(offsets))
        rows.append((k.set_of(xmask), r0, bin(xmask).count("1"), sig))
    return rows


def all_types(boundary):
    """Every closure operator on subsets of the boundary (j <= 3 is instant).

    Enumerated through Moore families: intersection-closed set families
    containing the full boundary.  Observed node types are always among
    these; the count is far below the crude (2^j)^(2^j) bound.
    """
    boundary = _boundary_order(boundary)
    j = len(boundary)
    n_subsets = 1 << j
    full = n_subsets - 1
    out = []
    for fam_mask in range(1 << n_subsets):
        if not fam_mask >> full & 1:
            continue
        members = [s for s in range(n_subsets) if fam_mask >> s & 1]
        ok = all(
            fam_mask >> (a & b) & 1 for a in members for b in members
        )
        if not ok:
            continue
        fmap = []
        for y in range(n_subsets):
            close = full
            for s in members:
                if s & y == y and s & close == s:
                    close = s
            fmap.append(close)
        out.append(NodeType(boundary, tuple(fmap)))
    return set(out)
