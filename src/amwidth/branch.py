"""Branch decompositions and their conversion to amalgam decompositions.

The conversion targets matroids given by a GF(p) representation.  Each
rooted node v gets a glue matroid spanning the three boundary subspaces
meeting at v (child interfaces plus the interface to the rest of the
matroid).  Its ground set is the projective geometry on that span: one
fresh element per 1-dimensional subspace, keyed by the vector whose
first nonzero coordinate is 1, so a span of dimension d gives
(p**d - 1)/(p - 1) elements and no loops or parallel pairs.  Every flat
of a projective geometry is modular, so the child boundaries, which are
the point sets of subspaces, are modular semiflats.  Fresh elements are
deleted at the highest node whose glue span still contains their point,
which empties them out by the root.  Original elements enter through one
wrapper node per leaf.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import check_cap
from .decomposition import AmalgamDecomposition, DecompositionNode
from .errors import DomainError
from .matroid import Matroid

__all__ = ["BranchDecomposition", "branch_width_of", "from_branch_decomposition"]


@dataclass(frozen=True)
class BranchDecomposition:
    """Unrooted cubic tree with leaves labeled bijectively by elements."""

    edges: tuple  # of (node, node) pairs, nodes are strings
    leaf_labels: dict  # node -> element id

    @classmethod
    def build(cls, edges, leaf_labels):
        return cls(
            edges=tuple((str(a), str(b)) for a, b in edges),
            leaf_labels={str(k): int(v) for k, v in leaf_labels.items()},
        )

    def nodes(self):
        seen = []
        for a, b in self.edges:
            for x in (a, b):
                if x not in seen:
                    seen.append(x)
        for x in self.leaf_labels:
            if x not in seen:
                seen.append(x)
        return seen

    def adjacency(self):
        adj = {x: [] for x in self.nodes()}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def check(self, m):
        """Raise DomainError unless this is a branch decomposition of m."""
        nodes = self.nodes()
        if not nodes:
            raise DomainError("branch decomposition has no nodes")
        adj = self.adjacency()
        if len(self.edges) != len(nodes) - 1:
            raise DomainError("branch decomposition is not a tree")
        # connectivity
        stack, seen = [nodes[0]], {nodes[0]}
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(nodes):
            raise DomainError("branch decomposition is not connected")
        leaves = {x for x in nodes if len(adj[x]) <= 1}
        if set(self.leaf_labels) != leaves:
            raise DomainError("leaf labels must cover exactly the degree-<=1 nodes")
        if sorted(self.leaf_labels.values()) != sorted(m.elements):
            raise DomainError("leaf labels are not a bijection onto the ground set")
        for x in nodes:
            if x not in leaves and len(adj[x]) != 3:
                raise DomainError(f"internal node {x!r} must have degree 3")

    def side_elements(self, a, b):
        """Elements at leaves on the a-side of edge (a, b)."""
        adj = self.adjacency()
        out = []
        stack, seen = [a], {a, b}
        while stack:
            x = stack.pop()
            if x in self.leaf_labels:
                out.append(self.leaf_labels[x])
            for nxt in adj[x]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(out)


def branch_width_of(m, b):
    """Maximum edge width r(E1) + r(E2) - r(E) + 1 over the tree."""
    b.check(m)
    if not b.edges:
        return 1
    total = m.rank()
    best = 1
    for x, y in b.edges:
        e1 = b.side_elements(x, y)
        w = m.rank(e1) + m.rank(m.ground_set - e1) - total + 1
        best = max(best, w)
    return best


class _Converter:
    def __init__(self, m, b):
        if m.linear is None:
            raise DomainError(
                "conversion needs a matroid with a GF(p) representation"
            )
        linalg.check_field(m.linear.field)
        b.check(m)
        self.m = m
        self.b = b
        self.p = m.linear.field
        self.dim = m.linear.dimension
        self.cols = {e: np.array(v, dtype=np.int64) for e, v in m.linear.columns.items()}
        self.fresh_ids = {}
        self.next_id = max(m.elements, default=0) + 1
        self.counter = 0
        self.nodes = []

    # -- rooted shape -----------------------------------------------------

    def rooted_children(self):
        """Binary rooted tree over B: lists of (tag, payload) child subtrees.

        Returns the root entry.  Subtrees are ('leaf', element) or
        ('node', (children,)) pairs.
        """
        adj = self.b.adjacency()
        internal = [x for x in self.b.nodes() if x not in self.b.leaf_labels]

        def subtree(x, parent):
            if x in self.b.leaf_labels:
                return ("leaf", self.b.leaf_labels[x])
            kids = [subtree(y, x) for y in adj[x] if y != parent]
            return ("node", tuple(kids))

        if not internal:
            leaves = [("leaf", self.b.leaf_labels[x]) for x in self.b.nodes()]
            if len(leaves) == 1:
                return leaves[0]
            return ("node", tuple(leaves))
        r0 = internal[0]
        subs = [subtree(y, r0) for y in adj[r0]]
        return ("node", (subs[0], ("node", (subs[1], subs[2]))))

    # -- subspace plumbing ---------------------------------------------------

    def space_of(self, elems):
        if not elems:
            return np.zeros((0, self.dim), dtype=np.int64)
        return linalg.row_basis(
            np.array([self.cols[e] for e in sorted(elems)], dtype=np.int64), self.p
        )

    def fresh(self, point):
        if point not in self.fresh_ids:
            self.fresh_ids[point] = self.next_id
            self.next_id += 1
        return self.fresh_ids[point]

    def points(self, span_basis):
        """Projective points of a span; the cap is checked before enumerating."""
        count = linalg.point_count(span_basis.shape[0], self.p)
        check_cap(count, "glue matroid")
        return linalg.span_vectors(span_basis, self.p)

    def glue_matroid(self, span_basis, extra=None):
        """One fresh element per projective point of the span, plus originals."""
        columns = {}
        if extra:
            for e in extra:
                columns[e] = tuple(int(x) for x in self.cols[e])
        for v in self.points(span_basis):
            columns[self.fresh(v)] = v
        return Matroid.from_linear(columns, self.p)

    def surplus_ids(self, span_basis):
        return frozenset(self.fresh(v) for v in self.points(span_basis))

    def new_id(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- construction ------------------------------------------------------

    def build(self):
        root = self.rooted_children()
        if root[0] == "leaf":
            nid = self.new_id("n")
            self.nodes.append(
                DecompositionNode(nid, (), Matroid.from_linear(
                    {root[1]: tuple(int(x) for x in self.cols[root[1]])}, self.p
                ))
            )
            return AmalgamDecomposition(self.nodes, nid)
        root_id = self._walk(root, np.zeros((0, self.dim), dtype=np.int64), None)
        return AmalgamDecomposition(self.nodes, root_id)

    def _walk(self, entry, up_space, parent_span):
        """Emit nodes for this subtree; returns the subtree root id.

        up_space is V(E - elems(subtree)); parent_span the parent's glue
        span (None at the root), used for the deletion schedule.
        """
        kind, payload = entry
        if kind == "leaf":
            return self._wrapper(payload, up_space, parent_span)
        left, right = payload
        elems_l = _elements_of(left)
        elems_r = _elements_of(right)
        v_l = self.space_of(elems_l)
        v_r = self.space_of(elems_r)
        g_l = linalg.intersect_spaces(v_l, linalg.sum_spaces(v_r, up_space, self.p), self.p)
        g_r = linalg.intersect_spaces(v_r, linalg.sum_spaces(v_l, up_space, self.p), self.p)
        g_up = linalg.intersect_spaces(
            linalg.sum_spaces(v_l, v_r, self.p), up_space, self.p
        )
        span = linalg.sum_spaces(linalg.sum_spaces(g_l, g_r, self.p), g_up, self.p)
        cid_l = self._walk(left, linalg.sum_spaces(v_r, up_space, self.p), span)
        cid_r = self._walk(right, linalg.sum_spaces(v_l, up_space, self.p), span)
        k = self.glue_matroid(span)
        here = self.surplus_ids(span)
        j1 = self._child_boundary(cid_l, here)
        j2 = self._child_boundary(cid_r, here)
        if parent_span is None:
            deletions = here
        else:
            keep = self.surplus_ids(parent_span)
            deletions = here - keep
        nid = self.new_id("n")
        self.nodes.append(DecompositionNode(nid, (cid_l, cid_r), k, j1, j2, deletions))
        return nid

    def _child_boundary(self, cid, glue_ids):
        child = next(n for n in self.nodes if n.nid == cid)
        ground = self._ground_of(cid)
        return frozenset(ground & glue_ids)

    def _ground_of(self, cid):
        by_id = {n.nid: n for n in self.nodes}

        def rec(nid):
            node = by_id[nid]
            if node.is_leaf:
                return node.K.ground_set
            a, b = node.children
            return (rec(a) | rec(b) | node.K.ground_set) - node.D

        return rec(cid)

    def _wrapper(self, element, up_space, parent_span):
        """Wrapper node gluing a single-element leaf onto its interface span."""
        own = self.space_of([element])
        g = linalg.intersect_spaces(own, up_space, self.p)
        leaf_id = self.new_id("n")
        leaf_k = Matroid.from_linear(
            {element: tuple(int(x) for x in self.cols[element])}, self.p
        )
        self.nodes.append(DecompositionNode(leaf_id, (), leaf_k))
        empty_id = self.new_id("n")
        self.nodes.append(DecompositionNode(empty_id, (), Matroid.empty()))
        k = self.glue_matroid(g, extra=[element])
        here = self.surplus_ids(g)
        if parent_span is None:
            deletions = here
        else:
            deletions = here - self.surplus_ids(parent_span)
        nid = self.new_id("n")
        self.nodes.append(
            DecompositionNode(
                nid, (leaf_id, empty_id), k, frozenset([element]), frozenset(), deletions
            )
        )
        return nid


def _elements_of(entry):
    kind, payload = entry
    if kind == "leaf":
        return frozenset([payload])
    out = frozenset()
    for child in payload:
        out |= _elements_of(child)
    return out


def from_branch_decomposition(m, b):
    """Amalgam decomposition realizing m, from a branch decomposition of m.

    m needs a GF(p) representation.  Each glue matroid is the projective
    geometry on a span of boundary subspaces, so a glue span of dimension
    d costs (p**d - 1)/(p - 1) elements; ResourceError is raised, before
    any point is enumerated, when that exceeds the rank-table cap.
    """
    return _Converter(m, b).build()
