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

The branch tree is rooted once (``_rooted``), and three loops over one
postorder, none of them recursive, do the rest: the space V of each
subtree bottom-up, as the sum of its children's spaces; then top-down
the space of everything outside each subtree and from it each node's
glue span; then the nodes themselves, in postorder, listed without the
J1/J2 that ``AmalgamDecomposition.with_boundaries`` derives.  A span
is keyed by its reduced basis, which ``linalg`` keeps unique, so each
distinct span has its points enumerated once.  One table memo per
conversion (``Matroid.from_linear(tables=...)``) builds each distinct
glue matroid's rank table, one ``Matroid.key``, once.
"""

from dataclasses import dataclass

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
        ends = [x for edge in self.edges for x in edge]
        return list(dict.fromkeys(ends + list(self.leaf_labels)))

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
    return max((m.separation_width(b.side_elements(x, y)) for x, y in b.edges), default=1)


def _rooted(b):
    """Root b as a binary tree: (root, kids), kids[x] = (left, right).

    The first internal node is the root, with its first neighbor on the
    left and an added vertex None joining the other two on the right; a
    tree of two leaves hangs both from None.  b's leaves are the
    vertices without kids.
    """
    adj = b.adjacency()
    nodes = b.nodes()
    internal = [x for x in nodes if x not in b.leaf_labels]
    if not internal:
        return (None, {None: tuple(nodes)}) if len(nodes) == 2 else (nodes[0], {})
    root = internal[0]
    first, *others = adj[root]
    kids = {root: (first, None), None: tuple(others)}
    stack = [(y, root) for y in adj[root]]
    while stack:
        x, parent = stack.pop()
        if x not in b.leaf_labels:
            kids[x] = tuple(y for y in adj[x] if y != parent)
            stack.extend((y, x) for y in kids[x])
    return root, kids


def from_branch_decomposition(m, b):
    """Amalgam decomposition realizing m, from a branch decomposition of m.

    m needs a GF(p) representation.  Each glue matroid is the projective
    geometry on a span of boundary subspaces, so a glue span of dimension
    d costs (p**d - 1)/(p - 1) elements; ResourceError is raised, before
    any point is enumerated, when that exceeds the rank-table cap.
    """
    if m.linear is None:
        raise DomainError("conversion needs a matroid with a GF(p) representation")
    p, cols = m.linear.field, m.linear.columns
    linalg.check_field(p)
    b.check(m)
    root, kids = _rooted(b)
    if root not in kids:
        e = b.leaf_labels[root]
        k = Matroid.from_linear({e: cols[e]}, p)
        return AmalgamDecomposition([DecompositionNode("n1", (), k)], "n1")
    post, stack = [], [root]
    while stack:
        post.append(stack.pop())
        stack.extend(kids.get(post[-1], ()))
    post.reverse()  # left subtree, right subtree, vertex
    parent = {c: x for x, pair in kids.items() for c in pair}

    space = {}  # V(elements below x), bottom-up
    for x in post:
        if x in kids:
            space[x] = linalg.sum_spaces(*(space[c] for c in kids[x]), p)
        else:
            space[x] = linalg.row_basis((cols[b.leaf_labels[x]],), p)

    # top-down: rest = V(elements not below x), cut = V(below) & rest
    rest, cut, span = {root: ()}, {root: ()}, {}
    for x in reversed(post):
        if x not in kids:
            span[x] = cut[x]
            continue
        left, right = kids[x]
        rest[left] = linalg.sum_spaces(space[right], rest[x], p)
        rest[right] = linalg.sum_spaces(space[left], rest[x], p)
        for c in kids[x]:
            cut[c] = linalg.intersect_spaces(space[c], rest[c], p)
        span[x] = linalg.sum_spaces(linalg.sum_spaces(cut[left], cut[right], p), cut[x], p)

    fresh, points = {}, {}
    first_fresh = max(m.elements, default=0) + 1

    def fresh_points(x):
        """{fresh id: point} over x's glue span; ids are given on first sight."""
        if span[x] not in points:
            check_cap(linalg.point_count(len(span[x]), p), "glue matroid")
            points[span[x]] = {
                fresh.setdefault(v, first_fresh + len(fresh)): v
                for v in linalg.span_vectors(span[x], p)
            }
        return points[span[x]]

    nodes, nid, tables = [], {}, {}

    def emit(children, k, d=frozenset()):
        nodes.append(DecompositionNode(f"n{len(nodes) + 1}", children, k, D=d))
        return nodes[-1].nid

    for x in post:
        here = fresh_points(x)
        if x in kids:
            children = tuple(nid[c] for c in kids[x])
            k = Matroid.from_linear(here, p, tables=tables)
        else:
            e = b.leaf_labels[x]
            leaf = Matroid.from_linear({e: cols[e]}, p, tables=tables)
            children = (emit((), leaf), emit((), Matroid.empty()))
            k = Matroid.from_linear({e: cols[e], **here}, p, tables=tables)
        above = fresh_points(parent[x]) if x in parent else {}
        nid[x] = emit(children, k, frozenset(here.keys() - above.keys()))
    return AmalgamDecomposition(nodes, nid[root]).with_boundaries()
