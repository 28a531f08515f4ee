"""Standard small matroids and decomposition shapes.

Everything the bundled corpus and the test suite build repeatedly lives
here: classic matroids (triangles, uniform, Fano, cycles, K4) and a tiny
composer for decomposition trees that has ``with_boundaries`` derive the
boundary sets J1/J2, so hand-built trees cannot get them wrong.
"""

from .decomposition import AmalgamDecomposition, DecompositionNode
from .matroid import Matroid

__all__ = [
    "triangle",
    "k4_graphic",
    "cycle_graphic",
    "path_graphic",
    "fano",
    "TreeBuilder",
    "comb",
    "triangle_chain",
    "parallel_elements_tree",
    "direct_sum_tree",
]


def triangle(a, b, c):
    """Graphic K3 on the given three edge ids."""
    return Matroid.from_graph({a: (0, 1), b: (1, 2), c: (0, 2)})


def k4_graphic(ids=(1, 2, 3, 4, 5, 6)):
    a, b, c, d, e, f = ids
    return Matroid.from_graph(
        {a: (0, 1), b: (0, 2), c: (0, 3), d: (1, 2), e: (1, 3), f: (2, 3)}
    )


def cycle_graphic(ids):
    ids = list(ids)
    n = len(ids)
    return Matroid.from_graph({e: (i, (i + 1) % n) for i, e in enumerate(ids)})


def path_graphic(ids):
    ids = list(ids)
    return Matroid.from_graph({e: (i, i + 1) for i, e in enumerate(ids)})


def fano(ids=(1, 2, 3, 4, 5, 6, 7)):
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    return Matroid.from_linear(dict(zip(ids, cols)), 2)


class TreeBuilder:
    """Compose decomposition trees; ``done`` derives J1/J2, never given."""

    def __init__(self, prefix="n"):
        self.nodes = []
        self.prefix = prefix
        self.counter = 0

    def _add(self, children, k, deletions=()):
        self.counter += 1
        nid = f"{self.prefix}{self.counter}"
        self.nodes.append(DecompositionNode(nid, children, k, D=frozenset(deletions)))
        return nid

    def leaf(self, m):
        return self._add((), m)

    def glue(self, left, right, k, deletions=()):
        return self._add((left, right), k, deletions)

    def done(self, root):
        return AmalgamDecomposition(self.nodes, root).with_boundaries()


def comb(m, prefix="c"):
    """Width-|E| decomposition with K equal to the whole matroid everywhere."""
    elems = sorted(m.elements)
    tb = TreeBuilder(prefix)
    if len(elems) == 1:
        return tb.done(tb.leaf(m))
    top = tb.leaf(m.restrict([elems[-1]]))
    for e in reversed(elems[:-1]):
        top = tb.glue(tb.leaf(m.restrict([e])), top, m)
    return tb.done(top)


def triangle_chain(n, pad=0, prefix="t"):
    """n triangles two-summed along a path; realizes the (n+2)-cycle matroid.

    ``pad`` adds that many parallel copies, deleted on the spot, to one glue
    matroid, which raises the width from 3 to 3 + pad without changing the
    realized matroid.
    """
    if n < 1:
        raise ValueError("need at least one triangle")
    # c/d ids stay below 2n + 2, so the p and pad ids start above them;
    # for n < 500 these are the fixed bases 1000 and 5000.
    base = max(1000, 2 * n + 2)
    pad_base = max(5000, base + n)
    p = lambda i: base + i
    c = lambda i: 2 * i
    d = lambda i: 2 * i + 1
    tb = TreeBuilder(prefix)
    top = tb.glue(
        tb.leaf(Matroid.single(c(n))),
        tb.leaf(Matroid.single(d(n))),
        triangle(p(n - 1), c(n), d(n)) if n > 1 else triangle(d(0), c(1), d(1)),
    )
    for i in range(n - 1, 0, -1):
        up = p(i - 1) if i > 1 else d(0)
        edges = {up: (0, 1), c(i): (1, 2), p(i): (0, 2)}
        deletions = {p(i)}
        if pad and i == max(1, n // 2):
            for extra in range(pad):
                edges[pad_base + extra] = (1, 2)
                deletions.add(pad_base + extra)
        glue_m = Matroid.from_graph(edges)
        top = tb.glue(tb.leaf(Matroid.single(c(i))), top, glue_m, deletions)
    return tb.done(top)


def parallel_elements_tree(k, prefix="p"):
    """Width-k decomposition of the rank-1 matroid on k parallel elements."""
    ids = list(range(1, k + 1))
    glue_m = Matroid.uniform(1, ids)
    tb = TreeBuilder(prefix)
    top = tb.glue(
        tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), glue_m
    )
    return tb.done(top)


def direct_sum_tree(builder_trees, prefix="s"):
    """Join subtree builders under empty glue matroids (disjoint unions)."""
    tb = TreeBuilder(prefix)
    roots = []
    for idx, sub in enumerate(builder_trees):
        rename = f"{prefix}_{idx}_{{}}".format
        for nid in sub.postorder():
            node = sub.nodes[nid]
            children = tuple(map(rename, node.children))
            tb.nodes.append(DecompositionNode(rename(nid), children, node.K, D=node.D))
        roots.append(rename(sub.root))
    top = roots[0]
    for other in roots[1:]:
        top = tb.glue(top, other, Matroid.empty())
    return tb.done(top)
