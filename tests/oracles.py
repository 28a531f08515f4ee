"""Independent brute-force oracles.

These deliberately avoid the library's computation paths: ranks come from
subset enumeration over a caller-supplied independence test, graphic
independence from DFS cycle detection, GF(p) independence and spans
from exhaustive coefficient enumeration, and reduced row echelon forms
from the NumPy elimination ``linalg`` used before it moved to tuples.
Expected values asserted in tests are computed (or were frozen from)
these.

The reference implementations below check library code without running
through the helpers that code uses:

- ``two_sum`` (for ``glue``): ranks by ``brute_rank`` over "contains no
  circuit", not ``kernels.subset_any`` and ``rank_table_from_independence``;
- ``is_proper_amalgam`` and ``gpc_closure`` (for ``proper_amalgam`` and
  ``generalized_parallel_connection``): ``flat_masks``, ``rank`` and
  ``closure``, not ``amalgam._Union`` and ``kernels.MaskMap``;
- ``extended_type_of`` (for ``JoinContext``): ``closure`` of the realized
  M(v) with bit loops, not ``kernels.MaskMap``;
- ``node_shape`` (for ``positions`` and ``shapes``): ``K.elements.index``,
  not ``matroid.positions_of``;
- ``ground`` (for the tree's walk): E(M(v)) = (E(M1) | E(M2) | E(K)) - D;
- ``rank_equal``: a mask permutation built bit by bit, not ``MaskMap``.
"""

from itertools import chain, combinations, product

import numpy as np

from amwidth.errors import DomainError
from amwidth.matroid import Matroid
from amwidth.types_dp import ExtendedType


def subsets(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def brute_rank(independent, subset):
    """Largest independent subset of ``subset`` by enumeration."""
    best = 0
    for cand in subsets(subset):
        if independent(frozenset(cand)):
            best = max(best, len(cand))
    return best


def graphic_independent(edges, subset):
    """Edge set is independent iff inserting its edges never closes a cycle.

    Connectivity is re-checked by a plain DFS over the edges inserted so
    far, keeping this oracle independent of any union-find code.
    """
    added = []

    def reachable(a, b):
        stack, seen = [a], {a}
        while stack:
            x = stack.pop()
            if x == b:
                return True
            for u, v in added:
                for s, t in ((u, v), (v, u)):
                    if s == x and t not in seen:
                        seen.add(t)
                        stack.append(t)
        return False

    for e in sorted(subset):
        u, v = edges[e]
        if u == v or reachable(u, v):
            return False
        added.append((u, v))
    return True


def gf_independent(columns, p, subset):
    """No nontrivial zero combination among the chosen columns."""
    cols = [columns[e] for e in sorted(subset)]
    if not cols:
        return True
    width = len(cols[0])
    for coeffs in product(range(p), repeat=len(cols)):
        if not any(coeffs):
            continue
        total = [0] * width
        for c, vec in zip(coeffs, cols):
            for i, x in enumerate(vec):
                total[i] = (total[i] + c * x) % p
        if not any(total):
            return False
    return True


def count_sets(m, predicate):
    """Count subsets of the ground set satisfying a predicate."""
    return sum(1 for s in subsets(m.ground_set) if predicate(frozenset(s)))


def count_bases(m):
    r = m.rank()
    return count_sets(m, lambda s: len(s) == r and m.independent(s))


def count_independent(m):
    return count_sets(m, m.independent)


def count_spanning(m):
    r = m.rank()
    return count_sets(m, lambda s: m.rank(s) == r)


def span_set(rows, p, n):
    """Every vector of GF(p)^n in the row space of ``rows``, by enumerating
    coefficient tuples."""
    return {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n))
        for coeffs in product(range(p), repeat=len(rows))
    }


def rref_numpy(mat, p):
    """Reduced row echelon form of a 2-d int64 array, one NumPy scalar at a
    time: (reduced array, rank)."""
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = -1
        for i in range(r, rows):
            if a[i, c] % p:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        r += 1
        if r == rows:
            break
    return a, r


def rank_equal(a, b):
    """Whether a and b have one ground set and agree on every subset's rank."""
    if a.ground_set != b.ground_set:
        return False
    masks = np.arange(1 << a.size)
    in_b = np.zeros_like(masks)
    for i, e in enumerate(a.elements):
        in_b |= (masks >> i & 1) << b.elements.index(e)
    return bool(np.array_equal(a.table, b.table[in_b]))


def coeffs(poly):
    """A Tutte polynomial's coefficients as {(i, j): c}."""
    return {(i, j): c for i, j, c in poly.coeffs}


def two_sum(m1, m2, p1, p2):
    """2-sum along p1 in m1 and p2 in m2: the circuits of either side that
    avoid the glue points, and (C1 - p1) | (C2 - p2) for C1 through p1 and
    C2 through p2."""
    for m, p, side in ((m1, p1, "first"), (m2, p2, "second")):
        if p not in m.ground_set:
            raise DomainError(f"{p!r} is not an element of the {side} matroid")
        if m.rank([p]) == 0 or m.rank(m.ground_set - {p}) < m.rank():
            raise DomainError(f"{p!r} is a loop or coloop of the {side} matroid")
    g1, g2 = m1.ground_set - {p1}, m2.ground_set - {p2}
    if g1 & g2 or p1 in g2 or p2 in g1:
        raise DomainError("ground sets overlap beyond the glue elements")
    c1, c2 = m1.circuits(), m2.circuits()
    circs = {c for c in c1 | c2 if p1 not in c and p2 not in c}
    circs |= {(a - {p1}) | (b - {p2}) for a in c1 if p1 in a for b in c2 if p2 in b}
    independent = lambda s: not any(c <= s for c in circs)
    ground = [e for e in m1.elements if e != p1] + [e for e in m2.elements if e != p2]
    return Matroid.from_rank_function(ground, lambda s: brute_rank(independent, s))


def is_proper_amalgam(m, m1, m2):
    """The lemma's criterion: m restricts to m1 and m2, and every flat F
    of m has r(F) = r1(F & E1) + r2(F & E2) - r1(F & E1 & E2)."""
    e1, e2 = m1.ground_set, m2.ground_set
    if m.ground_set != e1 | e2:
        raise DomainError("ground set is not the union of the two parts")
    for i, part in ((1, m1), (2, m2)):
        if any(m.rank(s) != part.rank(s) for s in subsets(part.ground_set)):
            raise DomainError(f"not an amalgam: restriction to E{i} differs from M{i}")
    flats = (m.set_of(int(mask)) for mask in m.flat_masks())
    return all(m.rank(f) == m1.rank(f & e1) + m2.rank(f & e2) - m1.rank(f & e1 & e2) for f in flats)


def gpc_closure(m1, m2, subset):
    """Closure of ``subset`` in the generalized parallel connection of m1
    and m2: cl(X) = cl1(X2 & E1) | cl2(X1 & E2), Xi = cli(X & Ei) | X."""
    x, e1, e2 = frozenset(subset), m1.ground_set, m2.ground_set
    x1, x2 = m1.closure(x & e1) | x, m2.closure(x & e2) | x
    return m1.closure(x2 & e1) | m2.closure(x1 & e2)


def ground(tree, nid):
    """E(M(v)) by the definition: E(K) at a leaf, else (E(M1) | E(M2) | E(K)) - D."""
    node = tree.nodes[nid]
    return node.K.ground_set.union(*(ground(tree, c) for c in node.children)) - node.D


def extended_type_of(tree, nid, tracked):
    """Extended type of node nid for ``tracked`` on the realized M(v): per
    mask Y over the sorted boundary, the boundary part of cl(X + Y) for
    X = tracked & E(M(v)); then the boundary part of X."""
    m, bound = tree.realize(nid), sorted(tree.boundary(nid))
    x = frozenset(tracked) & m.ground_set
    trace = lambda s: sum(1 << i for i, e in enumerate(bound) if e in s)
    ys = ({e for i, e in enumerate(bound) if y >> i & 1} for y in range(1 << len(bound)))
    return ExtendedType(tuple(trace(m.closure(x | y)) for y in ys), trace(x))


def node_shape(k, j1, j2, j_parent, deletions=()):
    """A node's shape from ids: K's key, the K-positions of sorted J1, J2
    and parent boundary, and the K-mask of D; None for a set outside K."""
    at = lambda ids: tuple(map(k.elements.index, sorted(ids))) if set(ids) <= k.ground_set else None
    d = at(deletions)
    return (k.key, at(j1), at(j2), at(j_parent), None if d is None else sum(1 << p for p in d))
