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

- ``circuits`` and ``flats`` (for ``Matroid.circuits``, ``flat_masks``
  and ``info``): the definitions, read off ``m.table.tolist()`` subset
  by subset, not ``kernels.circuit_indicator`` and ``flat_indicator``;
- ``is_modular_semiflat`` (for ``amalgam.is_modular_semiflat`` and the
  validator's verdicts): ``flats`` and ``rank``, with no shortcut for
  sets of at most one element;
- ``two_sum`` (for ``glue``): ranks by ``brute_rank`` over "contains no
  circuit" of the ``circuits`` of both parts, not ``kernels.subset_any``
  and ``rank_table_from_independence``;
- ``is_proper_amalgam`` and ``gpc_closure`` (for ``proper_amalgam`` and
  ``generalized_parallel_connection``): ``flats``, ``rank`` and
  ``closure``, not ``amalgam._Union`` and ``kernels.MaskMap``;
- ``extended_type_of`` (for ``JoinContext``): ``closure`` of the realized
  M(v) with bit loops, not ``kernels.MaskMap``;
- ``node_shape`` (for ``positions`` and ``shapes``): ``K.elements.index``,
  not ``matroid.positions_of``;
- ``ground`` (for the tree's walk): E(M(v)) = (E(M1) | E(M2) | E(K)) - D;
- ``rank_equal``: a mask permutation built bit by bit, not ``MaskMap``;
- ``spanning_macro`` and ``is_base_macro`` (for the ``Spanning`` atom of
  both MSO engines): the quantified definitions over ``InClosure`` and
  ``Indep``.
"""

import functools
from itertools import chain, combinations, product

import numpy as np

from amwidth.errors import DomainError
from amwidth.matroid import Matroid
from amwidth.mso import formulas as F
from amwidth.types_dp import ExtendedType


def subsets(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def brute_rank(independent, subset):
    """Size of the largest independent subset of ``subset``, by enumerating
    candidates from the largest size down."""
    items = sorted(subset)
    for r in range(len(items), -1, -1):
        if any(independent(frozenset(cand)) for cand in combinations(items, r)):
            return r
    raise ValueError("the empty set is not independent")


def rank_table(independent, n):
    """``brute_rank`` of every mask over the elements 0..n-1, indexed by
    mask, calling ``independent`` once per subset."""
    independent = functools.cache(independent)
    return [brute_rank(independent, [e for e in range(n) if m >> e & 1]) for m in range(1 << n)]


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


def _masks_of(m, holds):
    """The subsets of m's ground set, as sets of ids, whose masks hold
    for ``holds(ranks, mask)`` on the rank list indexed by mask."""
    ranks = m.table.tolist()
    return frozenset(
        frozenset(e for i, e in enumerate(m.elements) if mask >> i & 1)
        for mask in range(len(ranks))
        if holds(ranks, mask)
    )


def circuits(m):
    """The dependent sets of m all of whose one-smaller subsets are
    independent."""
    n = m.size
    independent = lambda ranks, s: ranks[s] == bin(s).count("1")
    return _masks_of(
        m,
        lambda ranks, s: not independent(ranks, s)
        and all(independent(ranks, s & ~(1 << x)) for x in range(n) if s >> x & 1),
    )


def flats(m):
    """The sets F of m with r(F + x) > r(F) for every x outside F."""
    n = m.size
    return _masks_of(
        m, lambda ranks, s: all(ranks[s | 1 << x] > ranks[s] for x in range(n) if not s >> x & 1)
    )


def is_modular_semiflat(m, subset, all_flats=None):
    """cl(T), the intersection of the flats holding T, has r(F) + r(G) =
    r(F | G) + r(F & G) with every flat G, and each x it adds is a loop or
    parallel to some e in T; ``all_flats`` is ``flats(m)`` if given."""
    all_flats = flats(m) if all_flats is None else all_flats
    t = frozenset(subset)
    cl = frozenset(m.ground_set).intersection(*(f for f in all_flats if t <= f))
    if any(m.rank(cl) + m.rank(g) != m.rank(cl | g) + m.rank(cl & g) for g in all_flats):
        return False
    return all(
        m.rank([x]) == 0 or any(m.rank([e]) == 1 and m.rank([x, e]) == 1 for e in t)
        for x in cl - t
    )


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
    c1, c2 = circuits(m1), circuits(m2)
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
    return all(
        m.rank(f) == m1.rank(f & e1) + m2.rank(f & e2) - m1.rank(f & e1 & e2) for f in flats(m)
    )


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


def per_mask_join(ctx, e1, e2, fresh):
    """The parent signature and rank increment of one fresh choice by the
    join's definition: the closure fixed points of the tracked set's
    K-part x0 | fresh under each parent-boundary subset, and one rank
    query at that K-part, with no reuse between fresh choices."""
    xk = ctx.scatter1[e1.trace] | ctx.scatter2[e2.trace] | fresh
    sig = ExtendedType(join_types(ctx, e1.base, e2.base, xk), ctx.gather_parent[xk])
    return sig, ctx._rank(e1, e2, xk)


def join_types(ctx, t1, t2, xk):
    """The join's type map by its definition: the closure fixed point of
    xk plus each parent-boundary subset under the children's type maps t1
    and t2, one ``fixpoint`` each, restricted to the parent boundary."""
    gather = ctx.gather_parent
    return tuple(gather[ctx.fixpoint(t1, t2, y | xk)] for y in ctx.parent.scatter.tolist())


def node_shape(k, j1, j2, j_parent, deletions=()):
    """A node's shape from ids: K's key, the K-positions of sorted J1, J2
    and parent boundary, and the K-mask of D; None for a set outside K."""
    at = lambda ids: tuple(map(k.elements.index, sorted(ids))) if set(ids) <= k.ground_set else None
    d = at(deletions)
    return (k.key, at(j1), at(j2), at(j_parent), None if d is None else sum(1 << p for p in d))


def _bound_element(term):
    """An element name that the set term ``term`` does not use."""
    used = {name for name, _ in F.parts(F.Indep(term))[0]}
    name = "e"
    while name in used:
        name += "_"
    return name


def spanning_macro(term):
    """spanning(T) as forall e (e in cl(T))."""
    e = _bound_element(term)
    return F.Forall(e, F.InClosure(e, term))


def is_base_macro(term):
    """is_base(T) as indep(T) & forall e (!(e in T) -> !indep(T + {e}))."""
    e = _bound_element(term)
    return F.And(
        F.Indep(term),
        F.Forall(e, F.Implies(F.Not(F.Member(e, term)), F.Not(F.Indep(F.Add(term, e))))),
    )
