"""Independent brute-force oracles.

These deliberately avoid the library's computation paths: ranks come from
subset enumeration over a caller-supplied independence test, graphic
independence from DFS cycle detection, GF(p) independence and spans
from exhaustive coefficient enumeration, and reduced row echelon forms
from the NumPy elimination ``linalg`` used before it moved to tuples.
Expected values asserted in tests are computed (or were frozen from)
these.
"""

from itertools import chain, combinations, product

import numpy as np


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
