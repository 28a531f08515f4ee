"""Pure-Python reference computations the benchmark checks answers against.

Nothing here calls into ``amwidth``: GF(p) ranks come from row reduction
over Python ints, graphic ranks from relabelling vertex components, and
subspace dimensions from the Zassenhaus sum-intersection construction.
"""


def _reduce(vec, basis, p):
    """Reduce ``vec`` against an echelon ``basis`` {pivot: row with 1 there}."""
    vec = list(vec)
    for piv, row in basis.items():
        c = vec[piv]
        if c:
            vec = [(a - c * b) % p for a, b in zip(vec, row)]
    return vec


def _extend(basis, vec, p):
    """Basis plus ``vec`` if it is independent of it, else None."""
    vec = _reduce(vec, basis, p)
    piv = next((i for i, a in enumerate(vec) if a), None)
    if piv is None:
        return None
    inv = pow(vec[piv], p - 2, p)
    row = [a * inv % p for a in vec]
    out = {}
    for q, r in basis.items():
        c = r[piv]
        out[q] = [(a - c * b) % p for a, b in zip(r, row)] if c else r
    out[piv] = row
    return out


def _count_by_extension(n, start_state, extend):
    """(rank, #bases, #independent sets) by depth-first growth of independent sets.

    ``extend(state, e)`` returns the state of the set plus element e, or
    None when e depends on the set.  Dependent sets are never extended,
    since every superset of a dependent set is dependent.
    """
    by_size = {}

    def walk(start, state, size):
        by_size[size] = by_size.get(size, 0) + 1
        for e in range(start, n):
            nxt = extend(state, e)
            if nxt is not None:
                walk(e + 1, nxt, size + 1)

    walk(0, start_state, 0)
    rank = max(by_size)
    return rank, by_size[rank], sum(by_size.values())


def linear_counts(columns, p):
    """(rank, bases, independent sets) of the GF(p) vector matroid."""
    vecs = [columns[e] for e in sorted(columns)]
    return _count_by_extension(len(vecs), {}, lambda b, e: _extend(b, vecs[e], p))


def graphic_counts(edges):
    """(rank, bases, independent sets) of the cycle matroid of ``edges``.

    A state is the component label of each vertex; an edge is independent
    of a forest exactly when its ends lie in different components.
    """
    verts = sorted({v for pair in edges.values() for v in pair})
    index = {v: i for i, v in enumerate(verts)}
    ends = [(index[edges[e][0]], index[edges[e][1]]) for e in sorted(edges)]

    def extend(comp, e):
        a, b = comp[ends[e][0]], comp[ends[e][1]]
        if a == b:
            return None
        return tuple(a if c == b else c for c in comp)

    return _count_by_extension(len(ends), tuple(range(len(verts))), extend)


def row_space(vectors, p):
    basis = {}
    for v in vectors:
        nxt = _extend(basis, v, p)
        if nxt is not None:
            basis = nxt
    return [basis[k] for k in sorted(basis)]


def intersect(u, w, p, dim):
    """Basis of span(u) & span(w) by the Zassenhaus algorithm."""
    zero = [0] * dim
    rows = [list(a) + list(a) for a in u] + [list(b) + zero for b in w]
    out = []
    for row in row_space(rows, p):
        if not any(row[:dim]):
            out.append(row[dim:])
    return out


def glue_span_dims(adjacency, leaf_labels, columns, p, dim):
    """Dimension of the glue span at each internal node of a branch tree.

    Around an internal node the three subtrees A, B, C meet; the span is
    the sum of the interfaces V(A) & V(B + C), V(B) & V(A + C) and
    V(C) & V(A + B).  A glue matroid over it has p ** dimension elements,
    which is what drives the cost of the join at that node.
    """

    def side(start, avoid):
        out, stack, seen = [], [start], {start, avoid}
        while stack:
            x = stack.pop()
            if x in leaf_labels:
                out.append(columns[leaf_labels[x]])
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return out

    dims = []
    for x, nbrs in adjacency.items():
        if len(nbrs) != 3:
            continue
        parts = [row_space(side(y, x), p) for y in nbrs]
        interfaces = []
        for i in range(3):
            rest = row_space([v for j in range(3) if j != i for v in parts[j]], p)
            interfaces += intersect(parts[i], rest, p, dim)
        dims.append(len(row_space(interfaces, p)))
    return dims
