"""Small dense linear algebra over prime fields GF(p), p in {2, 3, 5, 7}.

Vectors are 1-d numpy int64 arrays of residues; subspaces are represented
by row-reduced basis matrices (possibly with zero rows stripped).  Sizes
here are tiny (dimension <= ~8), so clarity beats asymptotics.
"""

from itertools import product

import numpy as np

from .errors import DomainError

SUPPORTED_FIELDS = (2, 3, 5, 7)


def check_field(p):
    if p not in SUPPORTED_FIELDS:
        raise DomainError(f"unsupported field GF({p}); supported: {SUPPORTED_FIELDS}")


def inverse_mod(v, p):
    v %= p
    for q in range(1, p):
        if (v * q) % p == 1:
            return q
    raise ZeroDivisionError(f"{v} has no inverse mod {p}")


def rref(mat, p):
    """Row-reduced echelon form; returns (reduced matrix, rank)."""
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
        a[r] = (a[r] * inverse_mod(a[r, c], p)) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        r += 1
        if r == rows:
            break
    return a, r


def rank(mat, p):
    return rref(mat, p)[1]


def row_basis(mat, p):
    """Basis of the row space as a reduced matrix with no zero rows."""
    a, r = rref(mat, p)
    return a[:r]


def column_space_basis(cols, p):
    """Basis (as rows) of the span of the given column matrix (d, n)."""
    a = np.array(cols, dtype=np.int64).T
    return row_basis(a, p)


def in_span(vec, basis, p):
    """Whether vec lies in the row space of ``basis``."""
    if basis.shape[0] == 0:
        return not np.any(np.asarray(vec) % p)
    stacked = np.vstack([basis, np.asarray(vec, dtype=np.int64) % p])
    return rank(stacked, p) == basis.shape[0]


def sum_spaces(a, b, p):
    if a.shape[0] == 0:
        return row_basis(b, p)
    if b.shape[0] == 0:
        return row_basis(a, p)
    return row_basis(np.vstack([a, b]), p)


def intersect_spaces(a, b, p):
    """Basis of the intersection of two row spaces via the kernel method."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, a.shape[1] if a.shape[0] else b.shape[1]), dtype=np.int64)
    # Solve x*a = y*b: nullspace of [a; -b]^T combined coefficients.
    stacked = np.vstack([a, (-b) % p])
    coeffs = nullspace(stacked.T, p)  # rows are (x | y)
    na = a.shape[0]
    vecs = (coeffs[:, :na] @ a) % p
    return row_basis(vecs, p)


def nullspace(mat, p):
    """Basis (rows) of the right nullspace of ``mat`` over GF(p)."""
    red, r = rref(mat, p)
    return reduced_nullspace(red[:r], p)


def reduced_nullspace(basis, p):
    """Nullspace basis of a row-reduced basis with no zero rows, such as
    ``row_basis`` returns: one row per non-pivot column, 1 there."""
    r, n = basis.shape
    pivots = (basis != 0).argmax(axis=1) if r else np.zeros(0, dtype=np.intp)
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    out = np.zeros((n - r, n), dtype=np.int64)
    out[:, free] = np.eye(n - r, dtype=np.int64)
    out[:, pivots] = -basis[:, free].T % p
    return out


def point_count(dim, p):
    """Number of 1-dimensional subspaces of GF(p)**dim: (p**dim - 1)/(p - 1)."""
    return (p**dim - 1) // (p - 1)


def span_vectors(basis, p):
    """The projective points of the row space of a basis, as tuples.

    One nonzero vector per 1-dimensional subspace, scaled so that its
    first nonzero coordinate is 1: ``point_count(dim, p)`` vectors for a
    basis of ``dim`` independent rows, and none for the zero space.
    Order is deterministic: lexicographic in the coefficient tuples over
    the basis rows, taking those whose first nonzero entry is 1.
    """
    dim = basis.shape[0]
    out = []
    for lead in reversed(range(dim)):
        for tail in product(range(p), repeat=dim - lead - 1):
            coeffs = (0,) * lead + (1,) + tail
            v = (np.array(coeffs, dtype=np.int64) @ basis) % p
            scale = inverse_mod(next(int(x) for x in v if x), p)
            out.append(tuple(int(x) * scale % p for x in v))
    return out
