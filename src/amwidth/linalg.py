"""Small dense linear algebra over prime fields GF(p), p in {2, 3, 5, 7}.

Vectors are tuples of residues.  A subspace is the tuple of the nonzero
rows of its reduced row echelon form; that form is unique, so equal
subspaces are equal tuples and a basis can key a dict.  The zero space
is ``()``.  Matrices here are at most about 8 x 16, where reading one
NumPy scalar costs more than the arithmetic on it, so the row operations
run on Python lists of ints and this module does not use NumPy.
"""

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
    """Reduced row echelon form of a 2-d sequence (a NumPy array too).

    Returns (rows, rank): ``rows`` is a tuple of tuples with the rank's
    pivot rows first and the zero rows after them.
    """
    a = [[x % p for x in row] for row in (mat.tolist() if hasattr(mat, "tolist") else mat)]
    rows, r = len(a), 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        s = inverse_mod(a[r][c], p)
        if s != 1:
            a[r] = [x * s % p for x in a[r]]
        lead = a[r]
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], lead)]
        r += 1
        if r == rows:
            break
    return tuple(map(tuple, a)), r


def rank(mat, p):
    return rref(mat, p)[1]


def row_basis(mat, p):
    """Basis of the row space: its reduced rows, without zero rows."""
    a, r = rref(mat, p)
    return a[:r]


# no CLI path calls this: benchmarks/tracing.py patches it (ROADMAP item 8)
def column_space_basis(cols, p):
    """Basis (as rows) of the span of the columns of a (d, n) matrix."""
    return row_basis(tuple(zip(*(cols.tolist() if hasattr(cols, "tolist") else cols))), p)


# no CLI path calls this: benchmarks/tracing.py patches it (ROADMAP item 8)
def in_span(vec, basis, p):
    """Whether vec lies in the row space of ``basis``, a tuple of independent rows."""
    return rank((*basis, vec), p) == len(basis)


def sum_spaces(a, b, p):
    return row_basis((*a, *b), p)


def intersect_spaces(a, b, p):
    """Basis of the intersection of two row spaces, by Zassenhaus.

    The reduced form of [a | a; b | 0] has rows (0 | w) for exactly the
    vectors w of a basis of the intersection, and they are reduced.
    """
    if not a or not b:
        return ()
    n = len(a[0])
    red, r = rref([*([*row, *row] for row in a), *([*row, *[0] * n] for row in b)], p)
    return tuple(row[n:] for row in red[:r] if not any(row[:n]))


# no CLI path calls this: benchmarks/tracing.py patches it (ROADMAP item 8)
def nullspace(mat, p):
    """Basis (rows) of the right nullspace of ``mat`` over GF(p).

    A matrix without rows has no width here: its nullspace is ``()``.
    """
    red, r = rref(mat, p)
    return reduced_nullspace(red[:r], p, len(red[0]) if red else 0)


def reduced_nullspace(basis, p, n):
    """Nullspace basis of a reduced basis of length-n rows, such as
    ``row_basis`` returns: one row per non-pivot column, 1 there."""
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    out = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[f] = 1
        for c, row in zip(pivots, basis):
            v[c] = -row[f] % p
        out.append(tuple(v))
    return tuple(out)


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
    out = []
    # the combinations of the rows after ``lead``, in lexicographic order
    # of their coefficient tuples
    tails = [(0,) * len(basis[0])] if basis else []
    for lead in reversed(range(len(basis))):
        row = basis[lead]
        for w in tails:
            v = [(x + y) % p for x, y in zip(row, w)]
            s = inverse_mod(next(x for x in v if x), p)
            out.append(tuple(x * s % p for x in v) if s != 1 else tuple(v))
        if lead:
            tails = [
                tuple((c * x + y) % p for x, y in zip(row, w)) for c in range(p) for w in tails
            ]
    return out
