"""GF(p) linear algebra on tuples against spans enumerated as sets of
vectors, and ``rref`` against the NumPy elimination it replaced."""

import random
from itertools import product

import numpy as np
import pytest

from amwidth import linalg

import reference

FIELDS = [2, 3, 5, 7]
# rows x columns at most, smaller over larger fields so that the sets of
# sums and the whole space GF(p)^n stay small enough to enumerate
SHAPES = {2: (5, 7), 3: (4, 7), 5: (3, 6), 7: (3, 5)}


def _matrices(p, rng, max_rows, n):
    """Matrices with n columns: no rows, zero rows, a zero column, full
    rank, then random ones."""
    yield ()
    yield ((0,) * n,) * 2
    for _ in range(2):
        yield tuple(
            tuple(0 if j == n - 1 else rng.randrange(p) for j in range(n))
            for _ in range(rng.randint(1, max_rows))
        )
    k = min(max_rows, n)
    ident = [tuple(int(i == j) for j in range(n)) for i in range(k)]
    yield tuple(tuple(x * rng.randrange(1, p) % p for x in row) for row in ident)
    for _ in range(6):
        rows = rng.randint(1, max_rows)
        yield tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(rows))


def _groups(p):
    """(n, matrices with n columns) for n = 0 up to the field's width."""
    rng = random.Random(100 + p)
    max_rows, max_cols = SHAPES[p]
    yield 0, [()]
    for n in range(1, max_cols + 1):
        yield n, list(_matrices(p, rng, max_rows, n))


@pytest.mark.parametrize("p", FIELDS)
def test_rref_matches_numpy_elimination(p):
    rng = random.Random(p)
    shapes = [(0, 0), (0, 3), (3, 0)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 16)) for _ in range(60)]
    for rows, cols in shapes:
        mat = np.array([[rng.randrange(-p, 2 * p) for _ in range(cols)] for _ in range(rows)])
        mat = mat.reshape(rows, cols)
        ref, r = reference.rref_numpy(mat, p)
        want = (tuple(map(tuple, ref.tolist())), r)
        assert linalg.rref(mat, p) == want, mat
        assert linalg.rref(mat.tolist(), p) == want, mat


@pytest.mark.parametrize("p", FIELDS)
def test_single_spaces_match_enumeration(p):
    rng = random.Random(p)
    for n, mats in _groups(p):
        whole = list(product(range(p), repeat=n))
        for mat in mats:
            space = reference.span_set(mat, p, n)
            basis = linalg.row_basis(mat, p)
            assert reference.span_set(basis, p, n) == space, mat
            assert p ** linalg.rank(mat, p) == p ** len(basis) == len(space), mat
            assert linalg.row_basis(basis[::-1] + mat, p) == basis, mat
            null = linalg.nullspace(mat, p)
            annihilated = {
                v for v in whole if all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in mat)
            }
            # a matrix without rows has no width to take the nullspace in
            assert reference.span_set(null, p, n) == annihilated if mat else null == (), mat
            columns = reference.span_set(tuple(zip(*mat)), p, len(mat))
            assert reference.span_set(linalg.column_space_basis(mat, p), p, len(mat)) == columns
            for v in rng.sample(whole, min(30, len(whole))) + rng.sample(sorted(space), 1):
                assert linalg.in_span(v, basis, p) == (v in space), (mat, v)
            points = linalg.span_vectors(basis, p)
            assert len(points) == len(set(points)) == linalg.point_count(len(basis), p), mat
            assert set(points) == {v for v in space if any(v) and next(x for x in v if x) == 1}


@pytest.mark.parametrize("p", FIELDS)
def test_sums_and_intersections_match_enumeration(p):
    rng = random.Random(p)
    for n, mats in _groups(p):
        for a, b in zip(mats, rng.sample(mats, len(mats))):
            sa, sb = reference.span_set(a, p, n), reference.span_set(b, p, n)
            sums = {tuple((u + v) % p for u, v in zip(s, t)) for s in sa for t in sb}
            for x, y in ((a, b), (linalg.row_basis(a, p), linalg.row_basis(b, p))):
                total = linalg.sum_spaces(x, y, p)
                assert total == linalg.row_basis(total, p), (a, b)
                assert reference.span_set(total, p, n) == sums, (a, b)
                common = linalg.intersect_spaces(x, y, p)
                assert common == linalg.row_basis(common, p), (a, b)
                assert reference.span_set(common, p, n) == sa & sb, (a, b)
