"""Generated tests of the rank-table kernels: GF(p) matrices with zero,
parallel and scaled columns against ``linalg.rank``, and multigraphs with
loops, parallel edges and several components against DFS, on every
subset.

The GF(p) draws cover the three ways a table is built: counting the
codewords of the row space, counting those of its dual (rank above half
the columns), and the layered builder (GF(5) and GF(7) at balanced rank,
where both codes have more than 2^n words).  The explicit examples pin
one input of each.
"""

import random

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from amwidth import kernels, linalg

import reference


@st.composite
def gf_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(0, 8))
    n = draw(st.integers(1, 10))
    # entries from a drawn seed: drawn values lean towards zero, which
    # would make most matrices rank 0 or 1
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cols = [[rng.randrange(p) for _ in range(d)] for _ in range(n)]
    for j in range(n):
        kind = draw(st.sampled_from(["random", "random", "zero", "scaled"]))
        if kind == "zero":
            cols[j] = [0] * d
        elif kind == "scaled" and j:
            c = rng.randrange(1, p)
            cols[j] = [c * x % p for x in cols[rng.randrange(j)]]
    return p, np.array(cols, dtype=np.int64).reshape(n, d).T


def _identity_block(p, n, r):
    """Rank r: the unit vectors, then their sum, scaled."""
    cols = np.zeros((r, n), dtype=np.int64)
    cols[:, :r] = np.eye(r, dtype=np.int64)
    cols[:, r:] = p - 1
    return p, cols


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=gf_matrices())
@example(case=(2, np.array([[1, 0, 1, 1], [0, 1, 1, 0]])))  # counts the code
@example(case=_identity_block(3, 6, 5))  # counts the dual
@example(case=_identity_block(5, 10, 5))  # layered
def test_gf_rank_table_every_mask(case):
    p, cols = case
    n = cols.shape[1]
    tbl = kernels.gf_rank_table(cols, p)
    assert tbl.dtype == np.int8 and tbl.shape == (1 << n,)
    for mask in range(1 << n):
        sub = cols[:, [e for e in range(n) if mask >> e & 1]]
        assert int(tbl[mask]) == linalg.rank(sub, p), (p, cols, mask)


@st.composite
def multigraphs(draw):
    nv = draw(st.integers(1, 7))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=10))
    return edges, nv


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=multigraphs())
@example(case=([(0, 1), (1, 0), (2, 2), (3, 4), (4, 5), (5, 3), (6, 6)], 7))
def test_graphic_rank_table_every_mask(case):
    edges, nv = case
    n = len(edges)
    eu, ev = np.array(edges, dtype=np.int64).T
    tbl = kernels.graphic_rank_table(eu, ev, nv)
    assert tbl.dtype == np.int8 and tbl.shape == (1 << n,)
    named = dict(enumerate(edges))
    want = reference.rank_table(lambda s: reference.graphic_independent(named, s), n)
    assert tbl.tolist() == want, edges
