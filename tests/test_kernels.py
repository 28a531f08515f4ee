"""Kernel correctness against the brute-force reference.

The rank tables are checked on every subset of small seeded inputs:
GF(p) matrices (zero, repeated and scaled columns, more rows than
columns) against coefficient enumeration and ``linalg.rank``, and
multigraphs (loops, parallel edges, several components, perfect
matchings) against DFS cycle detection and against GF(2) vertex-edge
incidence.  Most tables come from counting codewords, on the code or on
its dual; the tests at full size check a 20-element GF(3) table built
that way, and a 17-element GF(7) table of balanced rank, where both
codes are too large and the layered builder splits the table on its top
element to stay within ``GF_BASIS_BUDGET``.  Unsplit layered tables are
also compared on small GF(5) and GF(7) inputs with tables split once
into layered halves, and split down to counted ones under a budget
shrunk to zero.  ``MaskMap`` and ``fold`` are checked against bit-by-bit
loops and enumeration up to six elements, and ``fold`` against one plain
pass per bit up to 14 elements.  The circuit and flat indicators, and
``fold`` on rank tables, are checked against ``reference.circuits`` and
``reference.flats`` up to 13 elements.  ``tests/test_rank_tables_generated.py``
draws further inputs with Hypothesis.
"""

import tracemalloc

import numpy as np
import pytest

from amwidth import kernels, linalg
from amwidth.matroid import Matroid, positions_of

import reference


def _random_columns(rng, p, n, d):
    cols = rng.integers(0, p, size=(d, n))
    if n >= 2:
        cols[:, 1] = cols[:, 0] * int(rng.integers(1, p)) % p  # parallel pair
    if n >= 3:
        cols[:, 2] = 0  # loop
    return cols


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gf_rank_table_vs_rref(p):
    # rank well below n: most masks insert into a basis that needs reducing
    rng = np.random.default_rng(10 + p)
    for d in range(2, 7):
        cols = rng.integers(0, p, size=(d, 9))
        tbl = kernels.gf_rank_table(cols, p)
        for mask in range(1 << 9):
            sub = cols[:, [e for e in range(9) if mask >> e & 1]]
            assert int(tbl[mask]) == linalg.rank(sub, p), (cols, mask)


def _rank_r_columns(rng, p, n, r):
    """A (r + 1, n) matrix of rank r over GF(p) with a loop and a scaled pair."""
    cols = rng.integers(0, p, size=(r + 1, n))
    cols[:r, :r] = np.eye(r, dtype=np.int64)
    cols[r] = cols[:r].sum(axis=0) % p  # a dependent row
    if n >= r + 2:
        cols[:, r] = 0
        cols[:, r + 1] = cols[:, 0] * int(rng.integers(1, p)) % p
    return cols[:, rng.permutation(n)]


def _layered_sizes(monkeypatch):
    """Record the element count of every table the layered builder fills."""
    sizes = []
    original = kernels._gf_layers

    def recording(vecs, p):
        sizes.append(len(vecs))
        return original(vecs, p)

    monkeypatch.setattr(kernels, "_gf_layers", recording)
    return sizes


@pytest.mark.parametrize("p", [5, 7])
def test_gf_rank_table_split_matches_layers(p, monkeypatch):
    # balanced ranks, where both the code and its dual have more than 2^n
    # words, so that the layered builder fills the whole table
    rng = np.random.default_rng(p)
    layered_halves = 0
    for n, r in ((6, 3), (8, 4), (9, 4), (9, 5), (10, 5)):
        assert p ** min(r, n - r) > 1 << n
        cols = _rank_r_columns(rng, p, n, r)
        sizes = _layered_sizes(monkeypatch)
        layered = kernels.gf_rank_table(cols, p)
        assert sizes == [n]
        # a budget one element short splits once; no budget splits down to
        # tables that are counted
        for budget in ((1 << (n - 1)) * r * r, 0):
            monkeypatch.setattr(kernels, "GF_BASIS_BUDGET", budget)
            assert np.array_equal(kernels.gf_rank_table(cols, p), layered)
        assert n not in sizes[1:]
        layered_halves += sizes.count(n - 1)
        monkeypatch.undo()
    assert layered_halves


def _built_in_budget(cols, p):
    """The rank table and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        tbl = kernels.gf_rank_table(cols, p)
        return tbl, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_sampled_masks(tbl, cols, p, rng):
    n = cols.shape[1]
    for mask in rng.integers(0, 1 << n, size=100).tolist():
        sub = cols[:, [e for e in range(n) if mask >> e & 1]]
        assert int(tbl[mask]) == linalg.rank(sub, p), mask


def test_gf7_rank_table_17_split_in_budget(monkeypatch):
    rng = np.random.default_rng(17)
    cols = _rank_r_columns(rng, 7, 17, 8)
    # neither code is countable, and the layered bases would pass the budget
    assert 7**8 > 1 << 17 and (1 << 17) * 8 * 8 > kernels.GF_BASIS_BUDGET
    sizes = _layered_sizes(monkeypatch)
    tbl, peak = _built_in_budget(cols, 7)
    assert sizes and max(sizes) == 16  # split once, then layered
    assert peak < 16 << 20, peak
    assert int(tbl[-1]) == 8
    assert kernels.check_rank_axioms(tbl, 17) == (0, 0, 0)
    _check_sampled_masks(tbl, cols, 7, rng)


def test_gf3_rank_table_20_counts_in_budget(monkeypatch):
    rng = np.random.default_rng(20)
    cols = _rank_r_columns(rng, 3, 20, 10)
    assert 3**10 <= 1 << 20
    sizes = _layered_sizes(monkeypatch)
    tbl, peak = _built_in_budget(cols, 3)
    assert sizes == []  # counted, not layered
    assert peak < 16 << 20, peak
    assert int(tbl[-1]) == 10
    _check_sampled_masks(tbl, cols, 3, rng)


def test_popcounts():
    pops = kernels.popcounts(4)
    assert [int(pops[m]) for m in range(16)] == [bin(m).count("1") for m in range(16)]


def test_gf_rank_table_vs_enumeration():
    cols = {0: (1, 0, 1), 1: (0, 1, 1), 2: (1, 1, 0), 3: (2, 0, 1), 4: (0, 0, 0)}
    p = 3
    mat = np.array([cols[e] for e in range(5)], dtype=np.int64).T
    tbl = kernels.gf_rank_table(mat, p)
    for mask in range(1 << 5):
        subset = [e for e in range(5) if mask >> e & 1]
        want = reference.brute_rank(
            lambda s: reference.gf_independent(cols, p, s), subset
        )
        assert int(tbl[mask]) == want, (mask, subset)
    # seeded matrices with d = 0..8 rows; n is capped per field so that
    # coefficient enumeration stays quick
    for p, n_max in ((2, 6), (3, 6), (5, 5), (7, 4)):
        rng = np.random.default_rng(p)
        for d in range(9):
            for n in (3, n_max):
                mat = _random_columns(rng, p, n, d)
                cols = {e: tuple(int(x) for x in mat[:, e]) for e in range(n)}
                want = reference.rank_table(lambda s: reference.gf_independent(cols, p, s), n)
                assert kernels.gf_rank_table(mat, p).tolist() == want, mat


# multigraphs: (edges as (u, v) pairs, vertex count)
GRAPHS = [
    ([(0, 1), (1, 2), (0, 2), (2, 2), (0, 1)], 3),  # triangle, loop, parallel edge
    ([(0, 0), (1, 1), (0, 0)], 2),  # loops only
    ([(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 6)], 7),  # three components
    ([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13)], 14),  # matching
    ([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (1, 3)], 5),  # K4+, isolated 4
]


def _incidence(edges, nv):
    inc = np.zeros((nv, len(edges)), dtype=np.int64)
    for e, (u, v) in enumerate(edges):
        inc[u, e] ^= 1
        inc[v, e] ^= 1
    return inc


def test_graphic_rank_table_vs_dfs():
    edges = {0: (0, 1), 1: (1, 2), 2: (0, 2), 3: (2, 2), 4: (0, 1)}
    eu = np.array([edges[e][0] for e in range(5)], dtype=np.int64)
    ev = np.array([edges[e][1] for e in range(5)], dtype=np.int64)
    tbl = kernels.graphic_rank_table(eu, ev, 3)
    for mask in range(1 << 5):
        subset = [e for e in range(5) if mask >> e & 1]
        want = reference.brute_rank(
            lambda s: reference.graphic_independent(edges, s), subset
        )
        assert int(tbl[mask]) == want
    for edges, nv in GRAPHS:
        eu, ev = np.array(edges, dtype=np.int64).T
        independent = lambda s: reference.graphic_independent(dict(enumerate(edges)), s)
        want = reference.rank_table(independent, len(edges))
        assert kernels.graphic_rank_table(eu, ev, nv).tolist() == want, edges


def test_graphic_equals_gf2_incidence():
    # cycle matroids are binary: vertex-edge incidence over GF(2)
    rng = np.random.default_rng(12)
    graphs = GRAPHS + [
        ([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], 4),
        (rng.integers(0, 6, size=(12, 2)).tolist(), 8),  # parallel edges, loops likely
        ([(2 * i, 2 * i + 1) for i in range(12)], 24),  # perfect matching, r = n = 12
        ([(i, i + 1) for i in range(5)] + [(i, i + 1) for i in range(6, 11)]
         + [(0, 0), (6, 11)], 12),  # a path and a cycle, a loop
    ]
    for edges, nv in graphs:
        eu, ev = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        assert np.array_equal(
            kernels.graphic_rank_table(eu, ev, nv), kernels.gf_rank_table(_incidence(edges, nv), 2)
        ), edges


def test_rank_table_from_independence():
    # U_{2,4}: independent iff size <= 2
    ind = np.array([bin(m).count("1") <= 2 for m in range(16)])
    tbl = kernels.rank_table_from_independence(ind)
    assert [int(tbl[m]) for m in range(16)] == [
        min(bin(m).count("1"), 2) for m in range(16)
    ]


def test_closure_table():
    tbl = np.array([min(bin(m).count("1"), 2) for m in range(16)], dtype=np.int8)
    cl = kernels.closure_table(tbl, 4)
    # closure of any 2-subset of U_{2,4} is everything, singletons are flats
    assert int(cl[0b0011]) == 0b1111
    assert int(cl[0b0001]) == 0b0001
    assert int(cl[0]) == 0


def test_superset_min():
    vals = np.array([7, 5, 6, 1, 9, 2, 8, 3], dtype=np.int64)
    out = kernels.superset_min(vals)
    for m in range(8):
        want = min(vals[s] for s in range(8) if s & m == m)
        assert int(out[m]) == want


def test_subset_any():
    flags = np.zeros(8, dtype=bool)
    flags[0b011] = True
    out = kernels.subset_any(flags)
    for m in range(8):
        assert bool(out[m]) == (m & 0b011 == 0b011)


def test_check_rank_axioms_pass():
    tbl = np.array([min(bin(m).count("1"), 2) for m in range(16)], dtype=np.int8)
    assert kernels.check_rank_axioms(tbl, 4)[0] == 0


def test_check_rank_axioms_violations():
    bad_empty = np.array([1, 1], dtype=np.int8)
    assert kernels.check_rank_axioms(bad_empty, 1)[0] == 1
    bad_jump = np.array([0, 2], dtype=np.int8)
    assert kernels.check_rank_axioms(bad_jump, 1)[0] == 2
    # fails submodularity: r{a}=r{b}=1, r{ab}=2, r{abc}=3 but r{ac}=r{bc}=1
    bad_sub = np.array([0, 1, 1, 2, 1, 1, 1, 3], dtype=np.int8)
    code, a, b = kernels.check_rank_axioms(bad_sub, 3)
    assert code in (2, 3)


def test_translate_all_masks():
    bitmap = np.array([2, -1, 0], dtype=np.int64)
    out = kernels.translate_all_masks(3, bitmap)
    assert [int(x) for x in out] == [0, 4, 0, 4, 1, 5, 1, 5]


def _mask_map_oracle(n, pos):
    """scatter and gather of a sub-order, bit by bit."""
    scatter = [0] * (1 << len(pos))
    for s in range(1 << len(pos)):
        for i, p in enumerate(pos):
            if s >> i & 1:
                scatter[s] |= 1 << p
    gather = [sum(1 << i for i, p in enumerate(pos) if m >> p & 1) for m in range(1 << n)]
    return scatter, gather


def test_mask_map_vs_bit_loops():
    rng = np.random.default_rng(5)
    for n in range(11):
        for size in range(n + 1):
            for _ in range(4):
                pos = rng.permutation(n)[:size].tolist()
                mm = kernels.MaskMap(n, pos)
                scatter, gather = _mask_map_oracle(n, pos)
                assert mm.scatter.tolist() == scatter, (n, pos)
                assert mm.gather.tolist() == gather, (n, pos)
                assert mm.mask == sum(1 << p for p in pos)
                assert mm.scatter.dtype == mm.gather.dtype == np.int64
                # scatter then gather is the identity on sub-masks
                assert mm.gather[mm.scatter].tolist() == list(range(1 << size))
                assert mm.scatter is mm.scatter and mm.gather is mm.gather  # built once


def test_mask_map_repeated_positions_scatter():
    rng = np.random.default_rng(6)
    for n in range(1, 7):
        for size in range(1, 8):
            pos = rng.integers(0, n, size=size).tolist()
            mm = kernels.MaskMap(n, pos)
            assert mm.scatter.tolist() == _mask_map_oracle(n, pos)[0], (n, pos)
            assert mm.mask == sum(1 << p for p in set(pos))


def test_mask_map_empty_and_of():
    for n in range(4):
        mm = kernels.MaskMap(n, [])
        assert mm.scatter.tolist() == [0]
        assert mm.gather.tolist() == [0] * (1 << n)
        assert mm.mask == 0
    index = {10: 0, 30: 1, 20: 2}
    mm = kernels.MaskMap(len(index), positions_of(index, [20, 10]))
    assert (mm.n, mm.pos) == (3, [2, 0])
    assert mm.scatter.tolist() == [0, 4, 1, 5]
    assert positions_of(index, [20, 40]) is None


FOLDS = [
    (np.add, np.int64, sum),
    (np.maximum, np.int8, max),
    (np.minimum, np.int64, min),
    (np.logical_or, bool, any),
]


@pytest.mark.parametrize("op,dtype,reduce", FOLDS, ids=lambda x: getattr(x, "__name__", ""))
@pytest.mark.parametrize("supersets", [False, True])
def test_fold_vs_enumeration(op, dtype, reduce, supersets):
    rng = np.random.default_rng(7)
    for n in range(7):
        vals = rng.integers(-5, 6, size=1 << n).astype(dtype)
        want = [
            reduce(
                vals[s]
                for s in range(1 << n)
                if (s & m == m if supersets else s & m == s)
            )
            for m in range(1 << n)
        ]
        out = vals.copy()
        assert kernels.fold(out, op, supersets=supersets) is out  # in place
        assert out.dtype == dtype
        assert out.tolist() == want, (n, op)


def _fold_by_passes(vals, op, supersets):
    """The zeta transform one bit at a time, by index arithmetic."""
    out = vals.copy()
    masks = np.arange(out.size)
    for b in range(out.size.bit_length() - 1):
        lo = masks[masks >> b & 1 == 0]
        hi = lo | 1 << b
        if supersets:
            out[lo] = op(out[lo], out[hi])
        else:
            out[hi] = op(out[hi], out[lo])
    return out


@pytest.mark.parametrize("op,dtype,reduce", FOLDS, ids=lambda x: getattr(x, "__name__", ""))
@pytest.mark.parametrize("supersets", [False, True])
def test_fold_vs_passes_on_long_tables(op, dtype, reduce, supersets):
    # from 10 elements up, the short-block passes walk transposed views
    rng = np.random.default_rng(8)
    for n in range(10, 15):
        vals = rng.integers(-5, 6, size=1 << n).astype(dtype)
        want = _fold_by_passes(vals, op, supersets)
        out = vals.copy()
        assert kernels.fold(out, op, supersets=supersets) is out  # in place
        assert out.dtype == dtype
        assert np.array_equal(out, want), (n, op)


def _indicator_tables(n):
    """(kind, rank table) over n elements: uniform of rank n // 2, and
    GF(2), GF(3) and graphic tables with a loop and a parallel pair from
    three elements up."""
    rng = np.random.default_rng(40 + n)
    yield "uniform", np.minimum(kernels.popcounts(n), n // 2)
    for p in (2, 3):
        yield f"gf{p}", kernels.gf_rank_table(_random_columns(rng, p, n, 4), p)
    edges = rng.integers(0, 6, size=(n, 2))
    if n >= 3:
        edges[1] = edges[0]  # parallel pair
        edges[2, 1] = edges[2, 0]  # loop
    yield "graphic", kernels.graphic_rank_table(edges[:, 0], edges[:, 1], 6)


def _mask_table(sets, n):
    """Boolean table of the masks of sets of elements 0..n-1."""
    out = np.zeros(1 << n, dtype=bool)
    out[[sum(1 << e for e in s) for s in sets]] = True
    return out


@pytest.mark.parametrize("n", range(14))
def test_indicators_and_folds_vs_reference(n):
    # n = 10..13 reach the transposed passes from _LONG_FOLD up
    pops = kernels.popcounts(n)
    for kind, tbl in _indicator_tables(n):
        m = Matroid(range(n), tbl)
        circuits = _mask_table(reference.circuits(m), n)
        flats = _mask_table(reference.flats(m), n)
        assert np.array_equal(kernels.circuit_indicator(m.table, n), circuits), kind
        assert np.array_equal(kernels.flat_indicator(m.table, n), flats), kind
        # a set is dependent iff it holds a circuit
        assert np.array_equal(kernels.fold(circuits, np.logical_or), m.table < pops), kind
        # r(S) is the size of S's largest independent subset, and the rank
        # of the least flat holding S
        assert np.array_equal(kernels.rank_table_from_independence(m.table == pops), m.table)
        least = np.where(flats, m.table, np.int8(127))
        assert np.array_equal(kernels.fold(least, np.minimum, supersets=True), m.table), kind


def test_whitney_counts():
    tbl = np.array([min(bin(m).count("1"), 2) for m in range(16)], dtype=np.int8)
    counts = kernels.whitney_counts(tbl, 4)
    # U_{2,4}: 1 empty (a=2,b=0), 4 singletons (1,0), 6 pairs (0,0),
    # 4 triples (0,1), 1 full (0,2)
    assert counts[2][0] == 1 and counts[1][0] == 4 and counts[0][0] == 6
    assert counts[0][1] == 4 and counts[0][2] == 1
