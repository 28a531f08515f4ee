"""Subset-lattice kernels shared by every brute-force path in the package.

All matroid computations here reduce to dense tables indexed by subset
bitmask over a ground set of at most ~20 elements.  Rank tables are
``int8`` arrays of length ``2**n``; subset masks use the ground-set
position order of the owning matroid.  Every kernel is a short sequence
of whole-array numpy operations: no Python loop runs over the 2^n
subsets.

Rank tables come from counting codewords.  A rank-k matroid represented
over GF(p) (a graph's cycle matroid over GF(2)) has a code C: the row
space of k independent rows, such as the cut space of a graph, spanned
by the incidence rows of all vertices but one per component.  The words
of C that vanish on S form a subspace of dimension k - r(S) (Greene,
"Weight enumeration and the geometry of linear codes", Stud. Appl. Math.
55, 1976), so ``_count_ranks`` bincounts the zero sets of all p^k words,
sums the histogram over supersets with one ``fold``, and reads
r(S) = k - log_p(count[S]) from a table indexed by count.  No Python
loop runs over the subsets, and no subset is eliminated on its own.

* ``graphic_rank_table`` picks its basis rows by union-find and
  enumerates the 2^k words by doubling.
* ``gf_rank_table`` reduces the columns to r independent rows and counts
  the smaller of the code and its dual, the null space of dimension
  n - r, as long as that one has at most 2^n words; from the dual,
  r(S) = r*(E - S) + |S| - (n - r).  That covers GF(2) and GF(3) at every
  rank.  Over GF(5) and GF(7) at near-balanced rank both codes are
  larger than the table, and counting them would cost more than the
  layered builder ``_gf_layers``: the masks whose highest element is i
  are the masks below 2^i with element i added, so each rank is the
  rank one layer down plus one if v_i is independent of that mask's
  basis, kept reduced as uint8 rows: O(2^n r^2) byte work in O(n) numpy
  calls.  Its bases take 2^(n-1) r^2 bytes; when twice that would
  exceed ``GF_BASIS_BUDGET`` the table is split on its top element into
  the deletion (same rank) and the contraction (rank one lower), each
  built again by whichever method fits it.

Two helpers carry every other subset-mask operation of the package:

* ``MaskMap(n, pos)`` translates masks between a ground set of n
  positions and a sub-order of them (bit i of a sub-mask is position
  pos[i]).  ``scatter`` maps each sub-mask to its whole-set mask, so
  ``tbl[MaskMap(n, pos).scatter]`` is the rank table of the restriction
  in sub-order; ``gather`` maps each whole-set mask to the sub-mask of
  the bits the sub-order holds.  ``translate_all_masks`` builds each
  once, by doubling, in O(2^n) work; no other code of the package
  builds such a table.
* ``fold(vals, op)`` is the zeta transform over the subset lattice
  (Yates' algorithm, as in Björklund-Husfeldt-Kaski-Koivisto, "Fourier
  meets Möbius: fast subset convolution", STOC 2007): in place, one
  pass per bit, it leaves op over all submasks (or supersets) of each
  mask.  Subset sums, superset minima, down-closures and the
  independence-to-rank step are all folds.

Every pass per bit b, in ``fold`` and in the two indicators below, goes
through ``_halves(vals, b)``: the masks without bit b and with it, as two
views that line up mask for mask.  It is the one place that orients
them: a view whose blocks hold a few masks runs one short numpy loop per
block, so on a long table the passes for bits 1 and 2, and bit 3 of a
one-byte table, walk the transposed views instead (at 2^16 entries that
cuts a bit-1 pass from about 200 to 20 µs).  ``circuit_indicator`` and
``flat_indicator`` read a rank table in one boolean pass per bit
(Oxley, "Matroid Theory", 1.1 and 1.4): S is a circuit iff it is
dependent and every S - x is independent, and a flat iff r(S + x) > r(S)
for every x outside S.  Neither builds the closure table
(``closure_table``, n gathers over 2^n entries), which is left to the
readers of closures: ``JoinContext``, ``glue`` and ``Matroid.closure``.
"""

import numpy as np

from .linalg import inverse_mod, reduced_nullspace, row_basis

# bytes of reduced bases (and as much again of temporaries) that one
# layered GF(p) pass may hold before the table is split on its top element
GF_BASIS_BUDGET = 1 << 22

# table length from which ``_halves`` transposes the short-block passes
_LONG_FOLD = 1 << 10


def popcounts(n):
    """Vector of popcount(m) for every mask m < 2**n, dtype int8."""
    out = np.zeros(1 << n, dtype=np.int8)
    for b in range(n):
        half = 1 << b
        out[half : 2 * half] = out[:half] + 1
    return out


def gf_rank_table(cols, p):
    """Rank over GF(p) of every subset of the columns of a (d, n) matrix."""
    return _gf_rank_table(np.asarray(cols, dtype=np.int64) % p, p)


def _gf_rank_table(cols, p):
    n = cols.shape[1]
    rows = row_basis(cols, p)
    r = len(rows)
    if r in (0, n):  # no circuit, or only loops
        return popcounts(n) if r else np.zeros(1 << n, dtype=np.int8)
    basis = np.array(rows, dtype=np.int64)
    if p ** min(r, n - r) <= 1 << n:
        if 2 * r <= n:
            return _count_ranks(_zero_sets(basis, p), r, p, n)
        # the dual code is the smaller: r(S) = r*(E - S) + |S| - r*(E)
        code = np.array(reduced_nullspace(rows, p, n), dtype=np.int64)
        dual = _count_ranks(_zero_sets(code, p), n - r, p, n)
        return dual[::-1] + popcounts(n) - (n - r)
    if (1 << n) * r * r <= GF_BASIS_BUDGET:
        return _gf_layers(basis.T.astype(np.uint8), p)
    # split on the top element t: r(S + t) = r(S) for a loop t, and
    # r_{M/t}(S) + 1 otherwise, where M/t is taken modulo t's coordinate c
    top = basis[:, -1]
    rest = basis[:, :-1]
    lower = _gf_rank_table(rest, p)
    if not top.any():
        return np.concatenate((lower, lower))
    c = int(np.flatnonzero(top)[0])
    quotient = (rest - np.outer(top * inverse_mod(int(top[c]), p), rest[c])) % p
    upper = _gf_rank_table(np.delete(quotient, c, axis=0), p) + 1
    return np.concatenate((lower, upper))


def _gf_layers(vecs, p):
    """Rank table of the rows of an (n, r) uint8 matrix of rank r >= 1."""
    n, r = vecs.shape
    # inv[v] = 1/v mod p, and inv[0] = 0 so that zero vectors stay zero
    inv = np.array([0] + [inverse_mod(v, p) for v in range(1, p)], dtype=np.uint8)
    out = np.zeros(1 << n, dtype=np.int8)
    # bases[m, c] is the basis vector of mask m whose pivot is coordinate c
    # (entry 1 there, 0 at every other pivot), or zero if c is no pivot
    bases = np.zeros((1 << (n - 1), r, r), dtype=np.uint8)
    rows = np.arange(1 << (n - 1))
    for i, v in enumerate(vecs):
        lo = 1 << i
        cur = bases[:lo]
        # v minus its coordinates at each pivot times that pivot's vector;
        # int16 because the sums reach r (p - 1)^2
        w = (v - np.matmul(v.astype(np.int16), cur)) % p
        piv = (w != 0).argmax(axis=1)
        lead = w[rows[:lo], piv]
        out[lo : 2 * lo] = out[:lo] + (lead != 0)
        if i == n - 1:
            break
        # scale w to lead 1 (dependent masks have w = 0), clear its pivot
        # coordinate from the other basis vectors (adding p - coef keeps
        # uint8 nonnegative), and fill the empty slot
        w = (w * inv[lead][:, None] % p).astype(np.uint8)
        coef = cur[rows[:lo], :, piv]
        nxt = bases[lo : 2 * lo]
        np.remainder(cur + (p - coef)[:, :, None] * w[:, None, :], p, out=nxt)
        nxt[rows[:lo], piv] += w
    return out


def graphic_rank_table(eu, ev, nv):
    """Rank of every edge subset of a multigraph on vertices 0..nv-1."""
    eu = np.asarray(eu, dtype=np.int64).tolist()
    ev = np.asarray(ev, dtype=np.int64).tolist()
    n = len(eu)
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # incident-edge mask per vertex; a loop toggles its bit twice
    inc = [0] * nv
    for j, (a, b) in enumerate(zip(eu, ev)):
        inc[a] ^= 1 << j
        inc[b] ^= 1 << j
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    # the incidence rows of all vertices but one per component are a basis
    # of the cut space, the code of the cycle matroid over GF(2)
    rows = [inc[v] for v in range(nv) if find(v) != v]
    return _count_ranks(_binary_zero_sets(rows, n), len(rows), 2, n)


def _count_ranks(zero_sets, k, p, n):
    """Rank table from the zero-set masks of all p^k words of a k-dim code.

    The words vanishing on S form a subspace of dimension k - r(S), where
    r is the rank of the code's columns: the histogram of the zero sets,
    summed over supersets, is p^(k - r(S)) at every S.
    """
    # the counts are at most p^k <= 2^n, within uint32 for any table in memory
    counts = np.bincount(zero_sets, minlength=1 << n).astype(np.uint32)
    fold(counts, np.add, supersets=True)
    rank_of = np.zeros(p**k + 1, dtype=np.int8)
    for j in range(k):
        rank_of[p**j] = k - j
    return rank_of[counts]


def _zero_sets(rows, p):
    """Zero-set mask of each of the p^k combinations of k rows, int64."""
    n = rows.shape[1]
    if p == 2:
        return _binary_zero_sets(rows @ (1 << np.arange(n)), n)
    # a - b vanishes where a = b, and as a and b run over the words of the
    # first rows (fewer than 2^14) and of the others, a - b runs over all
    # words: each b is compared with every a at once
    head = 14 // p.bit_length()
    heads = _codewords(rows[:head], p)
    tails = _codewords(rows[head:], p)
    out = np.zeros((len(tails), len(heads), 8), dtype=np.uint8)
    for block, b in zip(out, tails):
        block[:, : (n + 7) // 8] = np.packbits(heads == b, axis=1, bitorder="little")
    return out.view("<i8").ravel()


def _binary_zero_sets(supports, n):
    """Zero-set mask of each sum of rows over GF(2), from the rows' supports."""
    words = np.empty(1 << len(supports), dtype=np.int64)
    words[0] = (1 << n) - 1
    # adding a row flips the zero set on the row's support
    for i, m in enumerate(supports):
        words[1 << i : 2 << i] = words[: 1 << i] ^ m
    return words


def _codewords(rows, p):
    """Every combination of the rows over GF(p), as a (p^k, n) uint8 matrix."""
    words = np.zeros((1, rows.shape[1]), dtype=np.uint8)
    for row in rows:
        multiples = (np.arange(p)[:, None] * row % p).astype(np.uint8)
        words = ((multiples[:, None, :] + words) % p).reshape(-1, rows.shape[1])
    return words


def rank_table_from_independence(ind):
    """Rank table from an independence indicator: max independent submask size."""
    ind = np.asarray(ind, dtype=bool)
    n = ind.size.bit_length() - 1
    return fold(np.where(ind, popcounts(n), 0).astype(np.int8), np.maximum)


def closure_table(tbl, n):
    """Closure bitmask of every subset: cl(S) = {x : r(S+x) = r(S)}."""
    tbl = np.asarray(tbl)
    masks = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for x in range(n):
        bit = np.int64(1 << x)
        out |= (tbl[masks | bit] == tbl).astype(np.int64) << x
    return out


def _halves(vals, b):
    """(lo, hi, order): the entries of the masks without bit b and with
    it, as two views of the contiguous table ``vals`` of length 2**n that
    line up mask for mask, and the ``order`` to pass to a ufunc on them.

    The plain views are pairs of blocks of 2**b masks, and numpy runs one
    inner loop per block.  On a long table the passes with blocks of two
    or four masks, and of eight one-byte masks, go down the transposed
    views in C order instead: one strided inner loop per position in the
    block.  Two tables of one item size get one orientation.
    """
    halves = vals.reshape(-1, 2, 1 << b)
    lo, hi = halves[:, 0], halves[:, 1]
    if vals.size >= _LONG_FOLD and (b in (1, 2) or b == 3 and vals.itemsize == 1):
        return lo.T, hi.T, "C"
    return lo, hi, "K"


def fold(vals, op, supersets=False):
    """vals[m] := op over vals[s] for every submask s of m, in place.

    With ``supersets`` the fold runs over the supersets of m instead.
    ``vals`` is a contiguous array of length 2**n and ``op`` a binary
    numpy ufunc such as ``np.add`` or ``np.minimum``: one pass per bit
    over the ``_halves`` of vals.
    """
    for b in range(vals.size.bit_length() - 1):
        lo, hi, order = _halves(vals, b)
        if supersets:
            op(lo, hi, out=lo, order=order)
        else:
            op(hi, lo, out=hi, order=order)
    return vals


def circuit_indicator(tbl, n):
    """Boolean table of the circuits of the rank table ``tbl`` over n
    elements: S is a circuit iff S is dependent and every S - x is
    independent, one pass per bit."""
    ind = np.asarray(tbl) == popcounts(n)
    out = ~ind
    for b in range(n):
        ind_lo = _halves(ind, b)[0]
        _, out_hi, order = _halves(out, b)
        np.logical_and(out_hi, ind_lo, out=out_hi, order=order)
    return out


def flat_indicator(tbl, n):
    """Boolean table of the flats of the int8 rank table ``tbl`` over n
    elements: S is a flat iff r(S + x) > r(S) for every x not in S, one
    pass per bit."""
    tbl = np.asarray(tbl)
    out = np.ones(1 << n, dtype=bool)
    for b in range(n):
        lo, hi, order = _halves(tbl, b)
        out_lo = _halves(out, b)[0]
        np.logical_and(out_lo, np.less(lo, hi, order=order), out=out_lo, order=order)
    return out


# no CLI path reaches this but zeta's: benchmarks/tracing.py patches it (ROADMAP item 8)
def superset_min(vals):
    """min over supersets, in the zeta-transform sense."""
    return fold(np.array(vals, dtype=np.int64, copy=True), np.minimum, supersets=True)


# no CLI path calls this: benchmarks/tracing.py patches it (ROADMAP item 8)
def subset_any(flags):
    """out[m] = OR of flags[s] over submasks s of m."""
    return fold(np.array(flags, dtype=bool, copy=True), np.logical_or)


def check_rank_axioms(tbl, n):
    """First rank-axiom violation, or (0, 0, 0).

    Codes: 1 r(empty) != 0; 2 unit-increase/monotonicity broken between the
    returned pair; 3 submodularity broken for the returned pair.
    """
    tbl = np.asarray(tbl)
    if tbl[0] != 0:
        return 1, 0, 0
    masks = np.arange(1 << n, dtype=np.int64)
    for x in range(n):
        bit = np.int64(1 << x)
        lo = masks[(masks & bit) == 0]
        delta = tbl[lo | bit].astype(np.int16) - tbl[lo].astype(np.int16)
        bad = np.nonzero((delta < 0) | (delta > 1))[0]
        if bad.size:
            m = int(lo[bad[0]])
            return 2, m, m | int(bit)
    for x in range(n):
        bx = np.int64(1 << x)
        for y in range(x + 1, n):
            by = np.int64(1 << y)
            lo = masks[(masks & (bx | by)) == 0]
            lhs = tbl[lo | bx].astype(np.int16) + tbl[lo | by].astype(np.int16)
            rhs = tbl[lo | bx | by].astype(np.int16) + tbl[lo].astype(np.int16)
            bad = np.nonzero(lhs < rhs)[0]
            if bad.size:
                m = int(lo[bad[0]])
                return 3, m | int(bx), m | int(by)
    return 0, 0, 0


def translate_all_masks(n, bitmap):
    """out[m] = mask with bit bitmap[b] set for every b in m with bitmap[b] >= 0.

    By doubling: out[2^b : 2^(b+1)] is out[:2^b] with that bit set, or a
    copy of it if none; out is all zeros below the first bit set, so no
    copy is made there."""
    out = np.zeros(1 << n, dtype=np.int64)
    zeros = True
    for b in range(n):
        t = bitmap[b]
        if t >= 0:
            np.bitwise_or(out[: 1 << b], 1 << t, out=out[1 << b : 2 << b])
            zeros = False
        elif not zeros:
            out[1 << b : 2 << b] = out[: 1 << b]
    return out


class MaskMap:
    """A sub-order of the n positions of a ground set: bit i of a
    sub-mask is the whole-set position pos[i].

    ``scatter[s]`` is the whole-set mask of sub-mask s; positions may
    repeat (parallel twins), so two bits can set one position.
    ``gather[m]`` is the sub-mask of the bits the sub-order holds in the
    whole-set mask m, for distinct positions.  ``mask`` is the union of
    the positions.  Both tables are int64 arrays, each built once, on
    first access (not by ``functools.cached_property``, which before
    Python 3.12 takes a lock that costs more than building a small table).
    """

    def __init__(self, n, pos):
        self.n = n
        self.pos = [int(p) for p in pos]
        self.mask = 0
        for p in self.pos:
            self.mask |= 1 << p
        self._scatter = self._gather = None

    @property
    def scatter(self):
        if self._scatter is None:
            self._scatter = translate_all_masks(len(self.pos), self.pos)
        return self._scatter

    @property
    def gather(self):
        if self._gather is None:
            bitmap = [-1] * self.n
            for i, p in enumerate(self.pos):
                bitmap[p] = i
            self._gather = translate_all_masks(self.n, bitmap)
        return self._gather


def whitney_counts(tbl, n):
    """counts[a, b] = #subsets with r(E)-r(F) = a and |F|-r(F) = b."""
    tbl = np.asarray(tbl).astype(np.int64)
    rk = int(tbl[-1]) if tbl.size else 0
    pops = popcounts(n).astype(np.int64)
    a = rk - tbl
    b = pops - tbl
    flat = a * (n + 1) + b
    counts = np.bincount(flat, minlength=(rk + 1) * (n + 1))
    return counts.reshape(rk + 1, n + 1)


