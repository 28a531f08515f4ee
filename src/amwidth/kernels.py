"""Subset-lattice kernels shared by every brute-force path in the package.

All matroid computations here reduce to dense tables indexed by subset
bitmask over a ground set of at most ~20 elements.  The inner loops walk
2^n (or 2^n * n^2) cells, which dominates runtime, so each kernel has two
implementations:

* a numba ``@njit`` version (default), and
* a pure-numpy fallback, selected by setting ``AMWIDTH_DISABLE_NUMBA=1``
  in the environment (also used automatically when numba is missing).

Both variants of every kernel are importable (``py_kernels`` /
``nb_kernels``) so the tests can compare them; the module-level names
dispatch to the active variant.
Rank tables are ``int8`` arrays of length ``2**n``; subset masks use the
ground-set position order of the owning matroid.
"""

import os
from types import SimpleNamespace

import numpy as np

DISABLE_ENV = "AMWIDTH_DISABLE_NUMBA"

_disabled = os.environ.get(DISABLE_ENV, "").strip().lower() in ("1", "true", "yes")

try:
    from numba import njit

    _have_numba = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _have_numba = False

USING_NUMBA = _have_numba and not _disabled


def popcounts(n):
    """Vector of popcount(m) for every mask m < 2**n, dtype int8."""
    out = np.zeros(1 << n, dtype=np.int8)
    for b in range(n):
        half = 1 << b
        out[half : 2 * half] = out[:half] + 1
    return out


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def _inverse_table(p):
    inv = np.zeros(p, dtype=np.int8)
    for v in range(1, p):
        for q in range(1, p):
            if (v * q) % p == 1:
                inv[v] = q
                break
    return inv


def _py_gf_rank_table(cols, p):
    """Rank of every column subset over GF(p), batched Gaussian elimination."""
    cols = np.asarray(cols, dtype=np.int8) % p
    d, n = cols.shape
    total = 1 << n
    out = np.zeros(total, dtype=np.int8)
    if d == 0 or n == 0:
        return out
    inv = _inverse_table(p)
    chunk = 1 << 14
    bits = np.arange(n)
    rows_idx = np.arange(d)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        sel = ((masks[:, None] >> bits) & 1).astype(np.int8)
        a = cols[None, :, :] * sel[:, None, :]  # (m, d, n)
        row = np.zeros(masks.size, dtype=np.int64)
        for j in range(n):
            colj = a[:, :, j]
            cand = (colj != 0) & (rows_idx[None, :] >= row[:, None])
            has = cand.any(axis=1)
            act = np.nonzero(has)[0]
            if act.size == 0:
                continue
            piv = np.argmax(cand[act], axis=1)
            r0 = row[act]
            tmp = a[act, r0, :].copy()
            a[act, r0, :] = a[act, piv, :]
            a[act, piv, :] = tmp
            pv = a[act, r0, j]
            a[act, r0, :] = (a[act, r0, :] * inv[pv][:, None]) % p
            factors = a[act, :, j].copy()
            factors[np.arange(act.size), r0] = 0
            a[act] = (a[act] - factors[:, :, None] * a[act, r0, None, :]) % p
            row[act] += 1
        out[masks] = row.astype(np.int8)
    return out


def _py_graphic_rank_table(eu, ev, nv):
    """Rank of every edge subset: touched vertices minus components."""
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    n = eu.size
    out = np.zeros(1 << n, dtype=np.int8)
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in range(1, 1 << n):
        for v in range(nv):
            parent[v] = v
        rank = 0
        mm = m
        while mm:
            j = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            ra, rb = find(eu[j]), find(ev[j])
            if ra != rb:
                parent[ra] = rb
                rank += 1
        out[m] = rank
    return out


def _py_rank_table_from_independence(ind):
    """Rank table from an independence indicator: max independent submask size."""
    ind = np.asarray(ind, dtype=bool)
    n = (ind.size - 1).bit_length()
    base = np.where(ind, popcounts(n), 0).astype(np.int8)
    for b in range(n):
        bit = 1 << b
        masks = np.nonzero(np.arange(ind.size, dtype=np.int64) & bit)[0]
        base[masks] = np.maximum(base[masks], base[masks ^ bit])
    return base


def _py_closure_table(tbl, n):
    """Closure bitmask of every subset: cl(S) = {x : r(S+x) = r(S)}."""
    tbl = np.asarray(tbl)
    masks = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for x in range(n):
        bit = np.int64(1 << x)
        out |= (tbl[masks | bit] == tbl).astype(np.int64) << x
    return out


def _py_superset_min(vals, n):
    """min over supersets, in the zeta-transform sense."""
    out = np.array(vals, dtype=np.int64, copy=True)
    for b in range(n):
        bit = 1 << b
        lo = np.nonzero(~(np.arange(out.size, dtype=np.int64) & bit).astype(bool))[0]
        out[lo] = np.minimum(out[lo], out[lo | bit])
    return out


def _py_subset_any(flags, n):
    """out[m] = OR of flags[s] over submasks s of m."""
    out = np.array(flags, dtype=bool, copy=True)
    for b in range(n):
        bit = 1 << b
        hi = np.nonzero((np.arange(out.size, dtype=np.int64) & bit).astype(bool))[0]
        out[hi] |= out[hi ^ bit]
    return out


def _py_check_rank_axioms(tbl, n):
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


def _py_translate_all_masks(n, bitmap):
    """out[m] = mask with bit bitmap[b] set for every b in m with bitmap[b] >= 0."""
    bitmap = np.asarray(bitmap, dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        if bitmap[b] >= 0:
            out |= ((masks >> b) & 1) << bitmap[b]
    return out


def _py_whitney_counts(tbl, n):
    """counts[a, b] = #subsets with r(E)-r(F) = a and |F|-r(F) = b."""
    tbl = np.asarray(tbl).astype(np.int64)
    rk = int(tbl[-1]) if tbl.size else 0
    pops = popcounts(n).astype(np.int64)
    a = rk - tbl
    b = pops - tbl
    flat = a * (n + 1) + b
    counts = np.bincount(flat, minlength=(rk + 1) * (n + 1))
    return counts.reshape(rk + 1, n + 1)


py_kernels = SimpleNamespace(
    gf_rank_table=_py_gf_rank_table,
    graphic_rank_table=_py_graphic_rank_table,
    rank_table_from_independence=_py_rank_table_from_independence,
    closure_table=_py_closure_table,
    superset_min=_py_superset_min,
    subset_any=_py_subset_any,
    check_rank_axioms=_py_check_rank_axioms,
    translate_all_masks=_py_translate_all_masks,
    whitney_counts=_py_whitney_counts,
)


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if _have_numba:

    @njit(cache=True)
    def _nb_gf_rank_table(cols, p):
        d, n = cols.shape
        total = 1 << n
        out = np.zeros(total, dtype=np.int8)
        if d == 0 or n == 0:
            return out
        scratch = np.zeros((d, n), dtype=np.int64)
        for m in range(1, total):
            low = m & (-m)
            prev = out[m ^ low]
            if prev == d:
                out[m] = d
                continue
            k = 0
            for j in range(n):
                if (m >> j) & 1:
                    for i in range(d):
                        scratch[i, k] = cols[i, j] % p
                    k += 1
            r = 0
            for c in range(k):
                if r == d:
                    break
                piv = -1
                for i in range(r, d):
                    if scratch[i, c] != 0:
                        piv = i
                        break
                if piv < 0:
                    continue
                if piv != r:
                    for j2 in range(c, k):
                        t = scratch[r, j2]
                        scratch[r, j2] = scratch[piv, j2]
                        scratch[piv, j2] = t
                inv = 1
                for q in range(1, p):
                    if (scratch[r, c] * q) % p == 1:
                        inv = q
                        break
                for j2 in range(c, k):
                    scratch[r, j2] = (scratch[r, j2] * inv) % p
                for i in range(r + 1, d):
                    f = scratch[i, c]
                    if f != 0:
                        for j2 in range(c, k):
                            scratch[i, j2] = (scratch[i, j2] - f * scratch[r, j2]) % p
                r += 1
            out[m] = r
        return out

    @njit(cache=True)
    def _nb_graphic_rank_table(eu, ev, nv):
        n = eu.size
        out = np.zeros(1 << n, dtype=np.int8)
        parent = np.zeros(nv, dtype=np.int64)
        for m in range(1, 1 << n):
            for v in range(nv):
                parent[v] = v
            rank = 0
            mm = m
            while mm:
                j = 0
                t = mm & (-mm)
                while t > 1:
                    t >>= 1
                    j += 1
                mm &= mm - 1
                a = eu[j]
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                b = ev[j]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a != b:
                    parent[a] = b
                    rank += 1
            out[m] = rank
        return out

    @njit(cache=True)
    def _nb_rank_table_from_independence(ind):
        size = ind.size
        n = 0
        while (1 << n) < size:
            n += 1
        out = np.zeros(size, dtype=np.int8)
        for m in range(size):
            if ind[m]:
                c = 0
                mm = m
                while mm:
                    mm &= mm - 1
                    c += 1
                out[m] = c
            else:
                best = 0
                mm = m
                while mm:
                    b = mm & (-mm)
                    mm ^= b
                    v = out[m ^ b]
                    if v > best:
                        best = v
                out[m] = best
        return out

    @njit(cache=True)
    def _nb_closure_table(tbl, n):
        total = 1 << n
        out = np.zeros(total, dtype=np.int64)
        for m in range(total):
            cl = 0
            for x in range(n):
                if tbl[m | (1 << x)] == tbl[m]:
                    cl |= 1 << x
            out[m] = cl
        return out

    @njit(cache=True)
    def _nb_superset_min(vals, n):
        out = vals.astype(np.int64)
        for b in range(n):
            bit = 1 << b
            for m in range(out.size):
                if not (m & bit):
                    v = out[m | bit]
                    if v < out[m]:
                        out[m] = v
        return out

    @njit(cache=True)
    def _nb_subset_any(flags, n):
        out = flags.copy()
        for b in range(n):
            bit = 1 << b
            for m in range(out.size):
                if m & bit and out[m ^ bit]:
                    out[m] = True
        return out

    @njit(cache=True)
    def _nb_check_rank_axioms(tbl, n):
        if tbl[0] != 0:
            return 1, 0, 0
        total = 1 << n
        for m in range(total):
            for x in range(n):
                bit = 1 << x
                if not (m & bit):
                    delta = tbl[m | bit] - tbl[m]
                    if delta < 0 or delta > 1:
                        return 2, m, m | bit
        for m in range(total):
            for x in range(n):
                bx = 1 << x
                if m & bx:
                    continue
                for y in range(x + 1, n):
                    by = 1 << y
                    if m & by:
                        continue
                    if tbl[m | bx] + tbl[m | by] < tbl[m | bx | by] + tbl[m]:
                        return 3, m | bx, m | by
        return 0, 0, 0

    @njit(cache=True)
    def _nb_translate_all_masks(n, bitmap):
        total = 1 << n
        out = np.zeros(total, dtype=np.int64)
        for m in range(total):
            t = 0
            mm = m
            while mm:
                b = 0
                v = mm & (-mm)
                while v > 1:
                    v >>= 1
                    b += 1
                mm &= mm - 1
                if bitmap[b] >= 0:
                    t |= 1 << bitmap[b]
            out[m] = t
        return out

    @njit(cache=True)
    def _nb_whitney_counts(tbl, n):
        total = 1 << n
        rk = tbl[total - 1]
        counts = np.zeros((rk + 1) * (n + 1), dtype=np.int64)
        for m in range(total):
            c = 0
            mm = m
            while mm:
                mm &= mm - 1
                c += 1
            counts[(rk - tbl[m]) * (n + 1) + (c - tbl[m])] += 1
        return counts.reshape(rk + 1, n + 1)

    def _nb_gf_rank_table_entry(cols, p):
        return _nb_gf_rank_table(np.asarray(cols, dtype=np.int64), p)

    def _nb_graphic_rank_table_entry(eu, ev, nv):
        return _nb_graphic_rank_table(
            np.asarray(eu, dtype=np.int64), np.asarray(ev, dtype=np.int64), nv
        )

    def _nb_rank_table_from_independence_entry(ind):
        return _nb_rank_table_from_independence(np.asarray(ind, dtype=np.bool_))

    def _nb_closure_table_entry(tbl, n):
        return _nb_closure_table(np.asarray(tbl, dtype=np.int8), n)

    def _nb_superset_min_entry(vals, n):
        return _nb_superset_min(np.asarray(vals, dtype=np.int64), n)

    def _nb_subset_any_entry(flags, n):
        return _nb_subset_any(np.asarray(flags, dtype=np.bool_), n)

    def _nb_check_rank_axioms_entry(tbl, n):
        return _nb_check_rank_axioms(np.asarray(tbl, dtype=np.int8), n)

    def _nb_translate_all_masks_entry(n, bitmap):
        return _nb_translate_all_masks(n, np.asarray(bitmap, dtype=np.int64))

    def _nb_whitney_counts_entry(tbl, n):
        return _nb_whitney_counts(np.asarray(tbl, dtype=np.int8), n)

    nb_kernels = SimpleNamespace(
        gf_rank_table=_nb_gf_rank_table_entry,
        graphic_rank_table=_nb_graphic_rank_table_entry,
        rank_table_from_independence=_nb_rank_table_from_independence_entry,
        closure_table=_nb_closure_table_entry,
        superset_min=_nb_superset_min_entry,
        subset_any=_nb_subset_any_entry,
        check_rank_axioms=_nb_check_rank_axioms_entry,
        translate_all_masks=_nb_translate_all_masks_entry,
        whitney_counts=_nb_whitney_counts_entry,
    )
else:  # pragma: no cover
    nb_kernels = None

_active = nb_kernels if USING_NUMBA else py_kernels

gf_rank_table = _active.gf_rank_table
graphic_rank_table = _active.graphic_rank_table
rank_table_from_independence = _active.rank_table_from_independence
closure_table = _active.closure_table
superset_min = _active.superset_min
subset_any = _active.subset_any
check_rank_axioms = _active.check_rank_axioms
translate_all_masks = _active.translate_all_masks
whitney_counts = _active.whitney_counts
