"""Tutte polynomial: oracle, decomposition DP, and the standard identities."""

import random
from fractions import Fraction
from math import comb

import pytest

from amwidth import tutte, zoo
from amwidth.matroid import Matroid
from amwidth.tutte import TuttePolynomial, _slots, tutte_bruteforce, tutte_decomposition
from amwidth.types_dp import JoinContext

import oracles


def poly_of(pairs):
    return dict(pairs)


def test_u24_polynomial(u24):
    assert oracles.coeffs(tutte_bruteforce(u24)) == {
        (2, 0): 1,
        (1, 0): 2,
        (0, 1): 2,
        (0, 2): 1,
    }


def test_k3_polynomial(k3):
    assert oracles.coeffs(tutte_bruteforce(k3)) == {(2, 0): 1, (1, 0): 1, (0, 1): 1}


def test_single_coloop():
    assert oracles.coeffs(tutte_bruteforce(Matroid.single(1))) == {(1, 0): 1}
    assert oracles.coeffs(tutte_bruteforce(Matroid.single(1, loop=True))) == {(0, 1): 1}


def test_empty_matroid():
    assert oracles.coeffs(tutte_bruteforce(Matroid.empty())) == {(0, 0): 1}


def test_whitney_and_standard_agree(fano):
    p = tutte_bruteforce(fano)
    # re-expand the whitney form by hand with Fractions
    x, y = Fraction(3), Fraction(7)
    via_whitney = sum(
        c * (x - 1) ** a * (y - 1) ** b for a, b, c in p.whitney
    )
    assert p.evaluate(3, 7) == via_whitney


def test_counting_identities(k3, u24, fano, k4):
    for m in (k3, u24, fano, k4):
        p = tutte_bruteforce(m)
        assert p.evaluate(1, 1) == oracles.count_bases(m)
        assert p.evaluate(2, 1) == oracles.count_independent(m)
        assert p.evaluate(1, 2) == oracles.count_spanning(m)
        assert p.evaluate(2, 2) == 2 ** m.size


def test_evaluate_exact_rationals(u24):
    p = tutte_bruteforce(u24)
    v = p.evaluate(Fraction(1, 2), Fraction(1, 3))
    assert v == Fraction(1, 4) + 2 * Fraction(1, 2) + 2 * Fraction(1, 3) + Fraction(1, 9)


def test_str_rendering(u24, k3):
    assert str(tutte_bruteforce(u24)) == "x^2 + 2*x + 2*y + y^2"
    assert str(tutte_bruteforce(k3)) == "x^2 + x + y"


def test_dp_twosum_c4():
    tree = zoo.triangle_chain(2)
    poly = tutte_decomposition(tree)
    assert oracles.coeffs(poly) == {(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1}
    assert poly == tutte_bruteforce(tree.realize())


def test_dp_matches_bruteforce_on_corpus(corpus_decompositions):
    for name, tree in corpus_decompositions.items():
        if len(tree.ground()) > 14:
            continue
        dp = tutte_decomposition(tree)
        brute = tutte_bruteforce(tree.realize())
        assert dp == brute, name


def test_dp_fano_conversion(corpus_dir, fano):
    from amwidth import files
    from amwidth.branch import from_branch_decomposition

    m = files.load_matroid(corpus_dir / "branch" / "fano-gf2.matroid.json")
    b = files.load_branch(corpus_dir / "branch" / "fano-gf2.branch.json")
    tree = from_branch_decomposition(m, b)
    poly = tutte_decomposition(tree)
    assert poly == tutte_bruteforce(fano)
    assert poly.evaluate(1, 1) == 28  # Fano has 28 bases out of 35 triples
    assert oracles.count_bases(fano) == 28


def _binomial_expansion(counts):
    """Standard-basis coefficients of a Whitney form, term by term."""
    coeffs = {}
    for (a, b), c in counts.items():
        for i in range(a + 1):
            for j in range(b + 1):
                term = c * comb(a, i) * comb(b, j) * (-1) ** (a - i + b - j)
                coeffs[(i, j)] = coeffs.get((i, j), 0) + term
    return {k: v for k, v in coeffs.items() if v}


def test_from_whitney_matches_binomial_expansion():
    rng = random.Random(6)
    cases = [{}, {(0, 0): 0}, {(3, 2): 0, (1, 0): -1}, {(0, 0): 5}, {(40, 1): 2**80}]
    for _ in range(200):
        cases.append(
            {
                (rng.randrange(10), rng.randrange(6)): rng.choice(
                    (0, rng.randint(-9, 9), rng.randrange(-(2**70), 2**70))
                )
                for _ in range(rng.randrange(12))
            }
        )
    for counts in cases:
        poly = TuttePolynomial.from_whitney(counts)
        assert oracles.coeffs(poly) == _binomial_expansion(counts), counts
        assert poly.whitney == tuple(sorted((a, b, c) for (a, b), c in counts.items() if c))


def _cycle_polynomial(n):
    """T(C_n) = x^(n-1) + ... + x + y."""
    want = {(i, 0): 1 for i in range(1, n)}
    want[(0, 1)] = 1
    return want


@pytest.mark.parametrize("n, pad", [(300, 0), (120, 4)])
def test_dp_long_chain_matches_cycle(n, pad):
    poly = tutte_decomposition(zoo.triangle_chain(n, pad=pad))
    assert oracles.coeffs(poly) == _cycle_polynomial(n + 2)
    assert max(c for _, _, c in poly.whitney) > 2**64


def _parallel_chain(n):
    """n copies of U(1,3) two-summed along a path; realizes U(1, n + 2)."""
    tb = zoo.TreeBuilder("q")
    top = tb.glue(
        tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), Matroid.uniform(1, [1, 2, 1000])
    )
    for i in range(1, n):
        glue_m = Matroid.uniform(1, [2 + i, 999 + i, 1000 + i])
        top = tb.glue(tb.leaf(Matroid.single(2 + i)), top, glue_m, {999 + i})
    return tb.done(top)


def test_dp_parallel_chain_matches_dual_cycle(monkeypatch):
    # U(1, n) is the dual of the n-cycle; joining two nonempty parallel sets
    # loses one rank, so the packed products shift right
    deltas = []
    original = JoinContext.extended_join

    def recording(ctx, e1, e2, fresh):
        result = original(ctx, e1, e2, fresh)
        deltas.append(result[1])
        return result

    monkeypatch.setattr(JoinContext, "extended_join", recording)
    poly = tutte_decomposition(_parallel_chain(150))
    assert oracles.coeffs(poly) == {(j, i): c for (i, j), c in _cycle_polynomial(152).items()}
    assert max(c for _, _, c in poly.whitney) > 2**64
    assert min(deltas) == -1


def _shifted_chain(n, offset, prefix):
    """triangle_chain(n) with every element id raised by ``offset``."""
    tree = zoo.triangle_chain(n)
    tb = zoo.TreeBuilder(prefix)
    made = {}
    for v in tree.postorder():
        node = tree.nodes[v]
        k = Matroid([e + offset for e in node.K.elements], node.K.table)
        if node.is_leaf:
            made[v] = tb.leaf(k)
        else:
            kids = (made[c] for c in node.children)
            made[v] = tb.glue(*kids, k, [e + offset for e in node.D])
    return tb.done(made[tree.root])


@pytest.mark.parametrize("sizes", [(3, 3), (4, 5), (6, 6)], ids=["3+3", "4+5", "6+6"])
def test_dp_direct_sum_of_chains_multiplies_long_rows(monkeypatch, sizes):
    # under the empty glue matroid both factors are whole chain tables,
    # whose rows span more than _FEW_SLOTS ranks
    long_pairs = []
    product = tutte._product

    def recording(p, q, width):
        long_pairs.append(min(p.bit_length(), q.bit_length()) > tutte._FEW_SLOTS * width)
        return product(p, q, width)

    monkeypatch.setattr(tutte, "_product", recording)
    a, b = sizes
    tree = zoo.direct_sum_tree([_shifted_chain(a, 0, "a"), _shifted_chain(b, 100, "b")])
    assert tutte_decomposition(tree) == tutte_bruteforce(tree.realize())
    assert sum(long_pairs) == 4


def test_dp_padded_chain_slots_fit_the_ground_set():
    # the deleted ids (one per glue matroid, plus the pad) outnumber the
    # realized elements, so a slot sized by every id would be twice as wide
    tree = zoo.triangle_chain(150, pad=8)
    prepared = tree.prepared()
    ids = set().union(*(node.K.ground_set for node in prepared.nodes.values()))
    ground = prepared.ground()
    assert len(ids - ground) > len(ground)
    poly, tables = tutte_decomposition(tree, want_tables=True)
    assert oracles.coeffs(poly) == _cycle_polynomial(152)
    assert max(c for _, _, c in poly.whitney) > 2**64
    assert tables[prepared.root].width == len(ground) + 1


def test_count_table_row_sums(corpus_decompositions):
    chains = [zoo.triangle_chain(3), zoo.triangle_chain(70), zoo.triangle_chain(9, pad=3)]
    for tree in chains + list(corpus_decompositions.values()):
        _, tables = tutte_decomposition(tree, want_tables=True)
        prepared = tree.prepared()
        assert set(tables) == set(prepared.nodes)
        for nid, table in tables.items():
            survivors = len(oracles.ground(prepared, nid))
            total = sum(sum(table.counts(sig).values()) for sig in table.by_sig)
            assert total == 2**survivors, nid


def test_dp_on_padded_chain():
    tree = zoo.triangle_chain(4, pad=3)
    assert tutte_decomposition(tree) == tutte_bruteforce(tree.realize())


def test_dp_scales_past_bruteforce():
    tree = zoo.triangle_chain(40)
    poly = tutte_decomposition(tree)
    n = 42  # realized cycle length
    assert oracles.coeffs(poly) == _cycle_polynomial(n)
    assert poly.evaluate(1, 1) == n


def _slots_by_shifting(packed, width):
    """The unpacking ``_slots`` replaced: one shift of the rest per slot."""
    mask = (1 << width) - 1
    out = {}
    r = 0
    while packed:
        c = packed & mask
        if c:
            out[r] = c
        packed >>= width
        r += 1
    return out


def test_slots_match_shift_loop():
    rng = random.Random(11)
    rows = [(0, 5), (1, 5), (31, 5), (1 << 5, 5), (3 << 70, 70)]
    for width in (1, 2, 7, 64, 65, 130):
        for n in (1, 2, 9, 40):
            counts = [rng.choice([0, 1, rng.getrandbits(width)]) for _ in range(n)]
            counts[-1] = counts[-1] or 1
            rows.append((sum(c << width * r for r, c in enumerate(counts)), width))
    assert any(c > 2**64 for p, w in rows for c in _slots(p, w).values())
    for packed, width in rows:
        assert _slots(packed, width) == _slots_by_shifting(packed, width), (packed, width)
    assert _slots(0, 3) == {}
    assert _slots(6, 3) == {0: 6}
