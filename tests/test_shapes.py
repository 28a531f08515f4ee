"""Nodes of one shape share a join context, memos and validation verdicts.

A node's shape is its glue matroid's rank table with the K-positions of
J1, J2, the parent boundary and D.  Trees that repeat shapes, or nearly
repeat them (same table, other positions or deletions), are checked
against closed forms, brute force and naive MSO, so a shape key that
forgot one of its parts would give wrong answers here.
"""

import random
from itertools import permutations

import pytest

from amwidth import kernels, zoo
from amwidth.config import NAIVE_MSO_CAP
from amwidth.matroid import Matroid
from amwidth.mso.compiled import eval_decomposition
from amwidth.mso.naive import eval_naive
from amwidth.mso.parser import parse
from amwidth.tutte import tutte_bruteforce, tutte_decomposition
from amwidth.types_dp import JoinContext

import oracles
from test_mso_compiled import _assignment, _split_by_children
from test_tutte import _cycle_polynomial, _parallel_chain

MSO_FORMULAS = (
    "closure-extension",
    "connected-closure",
    "hamiltonian",
    "is-circuit",
    "spanning-indep",
)

_EDGES = ((0, 1), (1, 2), (0, 2))


def _triangle(ids, order):
    return Matroid.from_graph({ids[j]: _EDGES[j] for j in order})


def _chain(n, order=lambda i: (0, 1, 2), keep=()):
    """``zoo.triangle_chain(n)``'s tree, with glue triangle i listing its
    edges in ``order(i)`` and keeping its basepoint p(i) when i is in
    ``keep`` (a parallel connection there instead of a 2-sum)."""
    p = lambda i: 1000 + i
    c = lambda i: 2 * i
    d = lambda i: 2 * i + 1
    tb = zoo.TreeBuilder()
    top = tb.glue(
        tb.leaf(Matroid.single(c(n))),
        tb.leaf(Matroid.single(d(n))),
        _triangle([p(n - 1), c(n), d(n)], order(n)),
    )
    for i in range(n - 1, 0, -1):
        up = p(i - 1) if i > 1 else d(0)
        glue_m = _triangle([up, c(i), p(i)], order(i))
        deletions = () if i in keep else {p(i)}
        top = tb.glue(tb.leaf(Matroid.single(c(i))), top, glue_m, deletions)
    return tb.done(top)


def _rotating(i):
    return list(permutations(range(3)))[i % 6]


def _shapes(tree):
    prepared = tree.prepared()
    out = []
    for v in prepared.postorder():
        node = prepared.nodes[v]
        if not node.is_leaf:
            boundary = prepared.boundary(v)
            out.append(oracles.node_shape(node.K, node.J1, node.J2, boundary, node.D))
    return out


def _assert_compiled_matches_naive(tree, corpus_formulas, seed):
    m = tree.realize()
    assert m.size <= NAIVE_MSO_CAP
    ground = sorted(m.ground_set)
    rng = random.Random(seed)
    for label in MSO_FORMULAS:
        formula = parse(corpus_formulas[label])
        assignment = _assignment(formula, ground, rng)
        want = eval_naive(m, formula, assignment)
        assert eval_decomposition(tree, formula, assignment) == want, (label, assignment)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
def test_padded_chain_at_each_position(n, corpus_formulas):
    # the padded glue matroid sits n // 2 levels below the root (the root
    # itself for n <= 3), among triangles of one repeated shape
    tree = zoo.triangle_chain(n, pad=2)
    assert oracles.coeffs(tutte_decomposition(tree)) == _cycle_polynomial(n + 2)
    _assert_compiled_matches_naive(tree, corpus_formulas, n)


def test_reordered_chain(corpus_formulas):
    # equal triangle tables whose J1, J2, boundary and D sit at other positions
    shapes = _shapes(_chain(12, order=_rotating))
    assert len({s[0] for s in shapes}) == 1
    assert len(set(shapes)) >= 6
    for n in (10, 60):
        tree = _chain(n, order=_rotating)
        assert oracles.coeffs(tutte_decomposition(tree)) == _cycle_polynomial(n + 2)
    _assert_compiled_matches_naive(_chain(10, order=_rotating), corpus_formulas, 1)


def test_parallel_chain(corpus_formulas):
    # U(1,3) glue matroids: the dual of the triangle chain, one repeated shape
    tree = _parallel_chain(10)
    want = {(j, i): c for (i, j), c in _cycle_polynomial(12).items()}
    assert oracles.coeffs(tutte_decomposition(tree)) == want
    _assert_compiled_matches_naive(tree, corpus_formulas, 2)


def test_same_table_other_deletions(corpus_formulas):
    # nodes 2 and 4 keep their basepoint: same table and positions as their
    # neighbours, only D differs
    tree = _chain(6, keep={2, 4})
    shapes = _shapes(tree)
    differ_in_d = {
        (a, b)
        for a in shapes
        for b in shapes
        if a[:4] == b[:4] and a[4] != b[4]
    }
    assert differ_in_d
    assert tutte_decomposition(tree) == tutte_bruteforce(tree.realize())
    _assert_compiled_matches_naive(tree, corpus_formulas, 3)
    mixed = _chain(6, order=_rotating, keep={1, 3})
    assert tutte_decomposition(mixed) == tutte_bruteforce(mixed.realize())
    _assert_compiled_matches_naive(mixed, corpus_formulas, 4)


def test_same_table_other_sides(corpus_formulas):
    # three triangle nodes with one table: the second differs from the
    # first only in where its parent boundary sits, the third only in
    # having no J1 (its left child, 9, is a loose element).  A loose
    # element under an empty glue matroid is a leaf with an empty boundary.
    tb = zoo.TreeBuilder()
    first = tb.glue(tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), zoo.triangle(1, 2, 3))
    second = tb.glue(tb.leaf(Matroid.single(4)), tb.leaf(Matroid.single(5)), zoo.triangle(4, 5, 6))
    third = tb.glue(tb.leaf(Matroid.single(9)), tb.leaf(Matroid.single(12)), zoo.triangle(11, 12, 13))
    top = tb.glue(first, second, zoo.triangle(3, 4, 7), [3, 4])
    top = tb.glue(top, third, zoo.triangle(7, 13, 14), [7, 13])
    tree = tb.done(tb.glue(top, tb.leaf(Matroid.single(8)), Matroid.empty()))
    by_node = dict(zip(("first", "second", "top", "third"), _shapes(tree)))
    table, j1, j2, boundary, d = by_node["first"]
    assert by_node["second"] == (table, j1, j2, (0,), d) and boundary == (2,)
    assert by_node["third"] == (table, (), j2, boundary, d)
    assert tutte_decomposition(tree) == tutte_bruteforce(tree.realize())
    _assert_compiled_matches_naive(tree, corpus_formulas, 5)


def test_one_context_and_axiom_check_per_shape(monkeypatch):
    contexts = []
    axiom_checks = []
    build_context = JoinContext.__init__
    check_axioms = kernels.check_rank_axioms

    def counted_context(ctx, shape):
        contexts.append(shape)
        build_context(ctx, shape)

    def counted_check(table, n):
        axiom_checks.append(n)
        return check_axioms(table, n)

    monkeypatch.setattr(JoinContext, "__init__", counted_context)
    monkeypatch.setattr(kernels, "check_rank_axioms", counted_check)
    tree = zoo.triangle_chain(300)
    assert oracles.coeffs(tutte_decomposition(tree)) == _cycle_polynomial(302)
    assert len(tree.nodes) == 601
    assert sum(node.is_leaf for node in tree.nodes.values()) == 301
    # a leaf's shape has empty J1 and J2: the 301 single-element leaves share one
    joins, leaves = _split_by_children(contexts)
    assert len(leaves) == 1
    assert 1 <= len(joins) <= 3
    # one rank-axiom check per distinct glue table that is not a matroid by
    # construction: the leaves', not the graphic triangles'
    assert axiom_checks == [1]
