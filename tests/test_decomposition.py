"""Decomposition trees: validation, realization, width, niceness."""

import tracemalloc

import pytest

from amwidth import zoo
from amwidth.amalgam import proper_amalgam
from amwidth.config import REALIZE_CAP
from amwidth.decomposition import AmalgamDecomposition, DecompositionNode
from amwidth.errors import DomainError, ResourceError, ValidationError
from amwidth.matroid import Matroid
from amwidth.tutte import tutte_bruteforce, tutte_decomposition

import reference
from conftest import REINTRODUCED_PLACEMENTS, reintroduced_id_tree


def twosum_tree(deletions=(10,)):
    tb = zoo.TreeBuilder()
    left = tb.glue(
        tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), zoo.triangle(1, 2, 10)
    )
    right = tb.glue(
        tb.leaf(Matroid.single(3)), tb.leaf(Matroid.single(4)), zoo.triangle(3, 4, 10)
    )
    return tb.done(tb.glue(left, right, Matroid.single(10), deletions))


def test_single_leaf_tree_valid():
    tree = AmalgamDecomposition([DecompositionNode("a", (), Matroid.single(1))], "a")
    report = tree.validate()
    assert report.ok and report.width == 1
    assert reference.rank_equal(tree.realize(), Matroid.single(1))
    assert tree.width() == 1


def test_twosum_tree_valid_and_realizes_c4():
    tree = twosum_tree()
    report = tree.validate()
    assert report.ok
    assert str(report) == "valid, width 3"
    m = tree.realize()
    assert reference.circuits(m) == frozenset([frozenset([1, 2, 3, 4])])
    summed = reference.two_sum(zoo.triangle(1, 2, 10), zoo.triangle(3, 4, 11), 10, 11)
    assert reference.rank_equal(m, summed)


def test_leaf_realization():
    tree = twosum_tree()
    for nid, node in tree.nodes.items():
        if node.is_leaf:
            assert reference.rank_equal(tree.realize(nid), node.K)


def test_semiflat_violation_reported():
    # J1 spans a non-modular line of K (two points of U_{3,6})
    u36 = Matroid.uniform(3, [1, 2, 3, 4, 5, 6])
    tb = zoo.TreeBuilder()
    left = tb.glue(
        tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), Matroid.uniform(2, [1, 2])
    )
    top = tb.glue(left, tb.leaf(Matroid.single(3)), u36)
    tree = tb.done(top)
    report = tree.validate()
    assert not report.ok
    assert any(v.code == "semiflat-j1" for v in report.violations)
    assert any(v.node for v in report.violations)
    with pytest.raises(ValidationError):
        tree.realize()


def test_boundary_mismatch_reported():
    nodes = [
        DecompositionNode("l1", (), Matroid.single(1)),
        DecompositionNode("l2", (), Matroid.single(2)),
        DecompositionNode(
            "v",
            ("l1", "l2"),
            zoo.triangle(1, 2, 3),
            frozenset([2]),  # wrong: should be {1}
            frozenset([2]),
            frozenset(),
        ),
    ]
    report = AmalgamDecomposition(nodes, "v").validate()
    assert any(v.code == "boundary-mismatch" for v in report.violations)


def test_restriction_violation_reported():
    # K treats the shared element as a loop; the child leaf has it a coloop
    loopk = Matroid.from_linear({1: (0, 0), 2: (1, 0)}, 2)
    nodes = [
        DecompositionNode("l1", (), Matroid.single(1)),
        DecompositionNode("l2", (), Matroid.single(2)),
        DecompositionNode(
            "v", ("l1", "l2"), loopk, frozenset([1]), frozenset([2]), frozenset()
        ),
    ]
    report = AmalgamDecomposition(nodes, "v").validate()
    assert any(v.code == "restriction-j1" for v in report.violations)


def test_width_examples():
    assert twosum_tree().width() == 3
    assert zoo.triangle_chain(5).width() == 3
    assert zoo.triangle_chain(5, pad=3).width() == 6
    assert zoo.comb(Matroid.uniform(2, [1, 2, 3, 4])).width() == 4


def test_triangle_chain_ids_collision_free_at_500():
    tree = zoo.triangle_chain(500)
    assert tree.validate().ok
    assert len(tree.ground()) == 502


def _chain_peak(n):
    """tracemalloc peak, in bytes, of building and validating an n-triangle chain."""
    tracemalloc.start()
    try:
        assert zoo.triangle_chain(n).validate().ok
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_memory_linear_in_length():
    # no node keeps its ground set: a frozenset per node took 89 MB at
    # 2000 triangles, 3.7 times its peak at 1000
    small, large = _chain_peak(1000), _chain_peak(2000)
    assert large < 16 * 2**20
    assert large < 3 * small


def test_realize_respects_cap():
    tree = zoo.triangle_chain(20)
    assert tree.validate().ok  # validation scales past the realize cap
    with pytest.raises(ResourceError):
        tree.realize()


def assert_boundaries_from_grounds(tree, label):
    """J(v), read off the parent's J1 or J2, is E(M(v)) & E(K(parent)) at
    every non-root node of the valid ``tree`` and of its prepared form."""
    for t in (tree, tree.prepared()):
        for nid, node in t.nodes.items():
            for c in node.children:
                want = reference.ground(t, c) & node.K.ground_set
                assert t.boundary(c) == want, (label, c)
        assert t.boundary(t.root) == frozenset(), label


def test_to_nice_roundtrip(corpus_decompositions):
    for name, tree in corpus_decompositions.items():
        assert_boundaries_from_grounds(tree, name)
        nice = tree.to_nice()
        assert nice.validate().ok, name
        assert nice.is_nice(), name
        assert nice.width() <= 2 * tree.width(), name
        if len(tree.ground()) <= 10:
            assert reference.rank_equal(nice.realize(), tree.realize()), name
        else:
            assert nice.ground() == tree.ground(), name


def _kind(k):
    return "linear" if k.linear is not None else "graphic" if k.graph is not None else None


def test_to_nice_keeps_linear_and_graphic_glue_matroids(corpus_decompositions):
    for name, tree in corpus_decompositions.items():
        nice = tree.to_nice()
        for v, node in tree.nodes.items():
            assert _kind(nice.nodes[v].K) == _kind(node.K), (name, v)


def test_to_nice_noop_when_nice():
    tree = zoo.triangle_chain(3)
    assert tree.is_nice()
    nice = tree.to_nice()
    assert nice.width() == tree.width()
    assert reference.rank_equal(nice.realize(), tree.realize())


def test_to_nice_duplicates_shared_boundary():
    tree = twosum_tree()
    assert not tree.is_nice()
    nice = tree.to_nice()
    assert nice.is_nice()
    root = nice.nodes[nice.root]
    assert len(root.K.ground_set) == 2  # original plus one parallel twin
    assert reference.rank_equal(nice.realize(), tree.realize())


def test_prepared_once_per_tree(corpus_decompositions):
    tree = twosum_tree()
    assert not tree.is_nice()
    prepared = tree.prepared()
    assert prepared is not tree and prepared.is_nice()
    assert tree.prepared() is prepared
    # no nice corpus tree or chain deletes an id of its ground set
    trees = {**corpus_decompositions, "chain3": zoo.triangle_chain(3)}
    trees["chain9-pad2"] = zoo.triangle_chain(9, pad=2)
    for name, nice in trees.items():
        if nice.is_nice():
            assert nice.prepared() is nice, name


@pytest.mark.parametrize("where", REINTRODUCED_PLACEMENTS)
def test_prepared_gives_each_element_one_id(where):
    # N deletes a 3 while the root's ground set holds another 3: the
    # prepared tree renames N's 3, below N too, and changes no rank
    tree = reintroduced_id_tree(where)
    assert tree.is_nice() and 3 in tree.ground()
    prepared = tree.prepared()
    assert prepared is not tree
    assert prepared.validate().ok and prepared.is_nice()
    assert reference.rank_equal(prepared.realize(), tree.realize())
    ground = prepared.ground()
    assert not any(node.D & ground for node in prepared.nodes.values())


def test_arity_below_a_binary_node_reported():
    nodes = [
        DecompositionNode("a", (), Matroid.single(1)),
        DecompositionNode("u", ("a",), zoo.triangle(1, 2, 3)),
        DecompositionNode("b", (), Matroid.single(4)),
        DecompositionNode("r", ("u", "b"), Matroid.uniform(1, [1, 4])),
    ]
    # the parent's ground set is read over u's one child, not unpacked
    report = AmalgamDecomposition(nodes, "r").validate()
    assert not report.ok
    assert ("u", "arity") in {(v.node, v.code) for v in report.violations}


def test_unknown_node_named():
    tree = twosum_tree()
    for call in (tree.ground_size, tree.realize):
        with pytest.raises(DomainError, match="'nope'"):
            call("nope")
    assert tree.boundary(tree.root) == frozenset()


def test_corpus_all_valid(corpus_decompositions):
    for name, tree in corpus_decompositions.items():
        report = tree.validate()
        assert report.ok, f"{name}: {report}"
        assert tree.is_anchored(), name
        size = len(tree.ground())
        assert 3 <= size <= 14, name
        assert 1 <= tree.width() <= 6, name


def test_unanchored_tree_has_no_shapes():
    # the top node's J1 = {1} sits outside its left child's K = {2}
    tb = zoo.TreeBuilder()
    left = tb.glue(tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), Matroid.single(2))
    tree = tb.done(tb.glue(left, tb.leaf(Matroid.single(4)), Matroid.uniform(1, [1, 4])))
    assert tree.validate().ok and tree.is_nice() and not tree.is_anchored()
    for call in (tree.shapes, tree.prepared):
        with pytest.raises(DomainError, match="parent boundaries inside each node's glue"):
            call()


def test_corpus_realizations_satisfy_axioms(corpus_decompositions):
    for name, tree in corpus_decompositions.items():
        if len(tree.ground()) > 12:
            continue
        m = tree.realize()
        assert m.rank_axiom_violation() is None, name


def test_tree_with_a_j_semiflat_only_in_k_realizes(corpus_decompositions):
    # J2 = {1, 3} is a modular semiflat in the root's K but not in K's
    # connection with M1; realize once refused this valid tree
    tree = corpus_decompositions["gf3-semiflat-in-k"]
    assert str(tree.validate()) == "valid, width 4"
    k = tree.nodes[tree.root].K
    m1, m2 = (tree.nodes[c].K for c in tree.nodes[tree.root].children)  # comb tops
    want = proper_amalgam(proper_amalgam(k, m1), m2)
    assert reference.rank_equal(tree.realize(), want)
    poly = tutte_decomposition(tree)
    assert str(poly) == "x^2 + 2*x + 2*x*y + 2*y + 3*y^2 + 2*y^3 + y^4"
    assert poly == tutte_bruteforce(want)


def mirrored(tree):
    """``tree`` with the children of every node swapped."""
    nodes = [n._replace(children=n.children[::-1]) for n in tree.nodes.values()]
    return AmalgamDecomposition(nodes, tree.root).with_boundaries()


def test_mirrored_chain_realizes_at_the_cap():
    # the chain so far is the first child, so K's connection with it has
    # 17 elements, one past the flat enumeration's cap, before D goes
    tree = mirrored(zoo.triangle_chain(14))
    assert tree.validate().ok
    assert len(tree.ground()) == REALIZE_CAP
    assert tutte_bruteforce(tree.realize()) == tutte_decomposition(tree)


def test_realized_chain_is_cycle():
    for n in (1, 2, 3, 5):
        tree = zoo.triangle_chain(n)
        m = tree.realize()
        assert m.size == n + 2
        assert m.rank() == n + 1
        assert reference.circuits(m) == frozenset([m.ground_set])


def test_direct_sum_tree():
    tree = zoo.direct_sum_tree(
        [zoo.triangle_chain(1, prefix="a"), zoo.comb(zoo.triangle(21, 22, 23), "b")]
    )
    assert tree.validate().ok
    m = tree.realize()
    assert m.rank() == 4
    assert len(reference.circuits(m)) == 2


def _two_of(build):
    """Two copies of a subtree on disjoint ids, direct-summed; each copy's
    nodes carry the same glue tables at the same positions."""
    tb = zoo.TreeBuilder()
    left = build(tb, 0)
    right = build(tb, 10)
    return tb.done(tb.glue(left, right, Matroid.empty()))


def test_shared_shape_reports_only_the_bad_restriction():
    # both triangle nodes have one shape; only the second one's left child
    # is a loop, so only there does M1|J1 differ from K|J1
    def build(tb, o):
        leaf = tb.leaf(Matroid.single(o + 1, loop=o > 0))
        return tb.glue(leaf, tb.leaf(Matroid.single(o + 2)), zoo.triangle(o + 1, o + 2, o + 3))

    tree = _two_of(build)
    assert str(tree.validate()) == (
        "invalid, width 3\n[n6] restriction-j1: M1|J1 differs from K|J1"
    )


def test_repeated_non_semiflat_reported_at_each_node():
    # J1 = {a, b} in U_{2,4}: its closure adds points that are neither
    # loops nor parallel to a or b; the same shape at two nodes
    def build(tb, o):
        pair = tb.glue(
            tb.leaf(Matroid.single(o + 1)),
            tb.leaf(Matroid.single(o + 2)),
            Matroid.uniform(2, [o + 1, o + 2]),
        )
        u24 = Matroid.uniform(2, [o + 1, o + 2, o + 3, o + 4])
        return tb.glue(pair, tb.leaf(Matroid.single(o + 3)), u24)

    tree = _two_of(build)
    assert str(tree.validate()) == (
        "invalid, width 4\n"
        "[n5] semiflat-j1: J1 is not a modular semiflat in K\n"
        "[n10] semiflat-j1: J1 is not a modular semiflat in K"
    )


def test_shared_frame_checked_at_each_boundary_position():
    # the two lower triangle nodes share a shape, so their K is the same
    # table; the upper nodes read it at different positions: {1}, a point,
    # on the left and {13}, a loop of that K, on the right
    def build(tb, o):
        lower = tb.glue(
            tb.leaf(Matroid.single(o + 1)),
            tb.leaf(Matroid.single(o + 2)),
            Matroid.from_graph({o + 1: (0, 1), o + 2: (1, 2), o + 3: (2, 2)}),
        )
        up = o + 1 if o == 0 else o + 3
        return tb.glue(lower, tb.leaf(Matroid.single(o + 4)), zoo.triangle(up, o + 4, o + 5))

    tree = _two_of(build)
    assert str(tree.validate()) == (
        "invalid, width 3\n[n10] restriction-j1: M1|J1 differs from K|J1"
    )


def test_same_table_other_deletions_get_own_frames():
    # the triangle nodes share table, J1 and J2; the left one deletes 3,
    # the right one keeps 13, which its parent then reads
    tb = zoo.TreeBuilder()
    left = tb.glue(
        tb.glue(tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), zoo.triangle(1, 2, 3), [3]),
        tb.leaf(Matroid.single(4)),
        Matroid.uniform(3, [1, 2, 4]),
    )
    right = tb.glue(
        tb.glue(tb.leaf(Matroid.single(11)), tb.leaf(Matroid.single(12)), zoo.triangle(11, 12, 13)),
        tb.leaf(Matroid.single(14)),
        Matroid.from_graph({11: (0, 1), 12: (1, 2), 13: (0, 2), 14: (3, 4)}),
    )
    tree = tb.done(tb.glue(left, right, Matroid.empty()))
    assert tree.validate().ok
    assert tutte_decomposition(tree) == tutte_bruteforce(tree.realize())


def test_glue_matroids_agree_with_realization(corpus_decompositions):
    # validation reads ranks off the glue matroids: M(v) restricted to
    # E(K) - D is K with D deleted, and an anchored child's K agrees with
    # M(c) on its parent boundary; here against realize
    for name, tree in corpus_decompositions.items():
        if len(tree.ground()) > 12:
            continue
        for v in tree.postorder():
            node = tree.nodes[v]
            m = tree.realize(v)
            kept = node.K.ground_set - node.D
            assert reference.rank_equal(node.K.delete(node.D), m.restrict(kept)), (name, v)
            j = tree.boundary(v)
            if j <= node.K.ground_set:
                assert reference.rank_equal(node.K.restrict(j), m.restrict(j)), (name, v)


def test_same_table_other_deletions_read_at_same_positions():
    # the lower nodes share table and J positions, the first element being
    # parallel to the second; the left one deletes it (3), so its frame's
    # positions 0 and 1 hold 1 and 2, independent, while the right frame's
    # hold 11 and 12, a parallel pair, which the free matroid above rejects
    tb = zoo.TreeBuilder()
    left = tb.glue(
        tb.leaf(Matroid.single(1)),
        tb.leaf(Matroid.single(2)),
        Matroid.from_graph({3: (0, 1), 1: (0, 1), 2: (1, 2)}),
        [3],
    )
    left = tb.glue(left, tb.leaf(Matroid.single(4)), Matroid.uniform(3, [1, 2, 4]))
    right = tb.glue(
        tb.leaf(Matroid.single(12)),
        tb.leaf(Matroid.single(13)),
        Matroid.from_graph({11: (0, 1), 12: (0, 1), 13: (1, 2)}),
    )
    right = tb.glue(right, tb.leaf(Matroid.single(14)), Matroid.uniform(3, [11, 12, 14]))
    tree = tb.done(tb.glue(left, right, Matroid.empty()))
    assert str(tree.validate()) == (
        "invalid, width 3\n[n10] restriction-j1: M1|J1 differs from K|J1"
    )


def test_glue_broken_when_k_minus_d_is_no_matroid():
    # r({1, 3}) = 0 < r({1}) = 1: K itself breaks the rank axioms, which a
    # loaded file cannot produce, so the tree is built in memory
    k = Matroid([1, 2, 3, 4], [0, 1, 1, 2, 0, 0, 2, 0, 0, 0, 0, 1, 2, 1, 2, 2])
    tree = AmalgamDecomposition(
        [
            DecompositionNode("r", ("a", "b"), k, frozenset({1}), frozenset({2})),
            DecompositionNode("a", (), Matroid.single(1)),
            DecompositionNode("b", (), Matroid.single(2)),
        ],
        "r",
    )
    report = tree.validate()
    assert [(v.node, v.code) for v in report.violations] == [("r", "glue-broken")]


def test_glue_broken_when_k_breaks_the_axioms_inside_d():
    # K is free on {1, 2} but r({3}) = 2; 3 is deleted, so K \ D is a
    # matroid and only K itself shows the fault
    k = Matroid([1, 2, 3], [0, 1, 1, 2, 2, 2, 2, 2])
    tb = zoo.TreeBuilder()
    top = tb.glue(tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), k, [3])
    report = tb.done(top).validate()
    assert [(v.node, v.code) for v in report.violations] == [(top, "glue-broken")]


def test_glue_broken_at_a_leaf():
    # a leaf of one element with rank 2, under an empty glue matroid
    tb = zoo.TreeBuilder()
    bad = tb.leaf(Matroid([5], [0, 2]))
    tree = tb.done(tb.glue(bad, tb.leaf(Matroid.single(6)), Matroid.empty()))
    assert str(tree.validate()) == (
        f"invalid, width 1\n[{bad}] glue-broken: glue at this node is not a matroid"
    )


def test_unverifiable_restriction_past_the_cap(monkeypatch):
    # J1 = {2} at the top lies outside the child's glue matroid {3}, so the
    # check realizes the child's three elements, over a cap of two
    tb = zoo.TreeBuilder()
    inner = tb.glue(tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), Matroid.single(1))
    child = tb.glue(inner, tb.leaf(Matroid.single(3)), Matroid.single(3))
    top = tb.glue(child, tb.leaf(Matroid.single(4)), Matroid.uniform(2, [2, 4]))
    assert tb.done(top).validate().ok
    monkeypatch.setenv("AMALGAM_MAX_ELEMENTS", "2")
    report = tb.done(top).validate()
    assert [(v.node, v.code) for v in report.violations] == [(top, "unverifiable-restriction")]
