"""Branch decompositions and the conversion to amalgam decompositions."""

import random
from itertools import combinations

import pytest

from amwidth import files, kernels
from amwidth.branch import (
    BranchDecomposition,
    branch_width_of,
    from_branch_decomposition,
)
from amwidth.errors import DomainError
from amwidth.matroid import Matroid
from amwidth.tutte import tutte_bruteforce, tutte_decomposition

import reference
from test_decomposition import assert_boundaries_from_grounds


def caterpillar(ids):
    ids = list(ids)
    n = len(ids)
    if n == 1:
        return BranchDecomposition.build([], {"l0": ids[0]})
    if n == 2:
        return BranchDecomposition.build([("l0", "l1")], {"l0": ids[0], "l1": ids[1]})
    edges = [("l0", "i0"), ("l1", "i0")]
    leaves = {"l0": ids[0], "l1": ids[1]}
    for k in range(1, n - 2):
        edges += [(f"i{k-1}", f"i{k}"), (f"l{k+1}", f"i{k}")]
        leaves[f"l{k+1}"] = ids[k + 1]
    edges.append((f"l{n-1}", f"i{n-3}"))
    leaves[f"l{n-1}"] = ids[n - 1]
    return BranchDecomposition.build(edges, leaves)


def assert_fresh_points_simple(tree, m):
    """No glue matroid has a loop or a parallel pair among its fresh elements."""
    for node in tree.nodes.values():
        fresh = sorted(node.K.ground_set - m.ground_set)
        for e in fresh:
            assert node.K.rank([e]) == 1, (node.nid, e)
        for e, f in combinations(fresh, 2):
            assert node.K.rank([e, f]) == 2, (node.nid, e, f)


def test_branch_width_free_matroid():
    m = Matroid.uniform(4, [1, 2, 3, 4])
    assert branch_width_of(m, caterpillar([1, 2, 3, 4])) == 1


def test_branch_width_u24():
    m = Matroid.uniform(2, [1, 2, 3, 4])
    assert branch_width_of(m, caterpillar([1, 2, 3, 4])) == 3


def test_branch_width_k3(k3):
    assert branch_width_of(k3, caterpillar([1, 2, 3])) == 2


def test_branch_width_matches_separations(k4):
    b = caterpillar([1, 2, 3, 4, 5, 6])
    want = 1
    for x, y in b.edges:
        side = b.side_elements(x, y)
        want = max(want, k4.separation_width(side))
    assert branch_width_of(k4, b) == want


def test_invalid_branch_rejected(k3):
    with pytest.raises(DomainError):
        branch_width_of(k3, BranchDecomposition.build([("a", "b")], {"a": 1, "b": 2}))
    bad_degree = BranchDecomposition.build(
        [("a", "x"), ("b", "x"), ("c", "x"), ("d", "x")],
        {"a": 1, "b": 2, "c": 3, "d": 4},
    )
    with pytest.raises(DomainError):
        branch_width_of(Matroid.uniform(2, [1, 2, 3, 4]), bad_degree)


def test_conversion_requires_linear(k3):
    explicit = Matroid.from_independent_sets([1, 2, 3], [[1, 2], [2, 3], [1, 3]])
    with pytest.raises(DomainError):
        from_branch_decomposition(explicit, caterpillar([1, 2, 3]))


def test_nice_of_a_wide_converted_tree_keeps_its_columns():
    # a width-13 GF(3) caterpillar, one PG(2,3) glue matroid: explicit
    # tables of its renamed and twinned glue matroids would be megabytes
    rng = random.Random(1)
    while True:
        m = Matroid.from_linear({e: [rng.randrange(3) for _ in range(3)] for e in range(1, 11)}, 3)
        if m.rank() == 3:
            break
    ids = list(m.elements)
    random.Random(0).shuffle(ids)
    tree = from_branch_decomposition(m, caterpillar(ids))
    assert tree.width() == 13
    nice = tree.to_nice()
    for v, node in tree.nodes.items():
        assert (nice.nodes[v].K.linear is None) == (node.K.linear is None), v
    converted = files.dumps(files.decomposition_to_obj(tree))
    written = files.dumps(files.decomposition_to_obj(nice))
    assert len(written) <= 2 * len(converted)


def conversion_cases(corpus_dir):
    for mpath in sorted((corpus_dir / "branch").glob("*.matroid.json")):
        name = mpath.name.replace(".matroid.json", "")
        bpath = corpus_dir / "branch" / f"{name}.branch.json"
        yield name, files.load_matroid(mpath), files.load_branch(bpath)


def test_corpus_conversions(corpus_dir):
    seen = 0
    for name, m, b in conversion_cases(corpus_dir):
        k = branch_width_of(m, b)
        assert k <= 3, name
        tree = from_branch_decomposition(m, b)
        report = tree.validate()
        assert report.ok, f"{name}: {report}"
        realized = tree.realize()
        assert reference.rank_equal(realized, m), name
        p = m.linear.field
        bound = (p ** ((3 * k) // 2) - 1) // (p - 1)
        assert tree.width() <= bound, (name, tree.width(), bound)
        assert_fresh_points_simple(tree, m)
        assert_boundaries_from_grounds(tree, name)
        seen += 1
    assert seen >= 5


def test_conversion_width1_bound(corpus_dir):
    m = files.load_matroid(corpus_dir / "branch" / "loops-gf2.matroid.json")
    b = files.load_branch(corpus_dir / "branch" / "loops-gf2.branch.json")
    assert branch_width_of(m, b) == 1
    tree = from_branch_decomposition(m, b)
    assert tree.width() == 1


def test_conversion_two_elements():
    m = Matroid.from_linear({1: (1, 0), 2: (1, 1)}, 2)
    tree = from_branch_decomposition(m, caterpillar([1, 2]))
    assert tree.validate().ok
    assert reference.rank_equal(tree.realize(), m)


def test_conversion_single_element():
    m = Matroid.from_linear({1: (1,)}, 2)
    tree = from_branch_decomposition(m, caterpillar([1]))
    assert tree.validate().ok
    assert reference.rank_equal(tree.realize(), m)


def test_conversion_parallel_and_interaction():
    # the 3-element case where the two sides interact only through a sum
    # vector; exercises the boundary-space construction
    m = Matroid.from_linear({1: (1, 0), 2: (0, 1), 3: (1, 1)}, 2)
    b = BranchDecomposition.build(
        [("c", "la"), ("c", "lb"), ("c", "lz")], {"la": 1, "lb": 2, "lz": 3}
    )
    tree = from_branch_decomposition(m, b)
    assert tree.validate().ok
    assert reference.rank_equal(tree.realize(), m)


def test_gf3_rank3_caterpillar_dp_matches_bruteforce():
    # Seeded 7-element GF(3) matroids of rank 3, half the columns multiples
    # of earlier ones; the first draw whose glue spans are at most planes
    # (4 points) runs the DP, which takes minutes at width 13.
    rng = random.Random(0)
    while True:
        cols = {}
        for e in range(1, 8):
            if cols and rng.random() < 0.5:
                scale = rng.randrange(1, 3)
                cols[e] = tuple(scale * x % 3 for x in cols[rng.choice(list(cols))])
                continue
            v = (0, 0, 0)
            while not any(v):
                v = tuple(rng.randrange(3) for _ in range(3))
            cols[e] = v
        ids = list(cols)
        rng.shuffle(ids)
        m = Matroid.from_linear(cols, 3)
        tree = from_branch_decomposition(m, caterpillar(ids))
        if m.rank() == 3 and tree.width() <= 4:
            break
    assert tree.validate().ok
    assert_fresh_points_simple(tree, m)
    assert tutte_decomposition(tree) == tutte_bruteforce(m)


def test_conversion_gf3_dimension3_span():
    # six points in general position in GF(3)^3: the caterpillar has a
    # 3-dimensional glue span, i.e. a 13-point projective plane
    cols = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1), 4: (1, 1, 1), 5: (1, 2, 0), 6: (0, 1, 2)}
    m = Matroid.from_linear(cols, 3)
    tree = from_branch_decomposition(m, caterpillar(range(1, 7)))
    assert tree.width() == 13
    assert tree.validate().ok
    assert reference.rank_equal(tree.realize(), m)
    assert_fresh_points_simple(tree, m)


def test_conversion_builds_each_glue_table_once(monkeypatch):
    # a GF(3) caterpillar of parallel and scaled columns: many nodes have
    # the same glue matroid, column for column
    vecs = [(1, 0), (2, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 2), (1, 1), (0, 1)]
    m = Matroid.from_linear(dict(enumerate(vecs, 1)), 3)
    built = []
    original = kernels.gf_rank_table

    def counting(cols, p):
        built.append(p)
        return original(cols, p)

    monkeypatch.setattr(kernels, "gf_rank_table", counting)
    tree = from_branch_decomposition(m, caterpillar(range(1, len(vecs) + 1)))
    keys = [
        (node.K.linear.field, tuple(node.K.linear.columns.values()))
        for node in tree.nodes.values()
        if node.K.linear is not None
    ]
    assert len(built) == len(set(keys)) < len(keys)
    assert tree.validate().ok
    assert reference.rank_equal(tree.realize(), m)
