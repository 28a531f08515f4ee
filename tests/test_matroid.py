"""Matroid constructors, rank primitives, minors, and the 2-sum."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amwidth.errors import DomainError, ResourceError
from amwidth.matroid import Matroid, restrictions_equal
from amwidth import zoo

import reference


def test_rank_empty_and_full(fano, k3):
    assert fano.rank([]) == 0
    assert fano.rank() == 3
    assert k3.rank([1, 2, 3]) == 2  # spanning tree size


def test_rank_k3_matches_bruteforce(k3):
    for subset in reference.subsets([1, 2, 3]):
        want = reference.brute_rank(
            lambda s: reference.graphic_independent(k3.graph.edges, s), subset
        )
        assert k3.rank(subset) == want


def test_rank_unknown_element(k3):
    with pytest.raises(DomainError):
        k3.rank([99])


def test_linear_rank_matches_enumeration(fano):
    cols = fano.linear.columns
    for subset in reference.subsets(list(cols)):
        want = reference.brute_rank(
            lambda s: reference.gf_independent(cols, 2, s), subset
        )
        assert fano.rank(subset) == want


def test_closure_basics(fano):
    assert fano.closure(fano.ground_set) == fano.ground_set
    # two independent points span the third point on their line
    assert fano.closure([1, 2]) == {1, 2, 4}


def test_closure_of_empty_is_loops():
    m = Matroid.from_linear({1: (0, 0), 2: (1, 0)}, 2)
    assert m.closure([]) == {1}


def test_closure_idempotent_extensive(u24, fano):
    for m in (u24, fano):
        for subset in reference.subsets(m.ground_set):
            cl = m.closure(subset)
            assert cl >= frozenset(subset)
            assert m.closure(cl) == cl
            assert m.rank(cl) == m.rank(subset)


def test_circuits(u24, k3):
    assert u24.circuits() == [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
    assert Matroid.uniform(3, [1, 2, 3]).circuits() == []
    assert k3.circuits() == [[1, 2, 3]]
    assert Matroid.empty().circuits() == []
    # ids in increasing order within each circuit and across them, whatever
    # the element order: a loop, a parallel pair and a triangle
    m = Matroid.from_graph({5: (0, 0), -3: (0, 1), 9: (1, 2), -7: (0, 1), 0: (0, 2)})
    assert m.circuits() == [[-7, -3], [-7, 0, 9], [-3, 0, 9], [5]]
    assert m.circuits() == sorted(sorted(c) for c in reference.circuits(m))


def test_circuits_cap():
    with pytest.raises(ResourceError):
        Matroid.uniform(17, range(17)).circuits()


def test_from_ranks_checks_the_cap_only_for_a_new_table(monkeypatch):
    tables = {}
    Matroid.from_ranks([1, 2], [0, 1, 1, 1], tables=tables)
    monkeypatch.setenv("AMALGAM_MAX_ELEMENTS", "1")
    assert Matroid.from_ranks([3, 4], [0, 1, 1, 1], tables=tables).rank() == 1
    with pytest.raises(ResourceError):
        Matroid.from_ranks([3, 4], [0, 1, 1, 2], tables=tables)


def test_delete_identity(k3):
    d = k3.delete([])
    assert reference.rank_equal(d, k3)


def test_restrict_uniform(u24):
    r = u24.restrict([1, 2])
    assert reference.rank_equal(r, Matroid.uniform(2, [1, 2]))
    assert r.rank([1, 2]) == 2


def test_delete_restrict_commute(fano):
    a = fano.delete([1]).restrict([2, 3, 4])
    b = fano.restrict([2, 3, 4, 1]).delete([1])
    assert reference.rank_equal(a, b)


def test_minor_keeps_labels(fano):
    assert fano.delete([3]).elements == (1, 2, 4, 5, 6, 7)


def test_separation_width(k3):
    assert k3.separation_width([]) == 1
    assert k3.separation_width([1]) == 2
    m = Matroid.from_graph(
        {1: (0, 1), 2: (1, 2), 3: (0, 2), 4: (3, 4), 5: (4, 5), 6: (3, 5)}
    )
    assert m.separation_width([1, 2, 3]) == 1


def test_restrictions_equal(k3):
    k3b = Matroid.from_graph({4: (0, 1), 5: (1, 2), 3: (0, 2)})
    assert restrictions_equal(k3, k3b, [])
    assert restrictions_equal(k3, k3b, [3])
    loopy = Matroid.from_linear({3: (0, 0), 9: (1, 0)}, 2)
    assert not restrictions_equal(k3, loopy, [3])


def test_restrictions_equal_unknown(k3):
    with pytest.raises(DomainError):
        restrictions_equal(k3, k3, [99])


def test_two_sum_triangles_is_c4():
    m1 = zoo.triangle(1, 2, 10)
    m2 = zoo.triangle(3, 4, 11)
    m = reference.two_sum(m1, m2, 10, 11)
    assert reference.circuits(m) == frozenset([frozenset([1, 2, 3, 4])])
    assert reference.rank_equal(m, zoo.cycle_graphic([1, 2, 3, 4]).restrict([1, 2, 3, 4]))


def test_two_sum_parallel_relabels():
    m1 = zoo.triangle(1, 2, 10)
    m2 = Matroid.uniform(1, [11, 12])
    m = reference.two_sum(m1, m2, 10, 11)
    relabeled = zoo.triangle(1, 2, 12)
    assert reference.rank_equal(m, relabeled)


def test_two_sum_never_contains_glue_points(corpus_dir):
    import json

    from amwidth import files

    for path in sorted((corpus_dir / "twosum").glob("*.json")):
        obj = json.loads(path.read_text())
        m1 = files.matroid_from_obj(obj["m1"])
        m2 = files.matroid_from_obj(obj["m2"])
        m = reference.two_sum(m1, m2, obj["p1"], obj["p2"])
        assert obj["p1"] not in m.ground_set
        assert obj["p2"] not in m.ground_set
        for c in reference.circuits(m):
            assert obj["p1"] not in c and obj["p2"] not in c


def test_two_sum_rejects_loops_coloops():
    loopy = Matroid.from_linear({1: (0, 0), 2: (1, 0), 3: (0, 1)}, 2)
    other = zoo.triangle(4, 5, 6)
    with pytest.raises(DomainError):
        reference.two_sum(loopy, other, 1, 4)  # loop
    with pytest.raises(DomainError):
        reference.two_sum(loopy, other, 2, 4)  # coloop


def test_two_sum_rejects_label_overlap():
    with pytest.raises(DomainError):
        reference.two_sum(zoo.triangle(1, 2, 3), zoo.triangle(1, 5, 6), 3, 6)


def test_axioms_all_backends(k3, u24, fano):
    graphic = Matroid.from_graph({1: (0, 0), 2: (0, 1), 3: (0, 1)})
    explicit = Matroid.from_independent_sets([1, 2, 3], [[1, 2], [2, 3]])
    for m in (k3, u24, fano, graphic, explicit):
        assert m.rank_axiom_violation() is None


def test_from_independent_sets_rejects_non_matroid():
    # {1,2} and {3,4} independent but no exchange possible with {1}
    with pytest.raises(DomainError):
        Matroid.from_independent_sets(
            [1, 2, 3, 4], [[1, 2], [3, 4]]
        ).rank_axiom_violation()


def test_loops_coloops(k3):
    m = Matroid.from_linear({1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (1, 1)}, 2)
    assert m.loops() == {1}
    assert m.coloops() == frozenset()
    assert k3.coloops() == frozenset()
    assert Matroid.uniform(1, [7]).coloops() == {7}


@st.composite
def small_matroids(draw):
    kind = draw(st.sampled_from(["uniform", "graphic", "linear"]))
    n = draw(st.integers(min_value=1, max_value=6))
    ids = list(range(1, n + 1))
    if kind == "uniform":
        r = draw(st.integers(min_value=0, max_value=n))
        return Matroid.uniform(r, ids)
    if kind == "graphic":
        nv = draw(st.integers(min_value=1, max_value=4))
        edges = {
            e: (
                draw(st.integers(min_value=0, max_value=nv - 1)),
                draw(st.integers(min_value=0, max_value=nv - 1)),
            )
            for e in ids
        }
        return Matroid.from_graph(edges)
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(min_value=1, max_value=3))
    cols = {
        e: tuple(
            draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(d)
        )
        for e in ids
    }
    return Matroid.from_linear(cols, p)


@settings(max_examples=60, deadline=None)
@given(small_matroids())
def test_random_matroids_satisfy_axioms(m):
    assert m.rank_axiom_violation() is None


@settings(max_examples=40, deadline=None)
@given(small_matroids(), st.data())
def test_random_minors_satisfy_axioms(m, data):
    keep = data.draw(st.sets(st.sampled_from(sorted(m.elements))))
    deleted = m.delete(keep)
    assert deleted.rank_axiom_violation() is None


@settings(max_examples=40, deadline=None)
@given(small_matroids())
def test_random_closure_properties(m):
    for subset in reference.subsets(m.ground_set):
        cl = m.closure(subset)
        assert m.rank(cl) == m.rank(subset)
        assert m.closure(cl) == cl
