"""Modular flats, proper amalgams, parallel connection, glueing."""

import json

import pytest

from amwidth import files, zoo
from amwidth.amalgam import (
    eta,
    generalized_parallel_connection,
    glue,
    glue_violations,
    is_modular_flat,
    is_modular_semiflat,
    proper_amalgam,
    zeta,
    zeta_table,
)
from amwidth.errors import (
    DomainError,
    GluePreconditionError,
    NoProperAmalgamError,
)
from amwidth.matroid import Matroid

import oracles


def gpc_corpus(corpus_dir):
    out = {}
    for path in sorted((corpus_dir / "gpc").glob("*.json")):
        obj = json.loads(path.read_text())
        out[path.stem] = (
            files.matroid_from_obj(obj["m1"]),
            files.matroid_from_obj(obj["m2"]),
        )
    return out


def test_ground_set_is_modular(k3, fano, u24):
    for m in (k3, fano, u24):
        assert is_modular_flat(m, m.ground_set)


def test_rank_one_flats_modular(fano):
    for e in fano.elements:
        flat = fano.closure([e])
        assert is_modular_flat(fano, flat)


def test_u36_two_point_flat_not_modular():
    u36 = Matroid.uniform(3, [1, 2, 3, 4, 5, 6])
    assert not is_modular_flat(u36, [1, 2])


def test_modular_flat_requires_flat(u24):
    with pytest.raises(DomainError):
        is_modular_flat(u24, [1, 2, 3])  # closure is everything


def test_single_elements_are_semiflats(k3, fano, u24):
    for m in (k3, fano, u24):
        for e in m.elements:
            assert is_modular_semiflat(m, [e])


def test_modular_flat_is_semiflat(fano):
    line = fano.closure([1, 2])
    assert is_modular_semiflat(fano, line)


def test_fano_two_points_not_semiflat(fano):
    # third point of the line is neither a loop nor parallel
    assert not is_modular_semiflat(fano, [1, 2])


def test_empty_set_semiflat(k3):
    assert is_modular_semiflat(k3, [])


def test_eta_zeta_basics():
    m1 = zoo.triangle(1, 2, 10)
    m2 = zoo.triangle(3, 4, 10)
    assert zeta(m1, m2, []) == 0
    assert eta(m1, m2, [1, 2, 3, 4, 10]) == 3
    assert zeta(m1, m2, [1, 2, 3, 4, 10]) == 3
    # two triangles sharing an edge have rank 3 on all five edges
    assert zeta(m1, m2, [1, 2, 3, 4]) == 3


def test_zeta_disjoint_is_direct_sum():
    m1 = zoo.triangle(1, 2, 3)
    m2 = Matroid.uniform(1, [4, 5])
    elements, table = zeta_table(m1, m2)
    for subset in oracles.subsets(elements):
        s = frozenset(subset)
        expect = m1.rank(s & m1.ground_set) + m2.rank(s & m2.ground_set)
        mask = sum(1 << elements.index(e) for e in s)
        assert int(table[mask]) == expect


def test_zeta_properties():
    m1 = zoo.triangle(1, 2, 10)
    m2 = zoo.triangle(3, 4, 10)
    elements, zt = zeta_table(m1, m2)
    u = __import__("amwidth.amalgam", fromlist=["_Union"])._Union(m1, m2)
    et = u.eta_table()
    assert (zt <= et).all()
    assert int(zt[0]) == 0
    assert (zt >= 0).all()


def test_proper_amalgam_direct_sum():
    m1 = zoo.triangle(1, 2, 3)
    m2 = zoo.triangle(4, 5, 6)
    pa = proper_amalgam(m1, m2)
    assert pa.rank([1, 2, 4, 5]) == 4
    assert oracles.rank_equal(pa.restrict(m1.ground_set), m1)
    assert oracles.rank_equal(pa.restrict(m2.ground_set), m2)


def test_proper_amalgam_triangles_graphic():
    m1 = zoo.triangle(1, 2, 10)
    m2 = zoo.triangle(3, 4, 10)
    pa = proper_amalgam(m1, m2)
    graphic = Matroid.from_graph(
        {1: (0, 1), 2: (1, 2), 10: (0, 2), 3: (0, 3), 4: (3, 2)}
    )
    assert oracles.rank_equal(pa, graphic)


def test_no_proper_amalgam_counterexample():
    # Both sides extend the four generic points T by the meet of the same
    # two lines (found by exhaustive search over rank-3 matroids on five
    # elements); zeta is not submodular and the error carries a witness.
    t = {10: (1, 0, 0), 11: (0, 1, 0), 12: (0, 0, 1), 13: (1, 1, 1)}
    m1 = Matroid.from_linear({**t, 1: (1, 1, 0)}, 3)
    m2 = Matroid.from_linear({**t, 2: (1, 1, 0)}, 3)
    with pytest.raises(NoProperAmalgamError) as err:
        proper_amalgam(m1, m2)
    f, g = err.value.witness
    elements, zt = zeta_table(m1, m2)
    pos = {e: i for i, e in enumerate(elements)}
    mask = lambda s: sum(1 << pos[e] for e in s)
    lhs = int(zt[mask(f | g)]) + int(zt[mask(f & g)])
    rhs = int(zt[mask(f)]) + int(zt[mask(g)])
    assert lhs > rhs


def test_is_proper_amalgam(corpus_dir):
    for name, (m1, m2) in gpc_corpus(corpus_dir).items():
        pa = proper_amalgam(m1, m2)
        assert oracles.is_proper_amalgam(pa, m1, m2), name


def test_is_proper_amalgam_rejects_non_amalgam(k3):
    m1 = zoo.triangle(1, 2, 10)
    m2 = zoo.triangle(3, 4, 10)
    bogus = Matroid.uniform(1, sorted(m1.ground_set | m2.ground_set))
    with pytest.raises(DomainError):
        oracles.is_proper_amalgam(bogus, m1, m2)


def test_non_proper_amalgam_detected():
    # the free matroid on E1 | E2 restricts correctly when both parts are
    # free, and for disjoint grounds the direct sum is the proper amalgam;
    # gluing over a shared point makes the freer amalgam non-proper
    m1 = Matroid.uniform(2, [1, 10])
    m2 = Matroid.uniform(2, [2, 10])
    pa = proper_amalgam(m1, m2)
    # hand-build a different amalgam: 10 in the closure of {1, 2}
    other = Matroid.from_linear({1: (1, 0), 2: (0, 1), 10: (1, 1)}, 2)
    assert oracles.rank_equal(other.restrict(m1.ground_set), m1)
    assert oracles.rank_equal(other.restrict(m2.ground_set), m2)
    assert oracles.is_proper_amalgam(pa, m1, m2)
    assert not oracles.is_proper_amalgam(other, m1, m2)


def test_gpc_matches_proper_amalgam(corpus_dir):
    for name, (m1, m2) in gpc_corpus(corpus_dir).items():
        shared = sorted(m1.ground_set & m2.ground_set)
        assert is_modular_semiflat(m1, shared), name
        gpc = generalized_parallel_connection(m1, m2)
        pa = proper_amalgam(m1, m2)
        assert oracles.rank_equal(gpc, pa), name


def test_gpc_restriction_property(corpus_dir):
    for name, (m1, m2) in gpc_corpus(corpus_dir).items():
        gpc = generalized_parallel_connection(m1, m2)
        assert oracles.rank_equal(gpc.restrict(m1.ground_set), m1), name
        assert oracles.rank_equal(gpc.restrict(m2.ground_set), m2), name


def test_gpc_with_contained_ground_is_identity(fano):
    sub = fano.restrict([1, 2, 4])
    gpc = generalized_parallel_connection(fano, sub)
    assert oracles.rank_equal(gpc, fano)


def test_gpc_closure_formula(corpus_dir):
    for name, (m1, m2) in gpc_corpus(corpus_dir).items():
        if len(m1.ground_set | m2.ground_set) > 10:
            continue
        gpc = generalized_parallel_connection(m1, m2)
        for subset in oracles.subsets(gpc.ground_set):
            via_formula = oracles.gpc_closure(m1, m2, subset)
            assert via_formula == gpc.closure(subset), (name, subset)


def test_gpc_requires_semiflat():
    u36 = Matroid.uniform(3, [1, 2, 3, 4, 10, 11])
    other = Matroid.uniform(2, [10, 11, 20])
    with pytest.raises(DomainError):
        generalized_parallel_connection(u36, other)


def test_gpc_boundary_closure_is_semiflat(corpus_dir):
    for name, (m1, m2) in gpc_corpus(corpus_dir).items():
        gpc = generalized_parallel_connection(m1, m2)
        if gpc.size > 12:
            continue
        cl2 = gpc.closure(m2.ground_set)
        assert is_modular_semiflat(gpc, cl2), name


def test_commutation_triples(corpus_dir):
    for path in sorted((corpus_dir / "triples").glob("*.json")):
        obj = json.loads(path.read_text())
        k = files.matroid_from_obj(obj["k"])
        m1 = files.matroid_from_obj(obj["m1"])
        m2 = files.matroid_from_obj(obj["m2"])
        a = generalized_parallel_connection(
            m2, generalized_parallel_connection(m1, k)
        )
        b = generalized_parallel_connection(
            m1, generalized_parallel_connection(m2, k)
        )
        assert oracles.rank_equal(a, b), path.stem


def test_glue_two_sum(corpus_dir):
    for path in sorted((corpus_dir / "twosum").glob("*.json")):
        obj = json.loads(path.read_text())
        m1 = files.matroid_from_obj(obj["m1"])
        m2 = files.matroid_from_obj(obj["m2"])
        p1, p2 = obj["p1"], obj["p2"]
        # relabel the second glue point so both matroids share one element
        mapping = {e: (p1 if e == p2 else e) for e in m2.elements}
        m2r = Matroid(
            [mapping[e] for e in m2.elements], m2.table
        )
        glued = glue(m1, m2r, Matroid.single(p1), [p1])
        summed = oracles.two_sum(m1, m2, p1, p2)
        assert oracles.rank_equal(glued, summed), path.stem
        assert glued.circuits() == summed.circuits(), path.stem


def test_glue_parallel_connection():
    m1 = zoo.triangle(1, 2, 10)
    m2 = zoo.triangle(3, 4, 10)
    g = glue(m1, m2, Matroid.single(10))
    assert oracles.rank_equal(g, proper_amalgam(m1, m2))


def test_glue_idempotent_single():
    e = Matroid.single(5)
    assert oracles.rank_equal(glue(e, e, e), e)


def test_glue_violations_named():
    m1 = zoo.triangle(1, 2, 10)
    m2 = zoo.triangle(3, 4, 10)
    # K misses the shared element entirely
    codes = [c for c, _ in glue_violations(m1, m2, Matroid.single(99), [])]
    assert "shared-not-in-glue" in codes
    # deletions outside K
    codes = [c for c, _ in glue_violations(m1, m2, Matroid.single(10), [77])]
    assert "deletions-not-in-glue" in codes
    # restriction mismatch: K declares the shared point a loop
    loopk = Matroid.from_linear({10: (0,)}, 2)
    codes = [c for c, _ in glue_violations(m1, m2, loopk, [])]
    assert "restriction-j1" in codes
    with pytest.raises(GluePreconditionError):
        glue(m1, m2, Matroid.single(99), [])


def test_glue_semiflat_violation_named():
    u36 = Matroid.uniform(3, [1, 2, 3, 10, 11, 12])
    m1 = Matroid.uniform(2, [10, 11, 4])
    m2 = zoo.triangle(5, 6, 7)
    codes = [c for c, _ in glue_violations(m1, m2, u36, [])]
    assert "semiflat-j1" in codes


def test_random_glue_axioms():
    # randomized glue/delete compositions keep rank functions sane
    import random

    rng = random.Random(2024)
    base_pool = [
        lambda ids: zoo.triangle(*ids[:3]),
        lambda ids: Matroid.uniform(1, ids[:3]),
        lambda ids: Matroid.uniform(2, ids[:4]),
        lambda ids: Matroid.uniform(2, ids[:2]),
    ]
    for trial in range(120):
        mk = rng.choice(base_pool)
        a = mk(list(range(1, 9)))
        b = mk(list(range(20, 28)))
        p1 = rng.choice(sorted(a.ground_set))
        relabel = {e: (p1 if i == 0 else e) for i, e in enumerate(sorted(b.ground_set))}
        b2 = Matroid([relabel[e] for e in b.elements], b.table)
        if p1 not in b2.ground_set:
            continue
        deletions = [p1] if rng.random() < 0.5 else []
        try:
            g = glue(a, b2, Matroid.single(p1), deletions)
        except (GluePreconditionError, DomainError):
            continue
        assert g.rank_axiom_violation() is None
