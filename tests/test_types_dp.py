"""Node types, extended types, and their joins against the realized oracle."""

import random

import pytest

from amwidth import files, zoo
from amwidth.branch import from_branch_decomposition
from amwidth.errors import DomainError
from amwidth.matroid import Matroid
from amwidth.types_dp import JoinContext, canonical_shape, leaf_signatures

import oracles
from conftest import CORPUS
from test_branch import caterpillar
from test_decomposition import twosum_tree
from test_kernels import _mask_map_oracle
from test_leaves import TREES


def sweep_trees():
    return {
        "twosum": twosum_tree(),
        "chain3": zoo.triangle_chain(3),
        "parallel6": zoo.parallel_elements_tree(6),
        "u24comb": zoo.comb(Matroid.uniform(2, [1, 2, 3, 4])),
    }


def fano_width7_tree():
    """An 8-element GF(2) rank-3 matroid converted at width 7: the glue
    spans of this leaf order are Fano planes, so parent boundaries reach 3
    or more elements and closures are nontrivial."""
    cols = {
        1: (1, 0, 0), 2: (0, 1, 0), 3: (1, 1, 0), 4: (0, 0, 1),
        5: (1, 0, 1), 6: (1, 0, 0), 7: (0, 1, 1), 8: (1, 1, 1),
    }
    m = Matroid.from_linear(cols, 2)
    return from_branch_decomposition(m, caterpillar([1, 4, 2, 6, 3, 5, 8, 7])).prepared()


def test_context_tables_match_bit_loops():
    # every distinct canonical shape of the corpus' prepared trees: the
    # tables a context reads equal bit-by-bit loops over its positions,
    # also where the parent boundary shares K positions with J1 or J2
    paths = sorted((CORPUS / "decompositions").glob("*.json"))
    trees = [(p.name, files.load_decomposition(p)) for p in paths]
    trees.append(("triangle_chain(9, pad=3)", zoo.triangle_chain(9, pad=3)))
    shared = {}
    for name, tree in trees:
        shapes = tree.prepared().shapes()
        for table, pos1, pos2, pos_parent, dmask in {s for s, _ in shapes.values()}:
            n = len(table).bit_length() - 1
            ctx = JoinContext((table, pos1, pos2, pos_parent, dmask))
            for pos, scatter, gather in (
                (pos1, ctx.scatter1, ctx.gather1),
                (pos2, ctx.scatter2, ctx.gather2),
                (pos_parent, ctx.parent.scatter.tolist(), ctx.gather_parent),
            ):
                assert (scatter, gather) == _mask_map_oracle(n, pos), (name, pos)
            fresh = [p for p in range(n) if p not in (*pos1, *pos2) and not dmask >> p & 1]
            assert ctx.fresh_masks == _mask_map_oracle(n, fresh)[0], name
        shared[name] = sum(
            bool(set(s[3]) & {*s[1], *s[2]}) for s, _ in shapes.values()
        )
    assert {k: v for k, v in shared.items() if v} == {
        "k3k3-directsum.json": 1, "u13-comb.json": 1, "u24-comb.json": 2
    }


def test_type_map_properties():
    for tree in (twosum_tree(), zoo.triangle_chain(3)):
        for v in tree.postorder():
            for tracked in oracles.subsets(tree.ground()):
                nt = oracles.extended_type_of(tree, v, tracked).base
                j = len(tree.boundary(v))
                assert len(nt) == 1 << j
                for ymask in range(1 << j):
                    fy = nt[ymask]
                    assert fy & ymask == ymask  # extensive
                    assert nt[fy] == fy  # idempotent
                    for other in range(1 << j):
                        if other & ymask == ymask:
                            assert nt[other] & fy == fy  # monotone


def test_type_trivial_cases():
    tree = zoo.triangle_chain(2)
    # loop-free nodes: type of the empty set maps empty to empty
    for v in tree.postorder():
        nt = oracles.extended_type_of(tree, v, []).base
        assert nt[0] == 0
        full = (1 << len(tree.boundary(v))) - 1
        assert nt[full] == full


def test_join_identity_reflections():
    # children with identity type maps: join(Y) = cl_K(Y) & J
    k = zoo.triangle(1, 2, 3)
    f_id = (0,)
    ctx = JoinContext(oracles.node_shape(k, [], [], [1, 2, 3]))
    got = ctx.join_types(f_id, f_id, k.mask_of([]))
    for ymask in range(8):
        ym = k.mask_of([e for i, e in enumerate((1, 2, 3)) if ymask >> i & 1])
        want = k.closure_mask(ym)
        assert got[ymask] == want


def test_join_matches_type_of_everywhere():
    for name, tree in sweep_trees().items():
        assert tree.validate().ok
        rng = random.Random(11)
        for v in tree.postorder():
            node = tree.nodes[v]
            if node.is_leaf:
                continue
            c1, c2 = node.children
            pool = list(oracles.subsets(sorted(oracles.ground(tree, v))))
            if len(pool) > 40:
                pool = rng.sample(pool, 40)
            for tracked in pool:
                tracked = frozenset(tracked)
                f1 = oracles.extended_type_of(tree, c1, tracked).base
                f2 = oracles.extended_type_of(tree, c2, tracked).base
                j1, j2, jp = sorted(node.J1), sorted(node.J2), sorted(tree.boundary(v))
                ctx = JoinContext(oracles.node_shape(node.K, j1, j2, jp))
                got = ctx.join_types(f1, f2, node.K.mask_of(tracked & node.K.ground_set))
                assert got == oracles.extended_type_of(tree, v, tracked).base, (name, v, tracked)


def test_extended_join_matches_oracle():
    for name, tree in sweep_trees().items():
        rng = random.Random(3)
        for v in tree.postorder():
            node = tree.nodes[v]
            if node.is_leaf:
                continue
            c1, c2 = node.children
            pool = list(oracles.subsets(sorted(oracles.ground(tree, v))))
            if len(pool) > 32:
                pool = rng.sample(pool, 32)
            for tracked in pool:
                tracked = frozenset(tracked)
                e1 = oracles.extended_type_of(tree, c1, tracked)
                e2 = oracles.extended_type_of(tree, c2, tracked)
                fresh = tracked & node.K.ground_set - node.J1 - node.J2
                j1, j2, jp = sorted(node.J1), sorted(node.J2), sorted(tree.boundary(v))
                ctx = JoinContext(oracles.node_shape(node.K, j1, j2, jp, node.D))
                got, delta = ctx.extended_join(e1, e2, node.K.mask_of(fresh))
                want = oracles.extended_type_of(tree, v, tracked)
                assert got == want, (name, v, tracked)
                m = tree.realize(v)
                m1 = tree.realize(c1)
                m2 = tree.realize(c2)
                want_delta = (
                    m.rank(tracked & m.ground_set)
                    - m1.rank(tracked & m1.ground_set)
                    - m2.rank(tracked & m2.ground_set)
                )
                assert delta == want_delta, (name, v, tracked)


def test_joined_offsets_and_fixpoints_match_realized_ranks():
    # a joined signature reads its offsets off its closure map, and each
    # parent subset's fixed point grows from a smaller subset's: check both
    # against ranks on the realized M(v) and against one fixpoint per subset
    trees = {**sweep_trees(), "fano7": fano_width7_tree()}
    for name, tree in trees.items():
        rng = random.Random(7)
        widest = nontrivial = 0
        for v in tree.postorder():
            node = tree.nodes[v]
            if node.is_leaf:
                continue
            c1, c2 = node.children
            jp = sorted(tree.boundary(v))
            ctx = JoinContext(oracles.node_shape(node.K, node.J1, node.J2, jp, node.D))
            m = tree.realize(v)
            pool = list(oracles.subsets(sorted(oracles.ground(tree, v))))
            if len(pool) > 24:
                pool = rng.sample(pool, 24)
            for tracked in pool:
                tracked = frozenset(tracked)
                e1 = oracles.extended_type_of(tree, c1, tracked)
                e2 = oracles.extended_type_of(tree, c2, tracked)
                fresh = tracked & node.K.ground_set - node.J1 - node.J2
                got, _ = ctx.extended_join(e1, e2, node.K.mask_of(fresh))
                x = m.mask_of(tracked & m.ground_set)
                for ymask, offset in enumerate(got.offsets):
                    y = m.mask_of([e for i, e in enumerate(jp) if ymask >> i & 1])
                    assert offset == m.rank_mask(x | y) - m.rank_mask(x), (name, v, tracked)
                    nontrivial |= got.base[ymask] != ymask
                xk = node.K.mask_of(tracked & node.K.ground_set)
                t1, t2 = e1.base, e2.base
                want = tuple(ctx.fixpoint(t1, t2, ym | xk) for ym in ctx.parent.scatter)
                assert ctx.fixpoints(t1, t2, xk) == want, (name, v, tracked)
            widest = max(widest, len(jp))
        if name == "fano7":
            assert widest >= 3 and nontrivial


def test_extended_type_invariants():
    for name, tree in sweep_trees().items():
        for v in tree.postorder():
            for tracked in list(oracles.subsets(sorted(oracles.ground(tree, v))))[:24]:
                e = oracles.extended_type_of(tree, v, tracked)
                j = len(tree.boundary(v))
                assert e.offsets[0] == 0
                for ymask in range(1 << j):
                    assert 0 <= e.offsets[ymask] <= j
                    for b in range(j):
                        if not ymask >> b & 1:
                            up = e.offsets[ymask | (1 << b)] - e.offsets[ymask]
                            assert up in (0, 1)


def test_tracked_set_in_deletions_rejected():
    tree = twosum_tree()
    node = tree.nodes[tree.root]
    c1, c2 = node.children
    e1 = oracles.extended_type_of(tree, c1, [10])
    e2 = oracles.extended_type_of(tree, c2, [10])
    j1, j2, jp = sorted(node.J1), sorted(node.J2), sorted(tree.boundary(tree.root))
    ctx = JoinContext(oracles.node_shape(node.K, j1, j2, jp, node.D))
    with pytest.raises(DomainError):
        ctx.extended_join(e1, e2, node.K.mask_of([]))


def test_fixpoint_terminates_quickly():
    tree = zoo.triangle_chain(4)
    for v in tree.postorder():
        node = tree.nodes[v]
        if node.is_leaf:
            continue
        ctx = JoinContext(oracles.node_shape(node.K, node.J1, node.J2, tree.boundary(v), node.D))
        f1 = oracles.extended_type_of(tree, node.children[0], []).base
        f2 = oracles.extended_type_of(tree, node.children[1], []).base
        # the fixpoint loop is bounded by |E(K)| + 1 rounds by construction;
        # reaching a fixed point must happen within that bound
        for seed in range(1 << node.K.size):
            z = ctx.fixpoint(f1, f2, seed)
            z2 = ctx.fixpoint(f1, f2, z)
            assert z2 == z


def test_leaf_signatures_cover_subsets():
    k = zoo.triangle(1, 2, 3)
    rows = leaf_signatures(k, [1, 2])
    assert len(rows) == 8  # one row per subset, indexed by its K-mask
    for xmask, (r, s, sig) in enumerate(rows):
        subset = k.set_of(xmask)
        assert r == k.rank(subset)
        assert s == len(subset)
        assert sig.trace == sum(
            1 << i for i, e in enumerate((1, 2)) if e in subset
        )


def _record_trees():
    for path in sorted((CORPUS / "decompositions").glob("*.json")):
        yield path.name, files.load_decomposition(path)
    yield "triangle_chain(50, pad=2)", zoo.triangle_chain(50, pad=2)
    for name, make in sorted(TREES.items()):
        yield name, make()


def test_positions_record_equals_node_shape():
    # each node's record, computed once per tree, against its shape
    # recomputed from the ids, on the loaded tree and on the prepared one
    count = 0
    for name, tree in _record_trees():
        for t in {id(t): t for t in (tree, tree.prepared())}.values():
            for v in t.postorder():
                node = t.nodes[v]
                want = oracles.node_shape(node.K, node.J1, node.J2, t.boundary(v), node.D)
                assert (node.K.key, *t.positions()[v]) == want, (name, v)
                count += 1
            assert t.positions() is t.positions(), name
    assert count > 300


def test_tree_shapes_are_the_canonical_node_shapes():
    # each prepared node's canonical shape and K order, computed once per
    # tree and once per distinct raw shape, against node_shape's from ids
    count = 0
    for name, tree in _record_trees():
        t = tree.prepared()
        shapes = t.shapes()
        assert t.shapes() is shapes
        by_raw = {}
        for v in t.postorder():
            node = t.nodes[v]
            raw = oracles.node_shape(node.K, node.J1, node.J2, t.boundary(v), node.D)
            assert shapes[v] == canonical_shape(raw), (name, v)
            assert by_raw.setdefault(raw, shapes[v]) is shapes[v], (name, v)
            count += 1
    assert count > 250
