"""One validation walk, each rank-level verdict once per key.

``AmalgamDecomposition.validate`` derives every node's ground set,
positions, checks and raw shape in one postorder walk.  Its reports are
pinned against the multi-pass validator it replaced: over the same
mutated corpus trees they keep that validator's codes, nodes, messages,
their order and the width, except that a node whose K breaks the rank
axioms is now reported as ``glue-broken`` alone.
"""

import hashlib
import json

import numpy as np
from hypothesis import HealthCheck, given, settings

from amwidth import cli, decomposition, files, zoo
from amwidth.amalgam import is_modular_semiflat
from amwidth.branch import from_branch_decomposition
from amwidth.config import FLATS_CAP
from amwidth.decomposition import AmalgamDecomposition
from amwidth.matroid import Matroid, positions_of, restricted_table
from amwidth.tutte import tutte_decomposition
from amwidth.types_dp import canonical_shape

import reference
from test_generated import matroids_with_branch_trees
from test_shapes import _cycle_polynomial

# sha256 of the reports of ``_mutants`` over the corpus decompositions,
# one "<tree> <mutant>\n<report>" entry per mutant joined by blank lines
MUTANT_DIGEST = "884850553d957eaf0882659e0aba2a494d6268dc502787aaba9ba752e50d650c"
MUTANT_COUNT = 1288


def _broken(k):
    """k with the rank of its whole ground set raised by one.  For most K
    that breaks the rank axioms, and a node over it is ``glue-broken``."""
    table = np.array(k.table)
    table[-1] += 1
    return Matroid(k.elements, table)


def _mutants(tree):
    """(label, tree) for one-field changes of each node, and one cycle."""
    nodes = tree.nodes
    stray = 1 + max(e for node in nodes.values() for e in node.K.elements)
    pair = Matroid.uniform(1, [stray, stray + 1])
    for v in tree.postorder():
        node = nodes[v]
        k = node.K.ground_set
        if node.is_leaf:
            changes = [("leaf-d", {"D": k}), ("leaf-j1", {"J1": k}), ("leaf-k", {"K": pair})]
        else:
            j1, j2, d = node.J1, node.J2, node.D
            changes = [
                ("swap", {"J1": j2, "J2": j1}),
                ("children", {"children": node.children[::-1]}),
                ("one-child", {"children": node.children[:1]}),
                ("j1-stray", {"J1": j1 | {stray}}),
                ("j2-stray", {"J2": j2 | {stray}}),
                ("d-stray", {"D": d | {stray}}),
                ("j1-all", {"J1": k}),
                ("broken", {"K": _broken(node.K)}),
                ("free", {"K": Matroid.uniform(len(k), node.K.elements)}),
                ("line", {"K": Matroid.uniform(min(2, len(k)), node.K.elements)}),
                ("loops", {"K": Matroid.uniform(0, node.K.elements)}),
            ]
            if j1 & j2:
                changes.append(("shrink", {"K": node.K.delete({min(j1 & j2)})}))
            if j1:
                changes.append(("drop-j1", {"J1": j1 - {min(j1)}}))
            if j2:
                changes.append(("drop-j2", {"J2": j2 - {min(j2)}}))
            if k - d:
                changes.append(("add-d", {"D": d | {min(k - d)}}))
            if d:
                changes.append(("drop-d", {"D": d - {min(d)}}))
        for label, fields in changes:
            out = {**nodes, v: node._replace(**fields)}
            yield f"{v} {label}", AmalgamDecomposition(out.values(), tree.root)
    top = nodes[tree.root]
    if top.children and not nodes[top.children[0]].is_leaf:
        c = top.children[0]
        cyclic = nodes[c]._replace(children=(tree.root, *nodes[c].children[1:]))
        yield "cycle", AmalgamDecomposition({**nodes, c: cyclic}.values(), tree.root)


def _mutant_reports(corpus_decompositions):
    entries = []
    for name, tree in sorted(corpus_decompositions.items()):
        for label, mutant in _mutants(tree):
            entries.append(f"{name} {label}\n{mutant.validate()}")
    return entries


def test_mutated_corpus_reports_pinned(corpus_decompositions):
    entries = _mutant_reports(corpus_decompositions)
    codes = {line.split()[1] for e in entries for line in e.splitlines()[2:]}
    assert codes == {
        "arity:", "boundary-mismatch:", "deletions-not-in-glue:", "glue-broken:",
        "leaf-sets:", "leaf-size:", "restriction-j1:", "restriction-j2:",
        "semiflat-j1:", "semiflat-j2:", "shared-not-in-glue:", "structure:",
    }
    digest = hashlib.sha256("\n\n".join(entries).encode()).hexdigest()
    assert (len(entries), digest) == (MUTANT_COUNT, MUTANT_DIGEST)


def test_broken_glue_is_reported_alone(corpus_decompositions):
    # K's rank axioms are checked before the other rank-level checks,
    # which would only read the broken table
    mutants = dict(_mutants(corpus_decompositions["padded5-c6"]))
    report = mutants["t7 broken"].validate()
    assert [(v.node, v.code) for v in report.violations] == [("t7", "glue-broken")]


def _one_point_tree():
    """Two loose points under a U(2,17) glue matroid: one-element
    boundaries in a K past the flat-enumeration cap."""
    tb = zoo.TreeBuilder()
    k = Matroid.uniform(2, range(1, 18))
    return tb.done(tb.glue(tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), k))


def test_one_element_boundaries_skip_flat_enumeration(tmp_path, capsys):
    # the flat enumeration of is_modular_semiflat refuses 17 elements, but
    # a point is a modular semiflat in any matroid
    tree = _one_point_tree()
    assert len(tree.nodes[tree.root].K.elements) > FLATS_CAP
    assert str(tree.validate()) == "valid, width 17"
    path = tmp_path / "wide.json"
    path.write_text(files.dumps(files.decomposition_to_obj(tree)))
    assert cli.main(["validate", "-d", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True, "width": 17, "violations": []}


def _small_matroids(corpus_dir, corpus_decompositions):
    paths = sorted((corpus_dir / "matroids").glob("*.json"))
    paths += sorted((corpus_dir / "branch").glob("*.matroid.json"))
    for path in paths:
        yield path.name, files.load_matroid(path)
    for name, tree in sorted(corpus_decompositions.items()):
        for v, node in sorted(tree.nodes.items()):
            yield f"{name}:{v}", node.K
    yield "triangle", zoo.triangle(1, 2, 3)
    yield "k4", zoo.k4_graphic()
    yield "fano", zoo.fano()
    yield "cycle6", zoo.cycle_graphic(range(1, 7))
    yield "path4", zoo.path_graphic(range(1, 5))
    yield "u24", Matroid.uniform(2, range(1, 5))
    yield "u36", Matroid.uniform(3, range(1, 7))
    yield "loops", Matroid.uniform(0, range(1, 4))
    yield "parallel", Matroid.uniform(1, range(1, 5))
    yield "empty", Matroid.empty()


def test_one_element_shortcut_agrees_with_flat_enumeration(corpus_dir, corpus_decompositions):
    checked = 0
    for name, m in _small_matroids(corpus_dir, corpus_decompositions):
        assert m.size <= FLATS_CAP
        flats = reference.flats(m)
        for subset in [[], *([e] for e in m.elements)]:
            want = reference.is_modular_semiflat(m, subset, flats)
            assert is_modular_semiflat(m, subset) == want, (name, subset)
            pos = positions_of(m._index, subset)
            got = decomposition._Verdicts().semiflat(m, subset, pos)
            assert got == (want, None), (name, subset)
            checked += 1
    assert checked > 300


def test_one_restricted_table_per_key(monkeypatch):
    # every restriction check of the chain reads tables kept per (table
    # key, positions): the 300 triangle nodes share a handful
    made = []

    def counted(m, pos):
        made.append((m.key, pos))
        return restricted_table(m, pos)

    monkeypatch.setattr(decomposition, "restricted_table", counted)
    tree = zoo.triangle_chain(300)
    tree.prepared()
    assert tree.validate().ok
    assert 1 <= len(made) <= 8
    assert len(set(made)) == len(made)
    assert reference.coeffs(tutte_decomposition(tree)) == _cycle_polynomial(302)


@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=matroids_with_branch_trees())
def test_generated_trees_walk_matches_reference(case):
    # the converted trees of test_generated: valid at their width, and the
    # walk's positions and shapes equal node_shape's from ids
    m, b = case
    tree = from_branch_decomposition(m, b)
    width = max(len(node.K.elements) for node in tree.nodes.values())
    assert str(tree.validate()) == f"valid, width {width}"
    for t in {id(t): t for t in (tree, tree.prepared())}.values():
        shapes = t.shapes()
        for v in t.postorder():
            node = t.nodes[v]
            raw = reference.node_shape(node.K, node.J1, node.J2, t.boundary(v), node.D)
            assert (node.K.key, *t.positions()[v]) == raw, v
            assert shapes[v] == canonical_shape(raw), v
        assert len(reference.ground(t, t.root)) == len(t.ground())
