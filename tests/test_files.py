"""Loading: byte-identical round trips, and rank tables shared per structure."""

import json

import numpy as np
import pytest

from amwidth import files, kernels, zoo
from amwidth.errors import ResourceError
from amwidth.matroid import Matroid

import oracles
from conftest import CORPUS


def _corpus_files():
    out = sorted((CORPUS / "decompositions").glob("*.json"))
    out += sorted((CORPUS / "matroids").glob("*.json"))
    out += sorted((CORPUS / "branch").glob("*.matroid.json"))
    return out


def test_corpus_files_round_trip_byte_identical():
    paths = _corpus_files()
    assert len(paths) == 32
    for path in paths:
        text = path.read_text()
        if path.parent.name == "decompositions":
            obj = files.decomposition_to_obj(files.load_decomposition(path))
        else:
            obj = files.matroid_to_obj(files.load_matroid(path))
        assert files.dumps(obj) == text, path.name


def _alone(obj):
    """The matroid an object describes, built on its own: no shared table."""
    names = {int(k): v for k, v in obj.get("names", {}).items()}
    if obj["type"] == "graphic":
        edges = {int(e): tuple(uv) for e, uv in obj["edges"].items()}
        return Matroid.from_graph(edges, names=names)
    if obj["type"] == "linear":
        columns = {int(e): v for e, v in obj["columns"].items()}
        return Matroid.from_linear(columns, obj["field"], names=names)
    ranks = {
        frozenset(int(x) for x in key.split(",") if x): value
        for key, value in obj["rank"].items()
    }
    return Matroid.from_rank_function(obj["elements"], ranks.__getitem__, names=names)


def _assert_nodes_built_alone(obj):
    tree = files.decomposition_from_obj(obj)
    for nid, entry in obj["nodes"].items():
        got, want = tree.nodes[str(nid)].K, _alone(entry["K"])
        assert got.elements == want.elements, nid
        assert got.table.tobytes() == want.table.tobytes(), nid
        assert got.graph == want.graph and got.linear == want.linear, nid
        assert got.names == want.names, nid
        assert not got.table.flags.writeable, nid
    return tree


def test_loaded_nodes_equal_their_own_objects_on_corpus():
    for path in sorted((CORPUS / "decompositions").glob("*.json")):
        _assert_nodes_built_alone(json.loads(path.read_text()))


def test_loaded_nodes_equal_their_own_objects_on_reordered_chain():
    # the chain's triangles with their edges listed in different orders,
    # some with renamed or swapped endpoints
    obj = files.decomposition_to_obj(zoo.triangle_chain(12, pad=2))
    glue = [entry["K"] for entry in obj["nodes"].values() if entry["K"]["type"] == "graphic"]
    assert len(glue) == 12
    for i, k in enumerate(glue):
        items = list(k["edges"].items())
        shift = i % len(items)
        items = items[shift:] + items[:shift]
        if i % 3 == 1:
            items = [(e, [u + 7, v + 7]) for e, (u, v) in items]
        if i % 4 == 2:
            items = [(e, [v, u]) for e, (u, v) in items]
        k["edges"] = dict(items)
        k["names"] = {items[0][0]: f"first of {i}"}
    tree = _assert_nodes_built_alone(obj)
    tables = {id(node.K.table) for node in tree.nodes.values()}
    assert len(tables) < len(glue)


# asymmetric structures, so that a table shared across element orders shows
_GRAPH = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 2), (3, 3)]
_COLUMNS = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1), (0, 0, 0), (2, 2, 2)]


def _reordered_objects(rng):
    """Graphic and GF(3) objects in shuffled element orders and explicit
    restrictions of the graph to random 4-sets, each twice under different
    ids, as leaves of one decomposition object."""
    graph = Matroid.from_graph(dict(enumerate(_GRAPH)))
    out = []
    for i in range(24):
        order = rng.permutation(len(_GRAPH)).tolist()
        rename = rng.permutation(10).tolist()
        edges = [[rename[_GRAPH[j][0]], rename[_GRAPH[j][1]]] for j in order]
        if i % 2:
            edges = [[v, u] for u, v in edges]
        order = rng.permutation(len(_COLUMNS)).tolist()
        columns = [list(_COLUMNS[j]) for j in order]
        explicit = files.matroid_to_obj(graph.restrict(rng.permutation(6)[:4].tolist()))
        for base in (100 * i, 100 * i + 50):
            ids = [str(base + j) for j in range(len(_COLUMNS))]
            names = {ids[0]: f"first of {base}"}
            out.append({"type": "graphic", "edges": dict(zip(ids, edges)), "names": names})
            out.append(
                {"type": "linear", "field": 3, "columns": dict(zip(ids, columns)), "names": names}
            )
            relabel = dict(zip(map(str, explicit["elements"]), ids))
            ranks = {
                ",".join(relabel[x] for x in key.split(",") if x): r
                for key, r in explicit["rank"].items()
            }
            elements = list(map(int, ids[:4]))
            out.append({"type": "explicit", "elements": elements, "rank": ranks, "names": names})
    return {"root": "0", "nodes": {str(n): {"children": [], "K": k} for n, k in enumerate(out)}}


def test_loaded_nodes_equal_their_own_objects_in_any_element_order():
    obj = _reordered_objects(np.random.default_rng(5))
    tree = _assert_nodes_built_alone(obj)
    ks = [tree.nodes[str(n)].K for n in range(len(obj["nodes"]))]
    # each object's twin, three nodes on, shares its table
    for n in range(0, len(ks), 6):
        for k, twin in zip(ks[n : n + 3], ks[n + 3 : n + 6]):
            assert twin.table is k.table
    assert len({id(k.table) for k in ks}) < len(ks) // 2


def test_table_kernels_run_once_per_distinct_structure(tmp_path, monkeypatch):
    path = tmp_path / "chain.json"
    path.write_text(files.dumps(files.decomposition_to_obj(zoo.triangle_chain(300))))
    graphs, checked = [], []
    build, check = kernels.graphic_rank_table, kernels.check_rank_axioms

    def counted_build(eu, ev, nv):
        graphs.append((tuple(eu), tuple(ev), nv))
        return build(eu, ev, nv)

    def counted_check(tbl, n):
        checked.append(np.asarray(tbl).tobytes())
        return check(tbl, n)

    monkeypatch.setattr(kernels, "graphic_rank_table", counted_build)
    monkeypatch.setattr(kernels, "check_rank_axioms", counted_check)
    tree = files.load_decomposition(path)
    assert len(tree.nodes) == 601
    # the chain's triangles list their edges in a few orders only
    assert len(graphs) == len(set(graphs)) and 1 <= len(graphs) <= 7
    assert len(checked) == len(set(checked)) and 1 <= len(checked) <= 2


def test_shared_table_is_kept_and_a_writable_one_copied():
    m = Matroid.uniform(1, [1, 2])
    assert not m.table.flags.writeable
    assert Matroid([3, 4], m.table).table is m.table
    writable = np.array([0, 1, 1, 1], dtype=np.int8)
    copy = Matroid([3, 4], writable).table
    assert copy is not writable and not copy.flags.writeable
    view = writable.view()
    view.setflags(write=False)
    assert Matroid([3, 4], view).table is not view  # its base can still be written


def _structure(k):
    """What the loader builds a table from: the endpoint pairs numbered by
    first appearance for a graphic matroid, the table for an explicit one."""
    if k.graph is None:
        return k.key
    number = {}
    return tuple(number.setdefault(v, len(number)) for e in k.elements for v in k.graph.edges[e])


def _as_independent_sets(tree):
    """The tree's object with every K of more than one element written
    as the list of its bases."""
    obj = files.decomposition_to_obj(tree)
    for nid, node in tree.nodes.items():
        k = node.K
        if k.size > 1:
            full = k.rank()
            bases = [
                sorted(k.set_of(m))
                for m in range(1 << k.size)
                if k.rank_mask(m) == m.bit_count() == full
            ]
            obj["nodes"][nid]["K"] = {
                "type": "explicit",
                "elements": sorted(k.elements),
                "independent_sets": bases,
            }
    return obj


def test_nodes_of_one_structure_share_one_key_object(tmp_path):
    chain = zoo.triangle_chain(300)
    for obj in (files.decomposition_to_obj(chain), _as_independent_sets(chain)):
        path = tmp_path / "chain.json"
        path.write_text(files.dumps(obj))
        tree = files.load_decomposition(path)
        keys, first = {}, {}
        for nid, node in tree.nodes.items():
            assert keys.setdefault(_structure(node.K), node.K.key) is node.K.key, nid
            assert type(node.K.key) is bytes and node.K.key == node.K.table.tobytes(), nid
            shape = oracles.node_shape(node.K, node.J1, node.J2, tree.boundary(nid), node.D)
            assert shape[0] is node.K.key, nid
            # one table view and one closure cache per structure, too
            k = first.setdefault(_structure(node.K), node.K)
            assert node.K.table is k.table, nid
            assert node.K.closure_table() is k.closure_table(), nid
        assert len(keys) <= 8 < len(tree.nodes)


def test_independent_sets_are_checked_once_per_structure(monkeypatch):
    obj = _as_independent_sets(zoo.triangle_chain(50))
    checked = []
    check = kernels.check_rank_axioms

    def counted_check(tbl, n):
        checked.append(np.asarray(tbl).tobytes())
        return check(tbl, n)

    monkeypatch.setattr(kernels, "check_rank_axioms", counted_check)
    tree = files.decomposition_from_obj(obj)
    # one triangle, on 50 nodes, and one single element, on 51
    assert len(tree.nodes) == 101
    assert len(checked) == len(set(checked)) == 2
    assert tree.validate().ok


def test_only_a_new_table_is_checked_against_the_cap(tmp_path, monkeypatch):
    path = tmp_path / "chain.json"
    path.write_text(files.dumps(files.decomposition_to_obj(zoo.triangle_chain(20))))
    tree = files.load_decomposition(path)
    monkeypatch.setenv("AMALGAM_MAX_ELEMENTS", "1")
    for node in tree.nodes.values():
        k = node.K
        shared = Matroid(k.elements[::-1], k.table)
        assert shared.table is k.table and shared.key is k.key
        if k.size > 1:
            with pytest.raises(ResourceError):
                Matroid(k.elements, np.array(k.table))
    # a view over mutable bytes, or over part of some bytes, is a new table
    with pytest.raises(ResourceError):
        Matroid([1, 2], np.frombuffer(bytearray([0, 1, 1, 1]), dtype=np.int8))
    part = np.frombuffer(bytes([0, 1, 1, 1]), dtype=np.int8, count=2)
    assert Matroid([1], part).key == bytes([0, 1])
