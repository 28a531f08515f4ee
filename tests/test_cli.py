"""Command-line exit codes on malformed or oversized inputs."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from amwidth import cli, files, linalg, zoo
from amwidth.branch import from_branch_decomposition
from amwidth.config import CIRCUITS_CAP, NAIVE_MSO_CAP, table_cap
from amwidth.matroid import Matroid
from amwidth.mso import compiled
from amwidth.tutte import TuttePolynomial, tutte_bruteforce

import reference
from conftest import ROOT
from test_branch import caterpillar
from test_mso_parser import nested_formula


def _text(obj):
    """JSON text of ``obj``; a string is already the text."""
    return obj if isinstance(obj, str) else json.dumps(obj)


def _write(path, obj):
    path.write_text(_text(obj))
    return str(path)


# past the interpreter's default limit on converting integers to text
_LONG_INT = "1" * 5000


def test_explicit_rank_table_checked(tmp_path, capsys):
    # r({1,2}) = 0 below r({1}) = 1: not a matroid
    path = _write(
        tmp_path / "bad.json",
        {"type": "explicit", "elements": [1, 2], "rank": {"": 0, "1": 1, "2": 1, "1,2": 0}},
    )
    for argv in (["info", "-m", path], ["tutte", "--brute", "-m", path]):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: rank table breaks the unit-increase axiom")
        assert "[2] and [1, 2]" in captured.err
        assert "Traceback" not in captured.err


def test_explicit_rank_out_of_range(tmp_path, capsys):
    path = _write(
        tmp_path / "big.json",
        {"type": "explicit", "elements": [1], "rank": {"": 0, "1": 300}},
    )
    assert cli.main(["info", "-m", path]) == 1
    assert "rank of [1] must lie between 0 and its size" in capsys.readouterr().err


def test_explicit_rank_table_accepted(tmp_path, capsys):
    path = _write(
        tmp_path / "u12.json",
        {"type": "explicit", "elements": [1, 2], "rank": {"": 0, "1": 1, "2": 1, "1,2": 1}},
    )
    assert cli.main(["info", "-m", path]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 1


def test_convert_caps_glue_span_before_enumerating(tmp_path, capsys, monkeypatch):
    # six points in general position in GF(7)^3: a 3-dimensional glue span
    # has 57 projective points, over the rank-table cap
    cols = {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1), 4: (1, 1, 1), 5: (1, 2, 3), 6: (1, 4, 2)}
    mpath = _write(tmp_path / "m.json", {"type": "linear", "field": 7, "columns": cols})
    bpath = _write(tmp_path / "b.json", files.branch_to_obj(caterpillar(range(1, 7))))
    enumerated = []
    original = linalg.span_vectors

    def recording(basis, p):
        enumerated.append(linalg.point_count(len(basis), p))
        return original(basis, p)

    monkeypatch.setattr(linalg, "span_vectors", recording)
    assert cli.main(["convert", "-m", mpath, "-b", bpath]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource error: glue matroid")
    assert "got 57" in err
    assert max(enumerated, default=0) <= table_cap()


def _chain_decomposition(**node_fields):
    """Two single-element leaves glued along a triangle; fields override the root."""
    leaf = {"children": [], "K": {"type": "explicit", "elements": [1], "rank": {"": 0, "1": 1}}}
    root = {
        "children": ["a", "b"],
        "K": {"type": "graphic", "edges": {"1": [0, 1], "2": [1, 2], "3": [0, 2]}},
        "J1": [1],
        "J2": [2],
        "D": [1, 2],
    }
    root.update(node_fields)
    other = dict(leaf, K=dict(leaf["K"], elements=[2], rank={"": 0, "2": 1}))
    return {"root": "r", "nodes": {"r": root, "a": leaf, "b": other}}


MALFORMED_MATROIDS = {
    "rank value": ({"type": "explicit", "elements": [1], "rank": {"": 0, "1": "x"}}, "rank of '1'"),
    "rank key": ({"type": "explicit", "elements": [1], "rank": {"": 0, "a": 1}}, "element id"),
    "rank key id": (
        {"type": "explicit", "elements": [1], "rank": {"": 0, "1": 1, "1,9": 1}},
        "rank key '1,9' names 9",
    ),
    "rank key twice": (
        {
            "type": "explicit",
            "elements": [1, 2],
            "rank": {"": 0, "1": 1, "2": 1, "1,2": 2, "2,1": 1},
        },
        "rank key '2,1' gives subset [1, 2] a second time",
    ),
    "rank missing": (
        {"type": "explicit", "elements": [1, 2], "rank": {"": 0, "1": 1, "2": 1}},
        "rank table is missing subset [1, 2]",
    ),
    "element": ({"type": "explicit", "elements": [[1]], "rank": {"": 0}}, "element id"),
    "column id": ({"type": "linear", "field": 2, "columns": {"a": [1, 0]}}, "column id"),
    "residue": ({"type": "linear", "field": 3, "columns": {"1": [1, "q"]}}, "residues of column"),
    "residues": ({"type": "linear", "field": 3, "columns": {"1": 5}}, "residues of column"),
    "field": ({"type": "linear", "field": 2.5, "columns": {"1": [1]}}, "field"),
    "endpoints": ({"type": "graphic", "edges": {"1": [1, "x"], "2": [0, 1]}}, "endpoints"),
    "edge id": ({"type": "graphic", "edges": {"e": [0, 1]}}, "edge id"),
    "names": ({"type": "graphic", "edges": {"1": [0, 1]}, "names": {"x": "a"}}, "names key"),
    "edge id twice": (
        {"type": "graphic", "edges": {"1": [0, 1], "01": [1, 2]}},
        "edges keys '1' and '01' both name id 1",
    ),
    "column id twice": (
        {"type": "linear", "field": 2, "columns": {"2": [1, 0], "+2": [0, 1]}},
        "columns keys '2' and '+2' both name id 2",
    ),
    "names id": (
        {"type": "graphic", "edges": {"1": [0, 1], "2": [1, 2]}, "names": {"7": "x"}},
        "names key 7",
    ),
    "names key twice": (
        {"type": "graphic", "edges": {"1": [0, 1]}, "names": {"1": "a", " 1": "b"}},
        "names keys '1' and ' 1' both name id 1",
    ),
    "sets": (
        {"type": "explicit", "elements": [1], "independent_sets": [["one"]]},
        "independent set",
    ),
    "set list": (
        {"type": "explicit", "elements": [1], "independent_sets": 5},
        "independent_sets must be a list",
    ),
    "sets not a matroid": (
        {"type": "explicit", "elements": [1, 2, 3, 4], "independent_sets": [[1, 2], [3, 4]]},
        "independent sets break the submodularity axiom at subsets [1, 3] and [2, 3]",
    ),
    "no type": ({"elements": [1], "rank": {"": 0, "1": 1}}, "needs a 'type' field"),
    "not an object": ([1], "needs a 'type' field"),
    "no field": ({"type": "linear", "columns": {"1": [1]}}, "needs 'field' and 'columns'"),
    "no columns": ({"type": "linear", "field": 2}, "needs 'field' and 'columns'"),
    "no edges": ({"type": "graphic"}, "graphic matroid needs 'edges'"),
    "edge pair": (
        {"type": "graphic", "edges": {"1": [0, 1, 2]}},
        "edge '1' must be a pair of vertices",
    ),
    "no elements": ({"type": "explicit", "rank": {"": 0}}, "explicit matroid needs 'elements'"),
    "no ranks": ({"type": "explicit", "elements": [1]}, "needs 'rank' or 'independent_sets'"),
    "unknown type": ({"type": "matroid"}, "unknown matroid type 'matroid'"),
    "elements twice, rank": (
        {"type": "explicit", "elements": [1, 1], "rank": {"": 0, "1": 1}},
        "duplicate element ids",
    ),
    "elements twice, sets": (
        {"type": "explicit", "elements": [1, 1], "independent_sets": [[1]]},
        "duplicate element ids",
    ),
    "rank key empty last": (
        {"type": "explicit", "elements": [1], "rank": {"": 0, "1,": 1}},
        "rank key '1,' has an empty element id",
    ),
    "rank key empty first": (
        {"type": "explicit", "elements": [1], "rank": {"": 0, ",1": 1}},
        "rank key ',1' has an empty element id",
    ),
    "rank key empty inside": (
        {"type": "explicit", "elements": [1, 2], "rank": {"": 0, "1": 1, "2": 1, "1,,2": 2}},
        "rank key '1,,2' has an empty element id",
    ),
    "dimension": ({"type": "linear", "field": 2, "columns": {"1": [1, 0], "2": [1]}}, "dimension"),
    # the text itself, for what a dict cannot hold or json.dumps cannot write
    "column id repeated": (
        '{"type": "linear", "field": 2, "columns": {"1": [1, 0], "1": [0, 1], "2": [1, 1]}}',
        "repeats key '1' in one object",
    ),
    "type repeated": ('{"type": "graphic", "type": "linear", "field": 2}', "repeats key 'type'"),
    "long residue": (
        '{"type": "linear", "field": 2, "columns": {"1": [%s]}}' % _LONG_INT,
        "holds an integer with too many digits to decode",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MATROIDS))
def test_malformed_matroid_file_exits_1(tmp_path, capsys, case):
    obj, field = MALFORMED_MATROIDS[case]
    path = _write(tmp_path / "m.json", obj)
    for argv in (["info", "-m", path], ["tutte", "--brute", "-m", path]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, err
        assert "Traceback" not in err


# a well-formed K of each kind, with the table most malformed ones of
# that kind would have
WELL_FORMED = {
    "explicit": {"type": "explicit", "elements": [1], "rank": {"": 0, "1": 1}},
    "linear": {"type": "linear", "field": 2, "columns": {"1": [1, 0]}},
    "graphic": {"type": "graphic", "edges": {"1": [0, 1], "2": [1, 2]}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MATROIDS))
def test_malformed_k_after_a_well_formed_one_exits_1(tmp_path, capsys, case):
    # the first node puts its structure in the loader's memo, so the
    # second one's checks must not rest on it
    bad, field = MALFORMED_MATROIDS[case]
    kind = bad.get("type") if isinstance(bad, dict) else None
    good = WELL_FORMED.get(kind, WELL_FORMED["explicit"])  # no kind, an unknown one or text
    leaf = '{"children": [], "K": %s}'
    text = '{"root": "a", "nodes": {"a": %s, "b": %s}}' % (leaf % _text(good), leaf % _text(bad))
    path = _write(tmp_path / "d.json", text)
    assert cli.main(["validate", "-d", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "fields,field",
    [
        ({"J1": ["x"]}, "J1 of node 'r'"),
        ({"J2": 2}, "J2 of node 'r'"),
        ({"D": [1, None]}, "D of node 'r'"),
        ({"children": "ab"}, "zero or two children"),
        # the whole file's text
        pytest.param('{"root": "r"}', "needs 'nodes' and 'root'", id="no-nodes"),
        pytest.param('{"nodes": {}}', "needs 'nodes' and 'root'", id="no-root"),
        pytest.param('{"root": "r", "nodes": {"r": 5}}', "node 'r' must be an object", id="node"),
        pytest.param(
            '{"root": "r", "nodes": {"r": {"children": []}}}',
            "node 'r' is missing its glue matroid K",
            id="no-K",
        ),
        pytest.param(
            json.dumps({"root": "x", "nodes": {"r": _chain_decomposition()["nodes"]["a"]}}),
            "root node 'x' is missing",
            id="root",
        ),
        pytest.param('{"root": "r", ', "not valid JSON", id="json"),
        pytest.param(
            json.dumps(_chain_decomposition()).replace('"b": {', '"a": {'),
            "repeats key 'a' in one object",
            id="node-repeated",
        ),
    ],
)
def test_malformed_decomposition_file_exits_1(tmp_path, capsys, fields, field):
    """``fields`` override the root node's, or are the whole file's text."""
    good = _write(tmp_path / "good.json", _chain_decomposition())
    assert cli.main(["validate", "-d", good]) == 0
    capsys.readouterr()
    path = tmp_path / "d.json"
    if isinstance(fields, str):
        path.write_text(fields)
    else:
        _write(path, _chain_decomposition(**fields))
    assert cli.main(["validate", "-d", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "children,message",
    [
        (["a", "gone"], "child node 'gone' is missing"),
        (["a", "r"], "decomposition tree contains a cycle"),
        (["a", "a"], "node 'a' is reached twice from the root"),
    ],
    ids=["missing-child", "cycle", "shared-child"],
)
def test_structure_violation_reported(tmp_path, capsys, children, message):
    path = _write(tmp_path / "d.json", _chain_decomposition(children=children))
    assert cli.main(["validate", "-d", path]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "valid": False,
        "width": 0,
        "violations": [{"node": "r", "code": "structure", "message": message}],
    }


def _leaf_obj(e):
    return {"children": [], "K": {"type": "explicit", "elements": [e], "rank": {"": 0, str(e): 1}}}


# (root fields, fields by leaf, the violations reported) for the two-leaf tree
VALIDATE_CASES = {
    "leaf-size": (
        {},
        {"a": {"K": {"type": "graphic", "edges": {"1": [0, 1], "4": [1, 2]}}}},
        [("a", "leaf-size", "leaf matroids have at most one element")],
    ),
    "leaf-sets": ({}, {"a": {"D": [1]}}, [("a", "leaf-sets", "leaves carry no J1/J2/D sets")]),
    "shared-not-in-glue": (
        {"J1": [], "J2": [], "D": []},
        {"a": _leaf_obj(5), "b": _leaf_obj(5)},
        [("r", "shared-not-in-glue", "E(M1) & E(M2) is not inside E(K)")],
    ),
    "deletions-not-in-glue": (
        {"D": [1, 2, 9]},
        {},
        [("r", "deletions-not-in-glue", "D is not inside E(K)")],
    ),
    "semiflat-j1": (
        {"J1": [1, 7]},
        {},
        [
            ("r", "boundary-mismatch", "J1 is not E(M1) & E(K)"),
            ("r", "semiflat-j1", "unknown element id 7"),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_reports_violation(tmp_path, capsys, case):
    root_fields, leaf_fields, want = VALIDATE_CASES[case]
    obj = _chain_decomposition(**root_fields)
    for nid, fields in leaf_fields.items():
        obj["nodes"][nid] = {**obj["nodes"][nid], **fields}
    path = _write(tmp_path / "d.json", obj)
    assert cli.main(["validate", "-d", path]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out) == {
        "valid": False,
        "width": 3,
        "violations": [{"node": n, "code": c, "message": m} for n, c, m in want],
    }


def test_info_on_independent_sets(tmp_path, capsys):
    path = _write(
        tmp_path / "u23.json",
        {"type": "explicit", "elements": [1, 2, 3], "independent_sets": [[1, 2], [1, 3], [2, 3]]},
    )
    assert cli.main(["info", "-m", path]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "elements": [1, 2, 3],
        "size": 3,
        "rank": 2,
        "loops": [],
        "coloops": [],
        "circuits": [[1, 2, 3]],
        "flats_by_rank": {"0": 1, "1": 3, "2": 1},
    }


def test_info_matches_the_reference_on_shuffled_negative_ids(tmp_path, capsys):
    # GF(3) columns under shuffled negative ids, and one past 64 bits: -4
    # is a loop, -9 and -2 a parallel pair (one a multiple of the other),
    # -6 a coloop
    columns = {-2: (2, 0, 0), -11: (0, 1, 0), -4: (0, 0, 0), -6: (0, 0, 1),
               -9: (1, 0, 0), -1: (1, 1, 0), 10**20: (1, 2, 0)}
    obj = {"type": "linear", "field": 3, "columns": {str(e): list(v) for e, v in columns.items()}}
    path = _write(tmp_path / "m.json", obj)
    assert cli.main(["info", "-m", path]) == 0
    out = json.loads(capsys.readouterr().out)
    m = Matroid.from_linear(columns, 3)
    singles = {e: m.rank([e]) for e in columns}
    assert out["loops"] == [-4]
    assert out["coloops"] == [-6]
    assert out["loops"] == sorted(e for e, r in singles.items() if r == 0)
    assert out["coloops"] == sorted(e for e in columns if m.rank(set(columns) - {e}) < m.rank())
    assert [-9, -2] in out["circuits"]
    assert out["circuits"] == sorted(sorted(c) for c in reference.circuits(m))
    ranks = [m.rank(f) for f in reference.flats(m)]
    assert out["flats_by_rank"] == {str(r): ranks.count(r) for r in sorted(set(ranks))}


def test_dynamic_programs_skip_nodes_the_root_does_not_reach(tmp_path, corpus_dir, capsys):
    leaf = _chain_decomposition()["nodes"]["a"]
    path = _write(tmp_path / "d.json", {"root": "r", "nodes": {"r": leaf, "z": leaf}})
    formula = str(corpus_dir / "formulas" / "spanning-indep.mso")
    outputs = []
    for argv in (
        ["validate", "-d", path],
        ["tutte", "--dp", "-d", path],
        ["tutte", "--brute", "-d", path],
        ["mso", "--engine", "dp", "-f", formula, "-d", path, "-a", '{"X1": [1]}'],
    ):
        assert cli.main(argv) == 0, argv
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0]["valid"] is True
    assert outputs[1] == outputs[2] and outputs[1]["text"] == "x"


MALFORMED_BRANCHES = {
    "tree": ({"tree": 5, "leaf_labels": {}}, "tree must be a list, got 5"),
    "entry": ({"tree": [["l0", "i0", "i1"]], "leaf_labels": {}}, "node pairs"),
    "labels": ({"tree": [], "leaf_labels": [1]}, "leaf_labels must be an object"),
    "label": ({"tree": [["l0", "i0"]], "leaf_labels": {"l0": "x"}}, "label of leaf 'l0'"),
    "no tree": ({"leaf_labels": {}}, "needs 'tree' and 'leaf_labels'"),
    "no labels": ({"tree": []}, "needs 'tree' and 'leaf_labels'"),
    "no nodes": ({"tree": [], "leaf_labels": {}}, "branch decomposition has no nodes"),
    "not a tree": ({"tree": [["a", "b"], ["b", "a"]], "leaf_labels": {}}, "is not a tree"),
    "not connected": (
        {"tree": [["a", "b"], ["b", "c"], ["c", "a"]], "leaf_labels": {"d": 1}}, "not connected"
    ),
    "leaf labels": ({"tree": [["a", "b"]], "leaf_labels": {"a": 1}}, "leaf labels must cover"),
}


@pytest.mark.parametrize("command", ["width", "convert"])
@pytest.mark.parametrize("case", sorted(MALFORMED_BRANCHES))
def test_malformed_branch_file_exits_1(tmp_path, corpus_dir, capsys, case, command):
    obj, field = MALFORMED_BRANCHES[case]
    path = _write(tmp_path / "b.json", obj)
    matroid = str(corpus_dir / "branch" / "c4-gf3.matroid.json")
    assert cli.main([command, "-m", matroid, "-b", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err, captured.err
    assert "Traceback" not in captured.err


def test_unanchored_tree_valid_but_not_for_dynamic_programs(tmp_path, corpus_dir, capsys):
    # the top node's J1 = {1} sits outside its left child's K = {2}
    tb = zoo.TreeBuilder()
    left = tb.glue(tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), Matroid.single(2))
    top = tb.glue(left, tb.leaf(Matroid.single(4)), Matroid.uniform(1, [1, 4]))
    path = _write(tmp_path / "d.json", files.decomposition_to_obj(tb.done(top)))
    assert cli.main(["validate", "-d", path]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    formula = str(corpus_dir / "formulas" / "spanning-indep.mso")
    for argv in (
        ["tutte", "--dp", "-d", path],
        ["mso", "--engine", "dp", "-f", formula, "-d", path],
    ):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err == (
            "error: the dynamic programs need parent boundaries inside each "
            "node's glue matroid\n"
        ), err


# bytes that are not UTF-8, and JSON nested past the decoder's recursion limit
_UNDECODABLE = {
    "binary": b"\x7fELF\x02\x01\x01\x00\xd0\xff\xfe",
    "deep-array": b"[" * 100000,
    "deep-object": b'{"a":' * 50000,
}


# each command names its input files by their keys above
@pytest.mark.parametrize(
    "command,name",
    [
        (["info", "-m", "binary"], "binary"),
        (["validate", "-d", "binary"], "binary"),
        (["convert", "-m", "binary", "-b", "binary"], "binary"),
        (["mso", "-f", "binary", "-m", "k3"], "binary"),
        (["mso", "-f", "indep(X1)", "-m", "k3", "-a", "binary"], "binary"),
        (["info", "-m", "deep-array"], "deep-array"),
        (["mso", "-f", "indep(X1)", "-m", "k3", "-a", "deep-array"], "deep-array"),
        (["mso", "-f", "indep(X1)", "-m", "k3", "-a", "[" * 100000], None),
        (["validate", "-d", "deep-object"], "deep-object"),
    ],
    ids=["info", "validate", "convert", "formula", "assignment", "deep-matroid",
         "deep-assignment", "deep-inline-assignment", "deep-decomposition"],
)
def test_undecodable_input_exits_1(corpus_dir, tmp_path, capsys, command, name):
    paths = {"k3": str(corpus_dir / "matroids" / "k3.json")}
    for key, data in _UNDECODABLE.items():
        paths[key] = str(tmp_path / key)
        (tmp_path / key).write_bytes(data)
    argv = [paths.get(arg, arg) for arg in command]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    if name is not None:
        assert paths[name] in captured.err, captured.err


def test_graphic_string_endpoints_accepted(tmp_path, capsys):
    path = _write(
        tmp_path / "g.json", {"type": "graphic", "edges": {"1": ["a", "b"], "2": ["b", "c"]}}
    )
    assert cli.main(["info", "-m", path]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 2


@pytest.mark.parametrize(
    "assign,message",
    [
        ('{"X1": [1.9, 2, 4, 6]}', "element of 'X1' must be an integer, got 1.9"),
        ('{"X1": [true, 2, 4, 6]}', "element of 'X1' must be an integer, got True"),
        ('{"X1": ["a"]}', "element of 'X1' must be an integer, got 'a'"),
        ('{"X1": [1, 2', "assignment is not valid JSON"),
        ('{"X1": [99]}', "unknown elements [99]"),
        ('{"X1": 3}', "set variable 'X1' needs a set value"),
        ("[1]", "assignment must be a JSON object"),
        ('{"X1": [2], "X1": [4]}', "assignment repeats key 'X1' in one object"),
        pytest.param(
            '{"X1": [%s]}' % _LONG_INT,
            "assignment holds an integer with too many digits",
            id="long-int",
        ),
    ],
)
@pytest.mark.parametrize("engine", ["naive", "dp", "both"])
def test_bad_assignment_exits_1(corpus_dir, capsys, assign, message, engine):
    argv = [
        "mso", "--engine", engine,
        "-d", str(corpus_dir / "decompositions" / "chain3-c5.json"),
        "-f", str(corpus_dir / "formulas" / "is-base.mso"),
    ]
    assert cli.main(argv + ["-a", '{"X1": ["2", 4, 6]}']) == 0
    capsys.readouterr()
    assert cli.main(argv + ["-a", assign]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err, captured.err
    assert "Traceback" not in captured.err


def test_bad_element_assignment_exits_1(corpus_dir, capsys):
    argv = ["mso", "-d", str(corpus_dir / "decompositions" / "chain3-c5.json")]
    argv += ["-f", str(corpus_dir / "formulas" / "member.mso")]
    assert cli.main(argv + ["-a", '{"x1": 2, "X2": [2]}']) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "ACCEPT"
    assert cli.main(argv + ["-a", '{"x1": 2.0, "X2": [2]}']) == 1
    assert "element of 'x1' must be an integer, got 2.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--eval", "1", "abc"], "--eval value must be a rational number, got 'abc'"),
        (["--eval", "1", "1/0"], "--eval value must be a rational number, got '1/0'"),
        (["--eval", "1e5000", "2"], "--eval value has more than"),
        (["--eval", "1", "1e-10000000"], "--eval value has more than"),
        (["--eval", _LONG_INT, "2"], "--eval value has more than"),
    ],
)
def test_bad_eval_exits_1(corpus_dir, capsys, argv, message):
    path = corpus_dir / "decompositions" / "chain3-c5.json"
    base = ["tutte", "--dp", "-d", str(path)]
    assert cli.main(base + ["--eval", "2", "1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"]["y"] == "1/2"
    assert cli.main(base + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err, captured.err
    assert "Traceback" not in captured.err


def test_eval_value_too_long_to_print_exits_2(corpus_dir, capsys):
    # x = 10**3000 is printable, and x**2 + x + y is not; below x = 1 the
    # terms bound nothing, so 10**-3000 is found too long only when printed
    for x in ("1e3000", "1e-3000"):
        argv = ["tutte", "-m", str(corpus_dir / "matroids" / "k3.json"), "--eval", x, "2"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "resource error: the --eval value has too many digits to print\n"


def test_eval_value_too_long_refused_before_evaluating(tmp_path, capsys, monkeypatch):
    # every term of T(x, 2) at x = 10**4000 already passes the digit limit
    path = _write(tmp_path / "chain.json", files.decomposition_to_obj(zoo.triangle_chain(100)))
    evaluated = []
    monkeypatch.setattr(TuttePolynomial, "evaluate", lambda *a: evaluated.append(a))
    start = time.perf_counter()
    assert cli.main(["tutte", "--dp", "-d", path, "--eval", "1e4000", "2"]) == 2
    assert time.perf_counter() - start < 1
    assert evaluated == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource error: the --eval value has too many digits to print\n"


def _width_13_tree():
    """A width-13 GF(3) caterpillar, one PG(2,3) glue matroid: its joins
    would hold thousands of 2^13-entry type maps."""
    rng = random.Random(1)
    while True:
        m = Matroid.from_linear({e: [rng.randrange(3) for _ in range(3)] for e in range(1, 11)}, 3)
        if m.rank() == 3:
            break
    ids = list(m.elements)
    random.Random(0).shuffle(ids)
    return from_branch_decomposition(m, caterpillar(ids))


def test_tutte_dp_budget_refuses_a_width_13_tree(tmp_path, capsys):
    tree = _width_13_tree()
    assert tree.width() == 13
    path = _write(tmp_path / "wide.json", files.decomposition_to_obj(tree))
    start = time.perf_counter()
    assert cli.main(["tutte", "--dp", "-d", path]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource error: the Tutte DP would make more than")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("formula", ["exists X (indep(X))", "spanning-indep"])
def test_mso_dp_budget_refuses_a_width_13_tree(tmp_path, corpus_dir, capsys, formula):
    # the type maps of indep and closure atoms are charged to the budget
    # before they are made: without that charge these runs end in a
    # MemoryError under a 1 GB address-space limit
    path = _write(tmp_path / "wide.json", files.decomposition_to_obj(_width_13_tree()))
    if formula == "spanning-indep":
        formula = str(corpus_dir / "formulas" / "spanning-indep.mso")
    start = time.perf_counter()
    assert cli.main(["mso", "--engine", "dp", "-d", path, "-f", formula]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource error: compiled evaluator exceeded its state budget")
    assert "Traceback" not in captured.err


def test_glue_writes_output_file(tmp_path, capsys):
    # two triangles 2-summed along element 10: the 4-circuit
    paths = [
        _write(tmp_path / f"{name}.json", files.matroid_to_obj(m))
        for name, m in (
            ("m1", zoo.triangle(1, 2, 10)),
            ("m2", zoo.triangle(3, 4, 10)),
            ("k", Matroid.single(10)),
        )
    ]
    assert cli.main(["glue", *paths, "--delete", "10"]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["elements"] == [1, 2, 3, 4]
    out = str(tmp_path / "glued.json")
    assert cli.main(["glue", *paths, "--delete", "10", "-o", out]) == 0
    captured = capsys.readouterr()
    assert captured.out == files.dumps({"written": out, "size": 4, "rank": 3})
    assert captured.err == ""
    with open(out) as fh:
        assert fh.read() == printed


def test_bad_glue_deletion_exits_1(corpus_dir, capsys):
    k3 = str(corpus_dir / "matroids" / "k3.json")
    assert cli.main(["glue", k3, k3, k3, "--delete", "x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --delete id must be an integer, got 'x'")
    assert "Traceback" not in captured.err
    # D outside K, worded as the validator words it
    assert cli.main(["glue", k3, k3, k3, "--delete", "77"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: deletions-not-in-glue: D is not inside E(K)\n"


def test_tutte_matroid_alone_uses_brute_force(corpus_dir, capsys):
    path = str(corpus_dir / "matroids" / "fano.json")
    assert cli.main(["tutte", "--brute", "-m", path]) == 0
    brute = capsys.readouterr().out
    assert cli.main(["tutte", "-m", path]) == 0
    assert capsys.readouterr().out == brute
    # naming the DP still needs a decomposition
    assert cli.main(["tutte", "--dp", "-m", path]) == 3
    assert "--dp needs a decomposition file" in capsys.readouterr().err
    assert cli.main(["tutte"]) == 3
    assert "tutte needs --matroid or --decomposition" in capsys.readouterr().err


def test_dump_types_needs_the_dp(tmp_path, corpus_dir, capsys):
    # a types dump asks for the DP: without it the dump would be dropped
    out = tmp_path / "types.json"
    matroid = str(corpus_dir / "matroids" / "k3.json")
    tree = str(corpus_dir / "decompositions" / "k3-node.json")
    for argv in (["-m", matroid], ["--brute", "-d", tree]):
        assert cli.main(["tutte", *argv, "--dump-types", str(out)]) == 3
        assert "--dump-types needs the DP engine" in capsys.readouterr().err
        assert not out.exists()
    # with no engine named, a decomposition runs the DP and writes the dump
    assert cli.main(["tutte", "-d", tree, "--dump-types", str(out)]) == 0
    assert json.loads(out.read_text())


def test_python_dash_m_runs_the_cli(corpus_dir):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    argv = ["tutte", "-m", str(corpus_dir / "matroids" / "k3.json")]
    done = subprocess.run(
        [sys.executable, "-m", "amwidth", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["text"] == "x^2 + x + y"


def test_mso_matroid_alone_uses_naive(tmp_path, corpus_dir, capsys):
    path = str(corpus_dir / "matroids" / "k3.json")
    formula = str(corpus_dir / "formulas" / "hamiltonian.mso")
    assert cli.main(["mso", "--engine", "naive", "-f", formula, "-m", path]) == 0
    naive = capsys.readouterr().out
    assert json.loads(naive)["engines"] == ["naive"]
    assert cli.main(["mso", "-f", formula, "-m", path]) == 0
    assert capsys.readouterr().out == naive
    # naming the DP or its states dump still needs a decomposition, and
    # some input is needed
    for extra in (["--engine", "dp"], ["--dump-states", str(tmp_path / "states.json")]):
        assert cli.main(["mso", "-f", formula, "-m", path] + extra) == 3
        assert "--engine dp needs a decomposition file" in capsys.readouterr().err
    assert not (tmp_path / "states.json").exists()
    assert cli.main(["mso", "-f", formula]) == 3
    assert "mso needs --matroid or --decomposition" in capsys.readouterr().err


@pytest.mark.parametrize("formula", ["Y", "x1 in X1 & Y"])
def test_set_term_at_end_of_formula_exits_1(corpus_dir, capsys, formula):
    argv = ["mso", "-f", formula, "-m", str(corpus_dir / "matroids" / "k3.json")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("depth", [100, 1000])
@pytest.mark.parametrize("kind", ["&", "(", "!"])
def test_deep_formulas_answer_or_exit_1(corpus_dir, capsys, kind, depth):
    argv = ["mso", "-f", nested_formula(kind, depth), "-a", '{"x1": 1, "X1": [1]}']
    for inputs in (["-d", "decompositions/k3-node.json"], ["-m", "matroids/k3.json"]):
        code = cli.main(argv + [inputs[0], str(corpus_dir / inputs[1])])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if depth > 100:
            assert code == 1 and captured.err.startswith("error: formula nests deeper")
            continue
        assert code == 0, captured.err
        out = json.loads(captured.out)
        assert out["engines"] == (["dp", "naive"] if inputs[0] == "-d" else ["naive"])
        assert out["result"] == "ACCEPT"


def test_mso_state_budget_exits_2(corpus_dir, capsys, monkeypatch):
    argv = ["mso", "--engine", "dp", "-d", str(corpus_dir / "decompositions" / "chain4-c6.json")]
    argv += ["-f", str(corpus_dir / "formulas" / "spanning-indep.mso")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(compiled, "MSO_BUDGET", 10)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "resource error: compiled evaluator exceeded its state budget: (exists X "
    ), captured.err
    assert "Traceback" not in captured.err


def test_nested_quantifiers_fit_the_state_budget(corpus_dir, tmp_path, capsys):
    # each level's state shares the one below, so the budget, which charges
    # each distinct state once, stays small; the dump still reports the
    # expanded sizes, which double with each level
    decomposition = str(corpus_dir / "decompositions" / "k3-node.json")
    matroid = str(corpus_dir / "matroids" / "k3.json")
    dump = tmp_path / "states.json"
    for depth, total in ((8, 2298), (20, None)):
        formula = "exists y (" * depth + "x in X" + ")" * depth
        argv = ["mso", "-f", formula, "-a", '{"x": 1, "X": [1]}']
        dp_argv = ["--engine", "dp", "-d", decomposition, "--dump-states", str(dump)]
        assert cli.main(argv + dp_argv) == 0
        dp = json.loads(capsys.readouterr().out)
        assert cli.main(argv + ["--engine", "naive", "-m", matroid]) == 0
        naive = json.loads(capsys.readouterr().out)
        assert dp["result"] == naive["result"] == "ACCEPT"
        if total is not None:
            assert list(json.loads(dump.read_text()).values()) == [total]


def test_unnamed_cross_check_only_within_its_cap(tmp_path, corpus_dir, capsys):
    # a 40-triangle chain realizes a 42-element circuit, past the brute-force
    # and naive caps: with no engine named the DP answers alone, while a
    # named oracle still exits 2
    path = _write(tmp_path / "chain.json", files.decomposition_to_obj(zoo.triangle_chain(40)))
    formula = str(corpus_dir / "formulas" / "hamiltonian.mso")
    assert cli.main(["tutte", "--dp", "-d", path]) == 0
    dp = capsys.readouterr().out
    assert cli.main(["tutte", "-d", path]) == 0
    assert capsys.readouterr().out == dp
    assert cli.main(["mso", "-f", formula, "-d", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["result"], out["engines"]) == ("ACCEPT", ["dp"])
    for argv in (
        ["tutte", "--brute", "-d", path],
        ["mso", "--engine", "naive", "-f", formula, "-d", path],
        ["mso", "--engine", "both", "-f", formula, "-d", path],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the brute-force cap" in captured.err


def test_tutte_engines_disagreeing_exit_1(corpus_dir, capsys, monkeypatch):
    path = str(corpus_dir / "decompositions" / "chain3-c5.json")
    brute = tutte_bruteforce(files.load_decomposition(path).realize())
    monkeypatch.setattr(cli, "tutte_decomposition", lambda tree: TuttePolynomial.from_whitney({}))
    assert cli.main(["tutte", "-d", path]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "error": "engines disagree",
        "dp": {"coeffs": []},
        "brute": {"coeffs": [list(c) for c in brute.coeffs]},
    }
    assert "Traceback" not in captured.err


def test_mso_engines_disagreeing_exit_1(corpus_dir, capsys, monkeypatch):
    path = str(corpus_dir / "decompositions" / "chain3-c5.json")
    formula = str(corpus_dir / "formulas" / "hamiltonian.mso")
    assert cli.main(["mso", "--engine", "naive", "-f", formula, "-d", path]) == 0
    naive = json.loads(capsys.readouterr().out)["result"] == "ACCEPT"
    monkeypatch.setattr(cli, "eval_decomposition", lambda tree, f, a: not naive)
    assert cli.main(["mso", "-f", formula, "-d", path]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": "engines disagree", "naive": naive, "dp": not naive}
    assert "Traceback" not in captured.err


def test_info_past_the_circuit_cap_prints_null_circuits(tmp_path, capsys):
    ids = range(1, CIRCUITS_CAP + 2)
    path = _write(tmp_path / "m.json", files.matroid_to_obj(zoo.path_graphic(list(ids))))
    assert cli.main(["info", "-m", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["size"] == CIRCUITS_CAP + 1 and out["circuits"] is None


def test_nice_deeper_than_recursion_limit(tmp_path, capsys):
    tree = zoo.triangle_chain(sys.getrecursionlimit() + 100)
    path = _write(tmp_path / "chain.json", files.decomposition_to_obj(tree))
    out = str(tmp_path / "nice.json")
    assert cli.main(["nice", "-d", path, "-o", out]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out) == {"written": out, "width": 3}


def _contract_runs(corpus):
    """(argv) for every read-only command over each corpus file it takes."""
    matroids = sorted((corpus / "matroids").glob("*.json"))
    matroids += sorted((corpus / "branch").glob("*.matroid.json"))
    for m in matroids:
        yield ["info", "-m", str(m)]
        yield ["tutte", "-m", str(m)]
    for b in sorted((corpus / "branch").glob("*.branch.json")):
        m = b.with_name(b.name.replace(".branch.", ".matroid."))
        yield ["width", "-b", str(b), "-m", str(m)]
    formulas = sorted((corpus / "formulas").glob("*.mso"))
    for d in sorted((corpus / "decompositions").glob("*.json")):
        for command in ("validate", "width", "nice", "tutte"):
            yield [command, "-d", str(d)]
        ground = sorted(files.load_decomposition(d).ground())
        assign = json.dumps(
            {"X1": ground[:2], "X2": ground[1:3], "x1": ground[0], "x2": ground[-1]}
        )
        engine = "both" if len(ground) <= NAIVE_MSO_CAP else "dp"
        for f in formulas:
            yield ["mso", "--engine", engine, "-f", str(f), "-d", str(d), "-a", assign]


def test_cli_contract_on_corpus(corpus_dir, capsys):
    """Documented exit codes, no traceback, byte-identical reruns."""
    runs = 0
    for argv in _contract_runs(corpus_dir):
        outputs = []
        for _ in range(2):
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in captured.err, argv
            outputs.append(captured.out)
        assert outputs[0] == outputs[1], argv
        runs += 1
    assert runs > 250


def test_dump_types_boundary_is_the_nodes(corpus_dir, tmp_path, capsys):
    # types carry no element ids; each row's boundary comes from its node
    out = tmp_path / "types.json"
    for path in sorted((corpus_dir / "decompositions").glob("*.json")):
        argv = ["tutte", "--dp", "-d", str(path), "--dump-types", str(out)]
        assert cli.main(argv) == 0, path.stem
        capsys.readouterr()
        dump = json.loads(out.read_text())
        prepared = files.load_decomposition(path).prepared()
        assert set(dump) == set(prepared.nodes), path.stem
        for nid, rows in dump.items():
            want = sorted(prepared.boundary(nid))
            assert rows, (path.stem, nid)
            for row in rows:
                assert row["boundary"] == want, (path.stem, nid)
                assert len(row["fmap"]) == len(row["offsets"]) == 1 << len(want)


def test_successive_main_calls_match_each_alone(corpus_dir, tmp_path, capsys):
    """One parser serves every call in a process; no flag or default carries over."""
    d = str(corpus_dir / "decompositions" / "chain3-c5.json")
    f = str(corpus_dir / "formulas" / "spanning.mso")
    m = str(corpus_dir / "branch" / "c5-gf2.matroid.json")
    b = str(corpus_dir / "branch" / "c5-gf2.branch.json")
    invalid = _write(tmp_path / "invalid.json", _chain_decomposition(J1=[3]))
    malformed = _write(tmp_path / "malformed.json", _chain_decomposition(J1=["x"]))
    good = _write(tmp_path / "good.json", _chain_decomposition())
    sequence = [
        ["mso", "--pretty", "-f", f, "-d", d],
        ["mso", "-f", f, "-d", d],
        ["mso", "--engine", "dp", "-f", f, "-d", d],
        ["mso", "-f", f, "-d", d, "-a", '{"X1": [1]}'],
        ["validate", "-d", invalid],
        ["validate", "-d", good],
        ["validate", "-d", malformed],
        ["validate", "--pretty", "-d", good],
        ["tutte", "--dp", "--eval", "2", "3", "-d", d],
        ["tutte", "-d", d],
        ["width", "--pretty", "-d", d],
        ["width", "-b", b, "-m", m],
        ["width"],
        ["convert", "-m", m, "-b", b, "-o", str(tmp_path / "out.json")],
        ["convert", "-m", m, "-b", b],
        ["info", "-m", m, "--no-such-flag"],
        ["info", "-m", m],
    ]

    def run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        alone.append(run(argv))
    assert {code for code, _, _ in alone} == {0, 1, 3}
    cli._build_parser.cache_clear()
    assert [run(argv) for argv in sequence] == alone
    assert [run(argv) for argv in reversed(sequence)] == alone[::-1]
    assert cli._build_parser() is cli._build_parser()


def _compact(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "-m", "matroids/fano.json"],
        ["validate", "-d", "decompositions/chain3-c5.json"],
        ["width", "-d", "decompositions/chain3-c5.json"],
        ["width", "-b", "branch/c5-gf2.branch.json", "-m", "branch/c5-gf2.matroid.json"],
        ["tutte", "-d", "decompositions/chain3-c5.json"],
        ["mso", "-f", "formulas/hamiltonian.mso", "-d", "decompositions/chain3-c5.json"],
        ["convert", "-m", "branch/c5-gf2.matroid.json", "-b", "branch/c5-gf2.branch.json"],
    ],
)
def test_stdout_is_compact_and_pretty_indents(corpus_dir, capsys, argv):
    argv = [a if a.startswith("-") or "/" not in a else str(corpus_dir / a) for a in argv]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    value = json.loads(out)
    assert out == _compact(value)
    assert cli.main([*argv, "--pretty"]) == 0
    pretty = capsys.readouterr().out
    indented = json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert pretty.startswith(indented)
    summary = pretty[len(indented) :].splitlines()
    assert all(line.startswith("# ") for line in summary)
    assert bool(summary) == (argv[0] != "convert"), pretty


def _node_fields(tree):
    return {
        nid: (node.children, files.matroid_to_obj(node.K), node.J1, node.J2, node.D)
        for nid, node in tree.nodes.items()
    }


def test_written_files_are_compact_and_load_back(corpus_dir, tmp_path, capsys):
    m = str(corpus_dir / "branch" / "c5-gf2.matroid.json")
    b = str(corpus_dir / "branch" / "c5-gf2.branch.json")
    converted = from_branch_decomposition(files.load_matroid(m), files.load_branch(b))
    d = str(corpus_dir / "decompositions" / "u24-comb.json")
    nice = files.load_decomposition(d).to_nice()
    for argv, tree in ((["convert", "-m", m, "-b", b], converted), (["nice", "-d", d], nice)):
        out = tmp_path / f"{argv[0]}.json"
        assert cli.main([*argv, "-o", str(out), "--pretty"]) == 0
        assert json.loads(capsys.readouterr().out) == {"written": str(out), "width": tree.width()}
        text = out.read_text()
        assert text == _compact(json.loads(text))
        loaded = files.load_decomposition(out)
        assert loaded.root == tree.root
        assert _node_fields(loaded) == _node_fields(tree)
    dump = tmp_path / "types.json"
    assert cli.main(["tutte", "--dp", "-d", d, "--dump-types", str(dump), "--pretty"]) == 0
    text = dump.read_text()
    assert text == _compact(json.loads(text))
