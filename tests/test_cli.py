"""Command-line exit codes on malformed or oversized inputs."""

import json

import pytest

from amwidth import cli, files, linalg
from amwidth.config import NAIVE_MSO_CAP, table_cap

from test_branch import caterpillar


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


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
        enumerated.append(linalg.point_count(basis.shape[0], p))
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
    "element": ({"type": "explicit", "elements": [[1]], "rank": {"": 0}}, "element id"),
    "column id": ({"type": "linear", "field": 2, "columns": {"a": [1, 0]}}, "column id"),
    "residue": ({"type": "linear", "field": 3, "columns": {"1": [1, "q"]}}, "residues of column"),
    "residues": ({"type": "linear", "field": 3, "columns": {"1": 5}}, "residues of column"),
    "field": ({"type": "linear", "field": 2.5, "columns": {"1": [1]}}, "field"),
    "endpoints": ({"type": "graphic", "edges": {"1": [1, "x"], "2": [0, 1]}}, "endpoints"),
    "edge id": ({"type": "graphic", "edges": {"e": [0, 1]}}, "edge id"),
    "names": ({"type": "graphic", "edges": {"1": [0, 1]}, "names": {"x": "a"}}, "names key"),
    "sets": (
        {"type": "explicit", "elements": [1], "independent_sets": [["one"]]},
        "independent set",
    ),
    "set list": (
        {"type": "explicit", "elements": [1], "independent_sets": 5},
        "independent_sets must be a list",
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


@pytest.mark.parametrize(
    "fields,field",
    [
        ({"J1": ["x"]}, "J1 of node 'r'"),
        ({"J2": 2}, "J2 of node 'r'"),
        ({"D": [1, None]}, "D of node 'r'"),
        ({"children": "ab"}, "zero or two children"),
    ],
)
def test_malformed_decomposition_file_exits_1(tmp_path, capsys, fields, field):
    good = _write(tmp_path / "good.json", _chain_decomposition())
    assert cli.main(["validate", "-d", good]) == 0
    capsys.readouterr()
    path = _write(tmp_path / "d.json", _chain_decomposition(**fields))
    assert cli.main(["validate", "-d", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err
    assert "Traceback" not in err


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


def test_bad_glue_deletion_exits_1(corpus_dir, capsys):
    k3 = str(corpus_dir / "matroids" / "k3.json")
    assert cli.main(["glue", k3, k3, k3, "--delete", "x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --delete id must be an integer, got 'x'")
    assert "Traceback" not in captured.err


def _contract_runs(corpus):
    """(argv) for every read-only command over each corpus file it takes."""
    matroids = sorted((corpus / "matroids").glob("*.json"))
    matroids += sorted((corpus / "branch").glob("*.matroid.json"))
    for m in matroids:
        yield ["info", "-m", str(m)]
        yield ["tutte", "--brute", "-m", str(m)]
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
