#!/usr/bin/env python3
"""Regenerate the bundled corpus deterministically.

Writes matroids, decompositions, branch-decomposition pairs, parallel
connection instances, glue triples, 2-sum pairs, and the MSO formula
collection under corpus/, or under the directory given as the only
argument.  Everything is synthesized through the public library API;
rerunning the script reproduces the files byte for byte.

    python3 scripts/build_corpus.py [OUT_DIR]
"""

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from amwidth import files, zoo
from amwidth.branch import BranchDecomposition, branch_width_of, from_branch_decomposition
from amwidth.matroid import Matroid


def write(path, content):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)
    print(f"wrote {path}")


def write_json(path, obj):
    write(path, files.dumps(obj))


def caterpillar(ids):
    ids = list(ids)
    n = len(ids)
    edges = [("l0", "i0"), ("l1", "i0")]
    leaves = {"l0": ids[0], "l1": ids[1]}
    for k in range(1, n - 2):
        edges += [(f"i{k-1}", f"i{k}"), (f"l{k+1}", f"i{k}")]
        leaves[f"l{k+1}"] = ids[k + 1]
    edges.append((f"l{n-1}", f"i{n-3}"))
    leaves[f"l{n-1}"] = ids[n - 1]
    return BranchDecomposition.build(edges, leaves)


def main():
    parser = argparse.ArgumentParser(description="Regenerate the bundled corpus.")
    parser.add_argument(
        "out", nargs="?", type=pathlib.Path, default=ROOT / "corpus",
        help="output directory (default: corpus/ in the repository)",
    )
    corpus = parser.parse_args().out

    # ----- matroids ---------------------------------------------------------
    k3 = zoo.triangle(1, 2, 3)
    k4 = zoo.k4_graphic()
    u24 = Matroid.uniform(2, [1, 2, 3, 4])
    u36 = Matroid.uniform(3, [1, 2, 3, 4, 5, 6])
    fano = zoo.fano()
    c5_gf2 = Matroid.from_linear(
        {1: (1, 0, 0, 0), 2: (0, 1, 0, 0), 3: (0, 0, 1, 0), 4: (0, 0, 0, 1), 5: (1, 1, 1, 1)}, 2
    )
    path3 = zoo.path_graphic([1, 2, 3])
    loop_coloops = Matroid.from_linear({1: (0, 0), 2: (1, 0), 3: (0, 1)}, 2)
    for name, m in [
        ("k3", k3),
        ("k4", k4),
        ("u24", u24),
        ("u36", u36),
        ("fano", fano),
        ("c5-gf2", c5_gf2),
        ("path3", path3),
        ("loop-coloops", loop_coloops),
    ]:
        write_json(corpus / "matroids" / f"{name}.json", files.matroid_to_obj(m))

    # ----- decompositions (>= 15 files; sizes 3..14, widths 1..6) ------------
    decomps = {}

    tb = zoo.TreeBuilder("f")
    free3 = zoo.direct_sum_tree(
        [
            zoo.comb(Matroid.single(1), "a"),
            zoo.comb(Matroid.single(2), "b"),
            zoo.comb(Matroid.single(3), "c"),
        ]
    )
    decomps["free3-directsum"] = free3

    loops = zoo.direct_sum_tree(
        [
            zoo.comb(Matroid.single(1, loop=True), "a"),
            zoo.comb(Matroid.single(2), "b"),
            zoo.comb(Matroid.single(3), "c"),
        ]
    )
    decomps["loop-coloops"] = loops

    tb = zoo.TreeBuilder("w2")
    top = tb.glue(
        tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), Matroid.uniform(1, [1, 2])
    )
    decomps["u12-plus-coloop"] = zoo.direct_sum_tree(
        [tb.done(top), zoo.comb(Matroid.single(7), "x")]
    )

    decomps["k3-node"] = zoo.triangle_chain(1)
    decomps["twosum-c4"] = zoo.triangle_chain(2)
    decomps["chain3-c5"] = zoo.triangle_chain(3)
    decomps["chain4-c6"] = zoo.triangle_chain(4)
    decomps["chain6-c8"] = zoo.triangle_chain(6)
    decomps["chain12-c14"] = zoo.triangle_chain(12)
    decomps["padded5-c6"] = zoo.triangle_chain(4, pad=2)
    decomps["padded6-c7"] = zoo.triangle_chain(5, pad=3)

    # parallel connection of two triangles across a shared edge
    tb = zoo.TreeBuilder("pc")
    t1 = zoo.triangle(1, 2, 10)
    t2 = zoo.triangle(3, 4, 10)
    left = tb.glue(tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), t1)
    right = tb.glue(tb.leaf(Matroid.single(3)), tb.leaf(Matroid.single(4)), t2)
    decomps["parallel-triangles"] = tb.done(
        tb.glue(left, right, Matroid.single(10))
    )

    decomps["u24-comb"] = zoo.comb(u24)
    decomps["u13-comb"] = zoo.comb(Matroid.uniform(1, [1, 2, 3]))
    decomps["parallel5"] = zoo.parallel_elements_tree(5)
    decomps["parallel6"] = zoo.parallel_elements_tree(6)
    decomps["k3k3-directsum"] = zoo.direct_sum_tree(
        [zoo.triangle_chain(1, prefix="ta"), zoo.comb(zoo.triangle(21, 22, 23), "tb")]
    )
    decomps["c5-converted"] = from_branch_decomposition(
        c5_gf2, caterpillar([1, 2, 3, 4, 5])
    )

    for name, tree in decomps.items():
        report = tree.validate()
        assert report.ok, f"{name}: {report}"
        size = len(tree.ground())
        assert 3 <= size <= 14, f"{name}: size {size}"
        assert 1 <= tree.width() <= 6, f"{name}: width {tree.width()}"
        write_json(
            corpus / "decompositions" / f"{name}.json",
            files.decomposition_to_obj(tree),
        )

    # ----- branch decompositions for conversion (widths 1..3) -----------------
    branch_cases = [
        ("loops-gf2", loop_coloops, caterpillar([1, 2, 3])),
        ("c5-gf2", c5_gf2, caterpillar([1, 2, 3, 4, 5])),
        (
            "c4-gf3",
            Matroid.from_linear(
                {1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1), 4: (1, 1, 1)}, 3
            ),
            caterpillar([1, 2, 3, 4]),
        ),
        (
            "u24-gf3",
            Matroid.from_linear({1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (1, 2)}, 3),
            caterpillar([1, 2, 3, 4]),
        ),
        (
            "k4-gf2",
            Matroid.from_linear(
                {
                    1: (1, 0, 0),
                    2: (0, 1, 0),
                    3: (0, 0, 1),
                    4: (1, 1, 0),
                    5: (1, 0, 1),
                    6: (0, 1, 1),
                },
                2,
            ),
            BranchDecomposition.build(
                [
                    ("u", "l1"),
                    ("u", "l6"),
                    ("u", "m"),
                    ("m", "v"),
                    ("m", "w"),
                    ("v", "l2"),
                    ("v", "l5"),
                    ("w", "l3"),
                    ("w", "l4"),
                ],
                {"l1": 1, "l6": 6, "l2": 2, "l5": 5, "l3": 3, "l4": 4},
            ),
        ),
        (
            "fano-gf2",
            fano,
            BranchDecomposition.build(
                [
                    ("D", "l1"),
                    ("D", "l2"),
                    ("E", "D"),
                    ("E", "l4"),
                    ("A", "l3"),
                    ("A", "l5"),
                    ("B", "l6"),
                    ("B", "l7"),
                    ("C", "A"),
                    ("C", "B"),
                    ("E", "C"),
                ],
                {"l1": 1, "l2": 2, "l3": 3, "l4": 4, "l5": 5, "l6": 6, "l7": 7},
            ),
        ),
    ]
    for name, m, b in branch_cases:
        k = branch_width_of(m, b)
        assert k <= 3, f"{name}: branch width {k}"
        write_json(corpus / "branch" / f"{name}.matroid.json", files.matroid_to_obj(m))
        write_json(corpus / "branch" / f"{name}.branch.json", files.branch_to_obj(b))

    # ----- parallel-connection instances (shared modular semiflats) -----------
    gpc_cases = {
        "triangles-edge": (zoo.triangle(1, 2, 10), zoo.triangle(3, 4, 10)),
        "triangles-disjoint": (zoo.triangle(1, 2, 3), zoo.triangle(4, 5, 6)),
        "triangle-u13-point": (
            zoo.triangle(1, 2, 10),
            Matroid.uniform(1, [10, 5, 6]),
        ),
        "fano-triangle-point": (fano, zoo.triangle(1, 21, 22)),
        "k4-triangle-edge": (k4, zoo.triangle(1, 31, 32)),
        "c4-triangle-edge": (
            zoo.cycle_graphic([1, 2, 3, 40]),
            zoo.triangle(40, 41, 42),
        ),
    }
    for name, (m1, m2) in gpc_cases.items():
        write_json(
            corpus / "gpc" / f"{name}.json",
            {"m1": files.matroid_to_obj(m1), "m2": files.matroid_to_obj(m2)},
        )

    # ----- commutation triples (K, M1, M2) -------------------------------------
    triples = {
        "point-point": (
            zoo.triangle(101, 102, 103),
            zoo.triangle(101, 1, 2),
            zoo.triangle(102, 3, 4),
        ),
        "same-point": (
            Matroid.single(101),
            zoo.triangle(101, 1, 2),
            zoo.triangle(101, 3, 4),
        ),
        "u13-points": (
            Matroid.uniform(1, [101, 102, 103]),
            zoo.triangle(101, 1, 2),
            Matroid.uniform(2, [102, 3, 4]),
        ),
    }
    for name, (k, m1, m2) in triples.items():
        write_json(
            corpus / "triples" / f"{name}.json",
            {
                "k": files.matroid_to_obj(k),
                "m1": files.matroid_to_obj(m1),
                "m2": files.matroid_to_obj(m2),
            },
        )

    # ----- 2-sum pairs ------------------------------------------------------------
    twosum = {
        "triangles": (zoo.triangle(1, 2, 10), 10, zoo.triangle(3, 4, 11), 11),
        "triangle-c4": (
            zoo.triangle(1, 2, 10),
            10,
            zoo.cycle_graphic([3, 4, 5, 11]),
            11,
        ),
        "u24-triangle": (Matroid.uniform(2, [1, 2, 3, 10]), 10, zoo.triangle(4, 5, 11), 11),
        "parallel-relabel": (
            zoo.triangle(1, 2, 10),
            10,
            Matroid.uniform(1, [11, 12]),
            11,
        ),
        "c4-c4": (
            zoo.cycle_graphic([1, 2, 3, 10]),
            10,
            zoo.cycle_graphic([4, 5, 6, 11]),
            11,
        ),
    }
    for name, (m1, p1, m2, p2) in twosum.items():
        write_json(
            corpus / "twosum" / f"{name}.json",
            {
                "m1": files.matroid_to_obj(m1),
                "p1": p1,
                "m2": files.matroid_to_obj(m2),
                "p2": p2,
            },
        )

    # ----- MSO formula corpus -------------------------------------------------------
    formulas = {
        "member": "x1 in X2",
        "elem-eq": "x1 = x2",
        "set-eq": "X1 = X2",
        "closure-member": "x1 in cl(X2)",
        "indep": "indep(X1)",
        "is-circuit": "is_circuit(X1)",
        "is-base": "is_base(X1)",
        "spanning": "spanning(X1)",
        "hamiltonian": r"exists H exists e (is_circuit(H) & is_base(H \ {e}))",
        "spanning-indep": "exists X (spanning(X) & indep(X))",
        "connected-closure": (
            "forall X ((exists e (e in X)) & (exists f (!(f in X)))"
            " -> exists g (!(g in X) & g in cl(X)))"
        ),
        "closure-extension": "forall e exists f (!(e = f) & e in cl(X1 + {f}))",
    }
    for name, text in formulas.items():
        write(corpus / "formulas" / f"{name}.mso", text + "\n")

    print("corpus complete")


if __name__ == "__main__":
    main()
