#!/usr/bin/env python3
"""Time two checkouts phase by phase, interleaved in one process.

Host speed can drift by up to 2x between processes, so timings taken in
separate runs do not compare.  This script imports ``PARENT/src/amwidth``
and ``CHANGE/src/amwidth`` side by side, each copied into a temporary
directory under its own package name (the package imports itself only
relatively), and writes ``zoo.triangle_chain`` decomposition files with
the parent's writer.  Each round times both sides in both orders, parent
then change and change then parent, over every file and these phases:

- ``json.loads`` of the file's text (the same code on both sides, so it
  shows how steady the host was);
- ``load``: ``files.decomposition_from_obj`` on the decoded object;
- ``validate+prepared``: ``validate()`` and ``prepared()`` of a loaded tree;
- ``dp``: ``tutte.tutte_decomposition`` on the prepared tree, without
  its basis change;
- ``basis``: the basis change, ``TuttePolynomial.from_whitney``, timed
  by wrapping it on each side.

With ``--formula FILE`` the last two phases are replaced by one,
``compiled``: ``mso.eval_decomposition`` of the MSO formula in FILE,
parsed once per side by that side's parser, on the prepared tree.  Each
free set variable is bound to the tree's ground set without its smallest
element, and each free element variable to that smallest element.

With ``--converted`` the files hold converted trees instead of chains,
of the kind the convert-tutte benchmark times: per size in ``--sizes``
(default 6 to 10 elements), a seeded GF(2) rank-3 and a GF(3) rank-2
matroid of that many nonzero columns, converted by the parent's
``branch.from_branch_decomposition`` along a caterpillar over the
columns in shuffled order.  The phases are those of the chains.

With ``--matroids`` the files are matroid files instead: per size in
``--sizes`` (default 12 to 16 elements), one seeded GF(2), one GF(3) and
one graphic matroid, and the phases are ``load`` (``files.load_matroid``),
``info`` (``cli.main`` on ``info -m``, stdout captured) and ``brute``
(``tutte.tutte_bruteforce`` of the loaded matroid).

It prints, per phase, each side's best time over one pass and the median
over rounds of the change/parent ratio of the round totals.  Each round
total holds one pass in each order, so neither side gains from running
second, and each pass starts after a full garbage collection.

    python3 scripts/phase_ab.py PARENT CHANGE [--rounds N] [--sizes 32 64 250]
        [--formula FILE | --matroids | --converted]
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import pathlib
import random
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

PHASES = ("json.loads", "load", "validate+prepared", "dp", "basis")
FORMULA_PHASES = ("json.loads", "load", "validate+prepared", "compiled")
MATROID_PHASES = ("load", "info", "brute")
SIZES = (32, 45, 64, 90, 128, 180, 250)
MATROID_SIZES = (12, 13, 14, 15, 16)
CONVERTED_SIZES = (6, 7, 8, 9, 10)


def import_side(root, alias, into):
    """The package under ``root/src/amwidth``, imported as ``alias``."""
    shutil.copytree(pathlib.Path(root) / "src" / "amwidth", into / alias)
    side = {
        name: importlib.import_module(f"{alias}.{name}")
        for name in ("branch", "cli", "files", "matroid", "tutte", "zoo", "mso", "mso.formulas")
    }
    poly = side["tutte"].TuttePolynomial
    from_whitney = poly.from_whitney
    side["basis_s"] = [0.0]

    def timed(counts):
        t0 = perf_counter()
        try:
            return from_whitney(counts)
        finally:
            side["basis_s"][0] += perf_counter() - t0

    poly.from_whitney = staticmethod(timed)
    return side


def bind(formulas, formula, ground):
    """The assignment of ``formula``'s free variables described above."""
    ground = sorted(ground)
    return {
        name: ground[1:] if formulas.is_set_name(name) else ground[0]
        for name in formulas.free_variables(formula)
    }


def time_round(side, texts, formula=None):
    """Per-phase seconds, summed over the files, for one side; with a
    parsed ``formula``, the ``FORMULA_PHASES``."""
    files, tutte, mso = side["files"], side["tutte"], side["mso"]
    spent = dict.fromkeys(FORMULA_PHASES if formula else PHASES, 0.0)
    for text in texts:
        t0 = perf_counter()
        obj = json.loads(text)
        t1 = perf_counter()
        tree = files.decomposition_from_obj(obj)
        t2 = perf_counter()
        tree.validate()
        prepared = tree.prepared()
        t3 = perf_counter()
        if formula is not None:
            assignment = bind(side["mso.formulas"], formula, prepared.ground())
            t3 = perf_counter()
            mso.eval_decomposition(prepared, formula, assignment)
            dts = (t1 - t0, t2 - t1, t3 - t2, perf_counter() - t3)
        else:
            side["basis_s"][0] = 0.0
            t3 = perf_counter()
            tutte.tutte_decomposition(prepared)
            t4 = perf_counter()
            basis = side["basis_s"][0]
            dts = (t1 - t0, t2 - t1, t3 - t2, t4 - t3 - basis, basis)
        for phase, dt in zip(spent, dts):
            spent[phase] += dt
    return spent


def matroid_objs(sizes):
    """One seeded GF(2), GF(3) and graphic matroid object per size."""
    for n in sizes:
        rng = random.Random(n)
        ids = [str(e) for e in range(1, n + 1)]
        for p in (2, 3):
            columns = {e: [rng.randrange(p) for _ in range(6)] for e in ids}
            yield {"type": "linear", "field": p, "columns": columns}
        yield {"type": "graphic", "edges": {e: [rng.randrange(8), rng.randrange(8)] for e in ids}}


def converted_trees(side, sizes):
    """The ``--converted`` trees, converted by ``side``'s package."""
    branch, Matroid = side["branch"], side["matroid"].Matroid
    for n in sizes:
        rng = random.Random(n)
        for p, rank in ((2, 3), (3, 2)):
            columns = {}
            while len(columns) < n:
                v = tuple(rng.randrange(p) for _ in range(rank))
                if any(v):
                    columns[len(columns) + 1] = v
            ids = list(columns)
            rng.shuffle(ids)
            # a caterpillar: leaves l0 and l1 on i0, then one leaf per spine node
            edges = [("l0", "i0"), ("l1", "i0")]
            for k in range(1, n - 2):
                edges += [(f"i{k - 1}", f"i{k}"), (f"l{k + 1}", f"i{k}")]
            edges.append((f"l{n - 1}", f"i{n - 3}"))
            b = branch.BranchDecomposition.build(edges, {f"l{k}": e for k, e in enumerate(ids)})
            yield branch.from_branch_decomposition(Matroid.from_linear(columns, p), b)


def time_matroids(side, paths):
    """Per-phase seconds of the ``MATROID_PHASES``, summed over the files."""
    files, cli, tutte = side["files"], side["cli"], side["tutte"]
    spent = dict.fromkeys(MATROID_PHASES, 0.0)
    for path in paths:
        t0 = perf_counter()
        m = files.load_matroid(path)
        t1 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["info", "-m", path])
        t2 = perf_counter()
        tutte.tutte_bruteforce(m)
        for phase, dt in zip(spent, (t1 - t0, t2 - t1, perf_counter() - t2)):
            spent[phase] += dt
    return spent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--sizes", type=int, nargs="+")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--formula", help="time compiled MSO of this formula file")
    mode.add_argument("--matroids", action="store_true", help="time info and brute force")
    mode.add_argument("--converted", action="store_true", help="time converted GF(p) trees")
    args = parser.parse_args()
    default = MATROID_SIZES if args.matroids else CONVERTED_SIZES if args.converted else SIZES
    sizes = args.sizes or list(default)
    text = None if args.formula is None else pathlib.Path(args.formula).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        sys.path.insert(0, str(tmp))
        sides = {
            "parent": import_side(args.parent, "amwidth_parent", tmp),
            "change": import_side(args.change, "amwidth_change", tmp),
        }
        writer = sides["parent"]
        if args.matroids:
            inputs = []  # file paths
            for i, obj in enumerate(matroid_objs(sizes)):
                inputs.append(str(tmp / f"m{i}.json"))
                pathlib.Path(inputs[-1]).write_text(json.dumps(obj))
            run = {name: lambda paths, name=name: time_matroids(sides[name], paths) for name in sides}
        else:
            trees = (
                converted_trees(writer, sizes)
                if args.converted
                else (writer["zoo"].triangle_chain(n) for n in sizes)
            )
            files = writer["files"]
            inputs = [files.dumps(files.decomposition_to_obj(tree)) for tree in trees]  # texts
            formulas = {
                name: None if text is None else side["mso"].parse(text)
                for name, side in sides.items()
            }
            run = {
                name: lambda texts, name=name: time_round(sides[name], texts, formulas[name])
                for name in sides
            }
        for name in sides:  # warm both sides' caches and imports
            run[name](inputs[:1])
        passes = {name: [] for name in sides}
        totals = {name: [] for name in sides}
        for _ in range(args.rounds):
            spent = {name: [] for name in sides}
            for order in (("parent", "change"), ("change", "parent")):
                for name in order:
                    # garbage of earlier passes is collected here, not in
                    # whichever pass a full collection would fall into
                    gc.collect()
                    spent[name].append(run[name](inputs))
            for name, both in spent.items():
                passes[name] += both
                totals[name].append({phase: sum(t[phase] for t in both) for phase in both[0]})
    kind = (
        "matroid files of sizes" if args.matroids
        else "converted GF(2) and GF(3) trees of sizes" if args.converted
        else "triangle chains of sizes"
    )
    print(f"{args.rounds} rounds, both orders each, over {kind} {sizes}")
    if text is not None:
        print(f"formula: {text.strip()}")
    print(f"{'phase':<20} {'parent best ms':>15} {'change best ms':>15} {'median ratio':>13}")
    for phase in totals["parent"][0]:
        best = {name: min(t[phase] for t in passes[name]) * 1e3 for name in sides}
        ratio = statistics.median(
            c[phase] / p[phase] for p, c in zip(totals["parent"], totals["change"])
        )
        print(f"{phase:<20} {best['parent']:>15.2f} {best['change']:>15.2f} {ratio:>13.3f}")


if __name__ == "__main__":
    main()
