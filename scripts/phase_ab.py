#!/usr/bin/env python3
"""Time two checkouts phase by phase, interleaved in one process.

Host speed can drift by up to 2x between processes, so timings taken in
separate runs do not compare.  This script imports ``PARENT/src/amwidth``
and ``CHANGE/src/amwidth`` side by side, each copied into a temporary
directory under its own package name (the package imports itself only
relatively), and writes ``zoo.triangle_chain`` decomposition files with
the parent's writer.  Each round times both sides, which one goes first
alternating, over every file and these phases:

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

It prints, per phase, each side's best round total and the median over
rounds of the change/parent ratio of the round totals.

    python3 scripts/phase_ab.py PARENT CHANGE [--rounds N] [--sizes 32 64 250]
        [--formula FILE]
"""

import argparse
import importlib
import json
import pathlib
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

PHASES = ("json.loads", "load", "validate+prepared", "dp", "basis")
FORMULA_PHASES = ("json.loads", "load", "validate+prepared", "compiled")
SIZES = (32, 45, 64, 90, 128, 180, 250)


def import_side(root, alias, into):
    """The package under ``root/src/amwidth``, imported as ``alias``."""
    shutil.copytree(pathlib.Path(root) / "src" / "amwidth", into / alias)
    side = {
        name: importlib.import_module(f"{alias}.{name}")
        for name in ("files", "tutte", "zoo", "mso", "mso.formulas")
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--formula", help="time compiled MSO of this formula file")
    args = parser.parse_args()
    text = None if args.formula is None else pathlib.Path(args.formula).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        sys.path.insert(0, str(tmp))
        sides = {
            "parent": import_side(args.parent, "amwidth_parent", tmp),
            "change": import_side(args.change, "amwidth_change", tmp),
        }
        writer = sides["parent"]
        texts = [
            writer["files"].dumps(
                writer["files"].decomposition_to_obj(writer["zoo"].triangle_chain(n))
            )
            for n in args.sizes
        ]
        formulas = {
            name: None if text is None else side["mso"].parse(text)
            for name, side in sides.items()
        }
        for name, side in sides.items():  # warm both sides' caches and imports
            time_round(side, texts[:1], formulas[name])
        totals = {name: [] for name in sides}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for name in order:
                totals[name].append(time_round(sides[name], texts, formulas[name]))
    print(f"{args.rounds} rounds over triangle chains of sizes {args.sizes}")
    if text is not None:
        print(f"formula: {text.strip()}")
    print(f"{'phase':<20} {'parent best ms':>15} {'change best ms':>15} {'median ratio':>13}")
    for phase in totals["parent"][0]:
        best = {name: min(t[phase] for t in totals[name]) * 1e3 for name in sides}
        ratio = statistics.median(
            c[phase] / p[phase] for p, c in zip(totals["parent"], totals["change"])
        )
        print(f"{phase:<20} {best['parent']:>15.2f} {best['change']:>15.2f} {ratio:>13.3f}")


if __name__ == "__main__":
    main()
