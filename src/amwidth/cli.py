"""Command-line interface.

Subcommands: info, validate, width, nice, convert, tutte, mso, glue.
Output is canonical compact JSON on stdout (``--pretty`` indents the
JSON and adds a human summary); files written with ``-o`` and dump
files are always compact.  Identical inputs produce byte-identical
output.  Exit codes: 0 success, 1 domain or validation error, 2 resource
bound exceeded, 3 usage error.  The only recognized environment variable is
AMALGAM_MAX_ELEMENTS, which overrides the rank-table cap.
"""

import argparse
import functools
import os
import sys
from fractions import Fraction

import numpy as np

from . import files
from .branch import branch_width_of, from_branch_decomposition
from .errors import DomainError, ResourceError
from .mso import formulas as mso_formulas
from .mso.compiled import eval_decomposition, eval_with_counts
from .mso.naive import eval_naive
from .mso.parser import parse as parse_formula
from .tutte import tutte_bruteforce, tutte_decomposition


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _emit(obj, pretty_lines=None, pretty=False):
    sys.stdout.write(files.dumps(obj, pretty))
    if pretty and pretty_lines:
        for line in pretty_lines:
            sys.stdout.write(f"# {line}\n")


def _write_or_emit(obj, args, summary):
    """Write ``obj`` to the file ``args.output`` and print ``{"written":
    args.output, **summary}``, or print ``obj`` when no output file is named."""
    if not args.output:
        _emit(obj, pretty=args.pretty)
        return
    with open(args.output, "w") as fh:
        fh.write(files.dumps(obj))
    _emit({"written": args.output, **summary}, pretty=args.pretty)


def _cmd_info(args):
    m = files.load_matroid(args.matroid)
    out = {
        "elements": sorted(m.elements),
        "size": m.size,
        "rank": m.rank() if m.size else 0,
        "loops": sorted(m.loops()),
        "coloops": sorted(m.coloops()),
    }
    try:
        out["circuits"] = sorted(sorted(c) for c in m.circuits())
    except ResourceError:
        out["circuits"] = None
    flats = np.bincount(m.table[m.flat_masks()])
    out["flats_by_rank"] = {str(k): int(v) for k, v in enumerate(flats) if v}
    _emit(out, [f"rank {out['rank']}, {out['size']} elements"], args.pretty)
    return 0


def _cmd_validate(args):
    tree = files.load_decomposition(args.decomposition)
    report = tree.validate()
    out = {
        "valid": report.ok,
        "width": report.width,
        "violations": [
            {"node": v.node, "code": v.code, "message": v.message}
            for v in report.violations
        ],
    }
    _emit(out, [str(report)], args.pretty)
    return 0 if report.ok else 1


def _cmd_width(args):
    if args.decomposition:
        tree = files.load_decomposition(args.decomposition)
        out = {"width": tree.width()}
        _emit(out, [f"amalgam width {out['width']}"], args.pretty)
        return 0
    m = files.load_matroid(args.matroid)
    b = files.load_branch(args.branch)
    out = {"branch_width": branch_width_of(m, b)}
    _emit(out, [f"branch width {out['branch_width']}"], args.pretty)
    return 0


def _cmd_nice(args):
    tree = files.load_decomposition(args.decomposition)
    nice = tree.to_nice()
    obj = files.decomposition_to_obj(nice)
    _write_or_emit(obj, args, {"width": nice.width()})
    return 0


def _cmd_convert(args):
    m = files.load_matroid(args.matroid)
    b = files.load_branch(args.branch)
    tree = from_branch_decomposition(m, b)
    obj = files.decomposition_to_obj(tree)
    _write_or_emit(obj, args, {"width": tree.width()})
    return 0


def _poly_obj(poly):
    return {"coeffs": [[i, j, c] for i, j, c in poly.coeffs]}


def _fraction(text):
    """``text`` as a Fraction, refused before it is built when it has more
    digits than the interpreter prints: ``Fraction("1e10000000")`` takes seconds."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # no limit before Python 3.10.7
    mantissa, _, exponent = text.lower().partition("e")
    try:
        if limit and len(mantissa) + abs(int(exponent or 0)) > limit:
            raise DomainError(f"--eval value has more than {limit} digits")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        msg = f"--eval value must be a rational number, got {text!r}"
        raise DomainError(msg) from None


def _cmd_tutte(args):
    tree = None
    matroid = None
    if args.decomposition:
        tree = files.load_decomposition(args.decomposition)
    if args.matroid:
        matroid = files.load_matroid(args.matroid)
    if tree is None and matroid is None:
        raise _Usage("tutte needs --matroid or --decomposition")
    # with neither engine named, run every engine the inputs allow
    want_brute = args.brute or not args.dp
    want_dp = args.dp or (not args.brute and tree is not None)
    if args.dump_types and not want_dp:
        raise _Usage("--dump-types needs the DP engine and a decomposition file")
    results = {}
    if want_dp:
        if tree is None:
            raise _Usage("--dp needs a decomposition file")
        if args.dump_types:
            poly, tables = tutte_decomposition(tree, want_tables=True)
        else:
            poly = tutte_decomposition(tree)
        results["dp"] = poly
    if want_brute:
        try:
            m = matroid if matroid is not None else tree.realize()
        except ResourceError:
            # an unnamed cross-check runs only when its cap admits the input
            if args.brute:
                raise
        else:
            results["brute"] = tutte_bruteforce(m)
    if len(results) == 2 and results["dp"] != results["brute"]:
        _emit(
            {
                "error": "engines disagree",
                "dp": _poly_obj(results["dp"]),
                "brute": _poly_obj(results["brute"]),
            }
        )
        return 1
    poly = results.get("dp", results.get("brute"))
    out = _poly_obj(poly)
    out["text"] = str(poly)
    if args.eval:
        x, y = (_fraction(v) for v in args.eval)
        value = poly.evaluate(x, y)
        try:
            out["value"] = {"x": str(x), "y": str(y), "value": str(value)}
        except ValueError:  # past the interpreter's digit limit
            raise ResourceError("the --eval value has too many digits to print") from None
    if args.dump_types:
        prepared = tree.prepared()  # the tree the tables were computed on
        dump = {}
        for nid, table in tables.items():
            boundary = sorted(prepared.boundary(nid))
            rows = []
            for sig in sorted(table.by_sig, key=repr):
                cells = table.counts(sig)
                rows.append(
                    {
                        "boundary": boundary,
                        "fmap": list(sig.base),
                        "trace": sig.trace,
                        "offsets": list(sig.offsets),
                        "counts": {f"{r},{s}": c for (r, s), c in sorted(cells.items())},
                    }
                )
            dump[nid] = rows
        with open(args.dump_types, "w") as fh:
            fh.write(files.dumps(dump))
    _emit(out, [str(poly)], args.pretty)
    return 0


def _read_formula(spec):
    return parse_formula(files.read_text(spec) if os.path.exists(spec) else spec)


def _read_assignment(spec):
    if not spec:
        return {}
    raw = files._load(spec) if os.path.exists(spec) else files._decode(spec, "assignment")
    if not isinstance(raw, dict):
        raise DomainError("assignment must be a JSON object")
    return raw


def _cmd_mso(args):
    formula = _read_formula(args.formula)
    assignment = _read_assignment(args.assign)
    results = {}
    tree = None
    if args.decomposition:
        tree = files.load_decomposition(args.decomposition)
    # with no engine named, run every engine the inputs allow; a states
    # dump asks for the DP
    engine = args.engine or ("both" if tree is not None or args.dump_states else "naive")
    if engine in ("naive", "both"):
        m = files.load_matroid(args.matroid) if args.matroid else None
        if m is None and tree is None:
            raise _Usage("mso needs --matroid or --decomposition")
        try:
            results["naive"] = eval_naive(tree.realize() if m is None else m, formula, assignment)
        except ResourceError:
            # an unnamed cross-check runs only when its cap admits the input
            if args.engine or tree is None:
                raise
    if engine in ("dp", "both"):
        if tree is None:
            raise _Usage("--engine dp needs a decomposition file")
        if args.dump_states:
            results["dp"], counts = eval_with_counts(tree, formula, assignment)
            with open(args.dump_states, "w") as fh:
                fh.write(files.dumps(counts))
        else:
            results["dp"] = eval_decomposition(tree, formula, assignment)
    if len(results) == 2 and results["naive"] != results["dp"]:
        _emit({"error": "engines disagree", "naive": results["naive"], "dp": results["dp"]})
        return 1
    verdict = next(iter(results.values()))
    out = {
        "result": "ACCEPT" if verdict else "REJECT",
        "engines": sorted(results),
        "formula": mso_formulas.to_text(formula),
    }
    _emit(out, [out["result"]], args.pretty)
    return 0


def _cmd_glue(args):
    from .amalgam import glue

    m1 = files.load_matroid(args.m1)
    m2 = files.load_matroid(args.m2)
    k = files.load_matroid(args.k)
    ids = args.delete.split(",") if args.delete else []
    deletions = [files._int(x, "--delete id") for x in ids if x]
    result = glue(m1, m2, k, deletions)
    obj = files.matroid_to_obj(result)
    _write_or_emit(obj, args, {"size": result.size, "rank": result.rank()})
    return 0


@functools.cache
def _build_parser():
    """The one parser of a process, built on first use; parsing leaves it unchanged."""
    top = _Parser(prog="amwidth", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--pretty", action="store_true", help="indent the JSON and add a human summary"
        )

    p = sub.add_parser("info", help="rank, circuits and flats of a matroid file")
    p.add_argument("--matroid", "-m", required=True)
    common(p)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("validate", help="validate a decomposition file")
    p.add_argument("--decomposition", "-d", required=True)
    common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("width", help="amalgam width of a decomposition or branch width")
    p.add_argument("--decomposition", "-d")
    p.add_argument("--branch", "-b")
    p.add_argument("--matroid", "-m")
    common(p)
    p.set_defaults(fn=_cmd_width)

    p = sub.add_parser("nice", help="emit the nice transform of a decomposition")
    p.add_argument("--decomposition", "-d", required=True)
    p.add_argument("--output", "-o")
    common(p)
    p.set_defaults(fn=_cmd_nice)

    p = sub.add_parser(
        "convert", help="branch decomposition + linear matroid -> amalgam decomposition"
    )
    p.add_argument("--matroid", "-m", required=True)
    p.add_argument("--branch", "-b", required=True)
    p.add_argument("--output", "-o")
    common(p)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("tutte", help="Tutte polynomial, brute force and/or DP")
    p.add_argument("--matroid", "-m")
    p.add_argument("--decomposition", "-d")
    p.add_argument("--brute", action="store_true")
    p.add_argument("--dp", action="store_true")
    p.add_argument("--eval", nargs=2, metavar=("X", "Y"))
    p.add_argument("--dump-types", metavar="FILE")
    common(p)
    p.set_defaults(fn=_cmd_tutte)

    p = sub.add_parser("mso", help="evaluate an MSO formula")
    p.add_argument("--formula", "-f", required=True, help="formula text or file")
    p.add_argument("--matroid", "-m")
    p.add_argument("--decomposition", "-d")
    p.add_argument("--assign", "-a", help="JSON assignment (inline or file)")
    p.add_argument(
        "--engine",
        choices=("naive", "dp", "both"),
        help="default: every engine the inputs allow, naive only when its cap admits the input",
    )
    p.add_argument("--dump-states", metavar="FILE")
    common(p)
    p.set_defaults(fn=_cmd_mso)

    p = sub.add_parser("glue", help="apply the glueing operation to three matroids")
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("k")
    p.add_argument("--delete", help="comma separated ids to delete")
    p.add_argument("--output", "-o")
    common(p)
    p.set_defaults(fn=_cmd_glue)

    return top


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except _Usage as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 3
    try:
        if args.command == "width" and not (
            args.decomposition or (args.branch and args.matroid)
        ):
            raise _Usage("width needs -d FILE, or --branch FILE with -m FILE")
        return args.fn(args)
    except _Usage as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 3
    except ResourceError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 2
    except (DomainError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
