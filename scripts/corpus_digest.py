#!/usr/bin/env python3
"""One digest over every corpus CLI run, to compare two checkouts.

Runs, in this process and against ``ROOT/src`` (default: this checkout),
each command below over the corpus under ``ROOT/corpus``:

- per matroid file (``matroids/*.json`` and ``branch/*.matroid.json``):
  ``info`` and ``tutte --brute``;
- per branch pair: ``convert`` and ``width``;
- per decomposition: ``validate``, ``width``, ``nice``, ``tutte`` and
  ``tutte --dp --dump-types``;
- per decomposition and formula: ``mso --engine dp --dump-states``, with
  the free variables bound to the first ids of the tree's ground set.

Prints the run count and one SHA-256 over each run's arguments, exit
code, stdout, stderr and dump file.  Paths are relative to ROOT, so two
checkouts with the same behaviour print the same line.  With ``--runs``,
each run's short hash over the same parts and its arguments come first,
one line each, so a diff of two checkouts' outputs names the runs whose
outputs differ.

    python3 scripts/corpus_digest.py [--runs] [ROOT]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile


def runs(files):
    """(argv, dump flag or None) for every run, in a fixed order."""
    corpus = pathlib.Path("corpus")
    matroids = sorted((corpus / "matroids").glob("*.json"))
    for m in matroids + sorted((corpus / "branch").glob("*.matroid.json")):
        yield ["info", "-m", str(m)], None
        yield ["tutte", "--brute", "-m", str(m)], None
    for b in sorted((corpus / "branch").glob("*.branch.json")):
        m = b.with_name(b.name.replace(".branch.", ".matroid."))
        for command in ("convert", "width"):
            yield [command, "-m", str(m), "-b", str(b)], None
    formulas = sorted((corpus / "formulas").glob("*.mso"))
    for d in sorted((corpus / "decompositions").glob("*.json")):
        for command in ("validate", "width", "nice", "tutte"):
            yield [command, "-d", str(d)], None
        yield ["tutte", "--dp", "-d", str(d)], "--dump-types"
        ground = sorted(files.load_decomposition(d).ground())
        assign = json.dumps(
            {"X1": ground[:2], "X2": ground[1:3], "x1": ground[0], "x2": ground[-1]}
        )
        for f in formulas:
            argv = ["mso", "--engine", "dp", "-f", str(f), "-d", str(d), "-a", assign]
            yield argv, "--dump-states"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    default = pathlib.Path(__file__).resolve().parent.parent
    parser.add_argument("root", nargs="?", default=str(default))
    parser.add_argument("--runs", action="store_true", help="print each run's hash first")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    os.chdir(root)
    from amwidth import cli, files

    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as scratch:
        dump = os.path.join(scratch, "dump.json")
        for argv, flag in runs(files):
            if flag:
                argv = [*argv, flag, dump]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            dumped = b""
            if flag and os.path.exists(dump):
                with open(dump, "rb") as fh:
                    dumped = fh.read()
                os.remove(dump)
            shown = [a if a != dump else "DUMP" for a in argv]
            parts = (json.dumps(shown), str(code), out.getvalue(), err.getvalue())
            run = b"".join(part.encode() + b"\0" for part in parts) + dumped + b"\0"
            digest.update(run)
            if args.runs:
                print(hashlib.sha256(run).hexdigest()[:12], *shown)
            count += 1
    print(f"{count} runs sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
