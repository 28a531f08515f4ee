"""Pass-through wrappers that time the package's layers in a traced run.

The package itself is not changed.  ``Tracer.install`` replaces public
callables at the name each caller looks up (a module attribute, a name a
module imported, or a class attribute) with a wrapper that records a span
(name, start, end, parent) and counts; ``uninstall`` restores them.  The
wrappers record only while ``Tracer.on`` is set.

Each span's duration excludes the time the tracer spends in hooks under
it, and its self time is its duration minus the durations of its direct
children, which are nested and never overlap in one thread.  Work a hook
needs a second library call for (per-node DP tables, compiled MSO state
counts) is queued in ``deferred`` and run after the instance, untimed.
"""

import functools
import json
import os
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, max_spans=100_000):
        self.on = False
        self.stack = []  # open frames: [name, child_s, excluded_s]
        self.time = defaultdict(float)  # name -> outermost spans of that name
        self.self_time = defaultdict(float)
        self.layer_time = defaultdict(float)  # layer -> outermost spans only
        self.depth = defaultdict(int)  # layer or name -> open spans of it
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.join_keys = set()
        self.context_serial = {}
        self.spans = []
        self.max_spans = max_spans
        self.dropped = 0
        self.deferred = []
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, hook):
        layer = name.split(".")[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0]
            tracer.stack.append(frame)
            tracer.depth[layer] += 1
            tracer.depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(frame, layer, start, hook, args, None, exc)
                raise
            tracer._close(frame, layer, start, hook, args, result, None)
            return result

        return wrapper

    def _close(self, frame, layer, start, hook, args, result, error):
        end = perf_counter()
        self.stack.pop()
        name = frame[0]
        self.depth[layer] -= 1
        self.depth[name] -= 1
        dur = end - start - frame[2]
        if self.depth[name] == 0:
            self.time[name] += dur
        self.self_time[name] += dur - frame[1]
        self.calls[name] += 1
        if self.depth[layer] == 0:
            self.layer_time[layer] += dur
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((name, start, end, parent[0] if parent else None))
        else:
            self.dropped += 1
        if hook is not None:
            h0 = perf_counter()
            hook(self, args, result, error)
            spent = perf_counter() - h0
            for open_frame in self.stack:
                open_frame[2] += spent

    def run_deferred(self):
        was, self.on = self.on, False
        try:
            for job in self.deferred:
                job()
        finally:
            self.deferred.clear()
            self.on = was

    # -- installing ---------------------------------------------------------

    def patch(self, owner, attr, name, hook=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, hook)))
        else:
            setattr(owner, attr, self._wrap(raw, name, hook))

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def install(self):
        from amwidth import cli, decomposition, files, kernels, linalg, tutte
        from amwidth.decomposition import AmalgamDecomposition
        from amwidth.matroid import Matroid
        from amwidth.mso.compiled import compiled_state_counts
        from amwidth.types_dp import JoinContext

        self.patch(cli, "main", "cli.main")
        for attr in ("load_matroid", "load_decomposition", "load_branch"):
            self.patch(files, attr, "files.load", _file_bytes)
        self.patch(files, "dumps", "files.dumps")
        self.patch(Matroid, "__init__", "matroid.construct", _matroid_size)
        for attr in ("from_linear", "from_graph", "from_rank_function", "from_independent_sets"):
            self.patch(Matroid, attr, "matroid.construct")
        for attr in ("gf_rank_table", "graphic_rank_table", "rank_table_from_independence"):
            self.patch(kernels, attr, "kernels.rank_table", _table_cells)
        self.patch(kernels, "closure_table", "kernels.closure_table")
        self.patch(kernels, "whitney_counts", "kernels.whitney")
        self.patch(kernels, "translate_all_masks", "kernels.translate_masks")
        for attr in ("superset_min", "subset_any", "check_rank_axioms"):
            self.patch(kernels, attr, "kernels.other")
        for attr in (
            "check_field", "inverse_mod", "rref", "rank", "row_basis", "column_space_basis",
            "in_span", "sum_spaces", "intersect_spaces", "nullspace", "span_vectors",
        ):
            self.patch(linalg, attr, f"linalg.{attr}")
        self.patch(decomposition, "is_modular_semiflat", "amalgam.semiflat")
        self.patch(decomposition, "glue", "amalgam.glue")
        self.patch(decomposition, "glue_violations", "amalgam.glue")
        self.patch(AmalgamDecomposition, "validate", "decomposition.validate", _tree_shape)
        self.patch(AmalgamDecomposition, "to_nice", "decomposition.to_nice")
        self.patch(AmalgamDecomposition, "realize", "decomposition.realize")
        self.patch(cli, "from_branch_decomposition", "branch.convert", _converted)
        self.patch(JoinContext, "__init__", "types_dp.context", _context_serial)
        self.patch(JoinContext, "extended_join", "types_dp.join", _join_key)
        self.patch(JoinContext, "fixpoint", "types_dp.fixpoint")
        self.patch(tutte, "leaf_signatures", "types_dp.leaf")
        self.patch(cli, "tutte_decomposition", "tutte.dp", _dp_tables(cli.tutte_decomposition))
        self.patch(cli, "tutte_bruteforce", "tutte.brute")
        self.patch(cli, "parse_formula", "mso.parse")
        self.patch(cli, "eval_decomposition", "mso.compiled", _mso_states(compiled_state_counts))

    def write(self, path):
        """Aggregates plus the first ``max_spans`` spans, as JSON."""
        out = {
            "time_s": dict(self.time),
            "self_s": dict(self.self_time),
            "layer_s": dict(self.layer_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "spans_dropped": self.dropped,
            "spans": self.spans,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(out, fh)


# -- hooks: (tracer, args, result, error) -> None ------------------------------


def _file_bytes(tr, args, result, error):
    tr.counts["files.bytes_in"] += os.path.getsize(args[0])


def _matroid_size(tr, args, result, error):
    tr.maxima["matroid.max_elements"] = max(tr.maxima["matroid.max_elements"], len(args[1]))


def _table_cells(tr, args, result, error):
    if result is not None:
        tr.counts["kernels.rank_table_cells"] += len(result)


def _tree_shape(tr, args, result, error):
    tree = args[0]
    tr.counts["decomposition.nodes"] += len(tree.nodes)
    tr.counts["decomposition.validated"] += 1
    width = max(len(node.K.ground_set) for node in tree.nodes.values())
    tr.maxima["decomposition.width"] = max(tr.maxima["decomposition.width"], width)


def _converted(tr, args, result, error):
    if result is None:
        return
    sizes = [len(node.K.ground_set) for node in result.nodes.values()]
    tr.maxima["branch.width_out"] = max(tr.maxima["branch.width_out"], max(sizes))
    tr.counts["branch.glue_elements"] += sum(sizes)


def _context_serial(tr, args, result, error):
    tr.counts["types_dp.contexts"] += 1
    tr.context_serial[id(args[0])] = tr.counts["types_dp.contexts"]


def _join_key(tr, args, result, error):
    ctx, e1, e2, fresh = args
    if error is not None:
        tr.counts["types_dp.join_rejects"] += 1
    tr.join_keys.add(hash((tr.context_serial.get(id(ctx)), e1, e2, fresh)))


def _dp_tables(original):
    def hook(tr, args, result, error):
        if error is not None:
            return

        def job(tree=args[0]):
            _, tables = original(tree, want_tables=True)
            sizes = [len(t.by_sig) for t in tables.values()]
            tr.counts["tutte.signatures_total"] += sum(sizes)
            tr.maxima["tutte.signatures_max"] = max(tr.maxima["tutte.signatures_max"], max(sizes))
            tr.counts["tutte.cells_total"] += sum(
                len(rows) for t in tables.values() for rows in t.by_sig.values()
            )

        tr.deferred.append(job)

    return hook


def _mso_states(counter):
    def hook(tr, args, result, error):
        if error is not None:
            return

        def job(args=args):
            tr.counts["mso.states_total"] += sum(counter(*args).values())

        tr.deferred.append(job)

    return hook
