"""JSON (de)serialization for matroids, decompositions, and branch trees.

Loaders validate eagerly, checking explicit rank tables against the rank
axioms, and raise DomainError with a message naming the offending field
or subsets; writers emit canonical (sorted-key, compact) JSON so
identical inputs produce byte-identical outputs.

A decomposition file names one glue matroid per node, but a long chain
repeats a handful of structures.  The loader parses each node's ids, its
J1, J2 and D once, and runs every check that reads ids on every node:
integer ids, keys such as ``"1"`` and ``"01"`` naming one id, the kinds
of endpoints, rank keys and names keys naming ids outside the ground
set.  It then hands the node's ids, names and description (the columns,
the endpoints, the ranks by mask, or the independent sets) to
``Matroid.from_linear``, ``from_graph``, ``from_ranks`` or
``from_independent_sets``, whose one memo step, over one ``tables`` map
per file, builds and checks each structure's table at its first node
and gives every later node a matroid of its own ids over that shared
structure.
"""

import json
from collections import Counter

from .decomposition import AmalgamDecomposition, DecompositionNode
from .branch import BranchDecomposition
from .config import check_cap
from .errors import DomainError
from .matroid import Matroid, set_of

__all__ = [
    "matroid_to_obj",
    "matroid_from_obj",
    "decomposition_to_obj",
    "decomposition_from_obj",
    "branch_to_obj",
    "branch_from_obj",
    "load_matroid",
    "load_decomposition",
    "load_branch",
    "read_text",
    "dumps",
]


def dumps(obj, pretty=False):
    """Canonical JSON text of ``obj``: sorted keys, one trailing newline.

    The canonical form is compact, with no spaces after separators,
    because any ``indent`` sends ``json`` to its pure-Python encoder and
    the compact form runs in its C encoder, several times faster on a
    converted tree.  ``pretty`` gives the two-space indented form, which
    only the CLI's ``--pretty`` prints.
    """
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _names_out(m):
    return {str(k): v for k, v in sorted(m.names.items())} if m.names else None


def matroid_to_obj(m):
    out = None
    if m.linear is not None:
        out = {
            "type": "linear",
            "field": m.linear.field,
            "columns": {str(e): list(v) for e, v in sorted(m.linear.columns.items())},
        }
    elif m.graph is not None:
        out = {
            "type": "graphic",
            "edges": {str(e): list(uv) for e, uv in sorted(m.graph.edges.items())},
        }
    else:
        ranks = {}
        for mask in range(1 << m.size):
            key = ",".join(str(e) for e in sorted(m.set_of(mask)))
            ranks[key] = int(m.rank_mask(mask))
        out = {
            "type": "explicit",
            "elements": sorted(m.elements),
            "rank": ranks,
        }
    names = _names_out(m)
    if names:
        out["names"] = names
    return out


def _int(value, what):
    """An integer field: a JSON integer or a string holding one."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            return int(value)
        except ValueError:
            pass
    raise DomainError(f"{what} must be an integer, got {value!r}")


def _ints(values, what, *about):
    """``values`` as a list of integers; ``what``, formatted with ``about``
    only when a value is not a JSON integer, names the field."""
    if type(values) is list:
        for x in values:
            if type(x) is not int:
                break
        else:
            return values
    what = what.format(*about)
    if not isinstance(values, (list, tuple)):
        raise DomainError(f"{what} must be a list, got {values!r}")
    return [_int(x, what) for x in values]


def _dict(value, what):
    if not isinstance(value, dict):
        raise DomainError(f"{what} must be an object, got {value!r}")
    return value


def _one_id_each(value, parsed, what):
    """Raise when two keys of the id-keyed object ``value`` name one id,
    as ``"1"`` and ``"01"`` do, rather than let the last one win.

    ``parsed`` is ``value`` re-keyed by id, so it is shorter exactly then.
    """
    if len(parsed) < len(value):
        first = {}
        for key in value:
            e = _int(key, what)
            if first.setdefault(e, key) != key:
                raise DomainError(f"{what} keys {first[e]!r} and {key!r} both name id {e}")


def matroid_from_obj(obj):
    return _matroid(obj, {})


def _matroid(obj, tables):
    """The matroid an object describes; ``tables`` is the file's structure
    memo (see the module doc).  Every check that reads ids runs here, on
    every node; only the table's are left to the memo."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise DomainError("matroid object needs a 'type' field")
    names = None
    if "names" in obj:
        raw = _dict(obj["names"], "names")
        names = {_int(k, "names key"): str(v) for k, v in raw.items()}
        _one_id_each(raw, names, "names")
    kind = obj["type"]
    if kind == "linear":
        if "field" not in obj or "columns" not in obj:
            raise DomainError("linear matroid needs 'field' and 'columns'")
        raw = _dict(obj["columns"], "columns")
        columns = {
            _int(e, "column id"): _ints(v, "residues of column {!r}", e) for e, v in raw.items()
        }
        _one_id_each(raw, columns, "columns")
        field = _int(obj["field"], "field")
        return Matroid.from_linear(columns, field, names=names, tables=tables)
    if kind == "graphic":
        if "edges" not in obj:
            raise DomainError("graphic matroid needs 'edges'")
        raw = _dict(obj["edges"], "edges")
        edges = {}
        for e, uv in raw.items():
            if not isinstance(uv, (list, tuple)) or len(uv) != 2:
                raise DomainError(f"edge {e!r} must be a pair of vertices")
            edges[_int(e, "edge id")] = uv
        _one_id_each(raw, edges, "edges")
        return Matroid.from_graph(edges, names=names, tables=tables)
    if kind == "explicit":
        if "elements" not in obj:
            raise DomainError("explicit matroid needs 'elements'")
        elements = _ints(obj["elements"], "element id")
        if "rank" in obj:
            ranks = _rank_list(elements, _dict(obj["rank"], "rank"))
            return Matroid.from_ranks(elements, ranks, names=names, tables=tables)
        if "independent_sets" in obj:
            sets = obj["independent_sets"]
            if not isinstance(sets, list):
                raise DomainError(f"independent_sets must be a list, got {sets!r}")
            sets = [_ints(s, "independent set") for s in sets]
            return Matroid.from_independent_sets(elements, sets, names=names, tables=tables)
        raise DomainError("explicit matroid needs 'rank' or 'independent_sets'")
    raise DomainError(f"unknown matroid type {kind!r}")


def _rank_list(elements, ranks):
    """An explicit rank object as a list indexed by subset mask.

    Keys are comma-separated element ids, none of them empty (the empty
    set's key is ``""``); each must be in ``elements``, and each subset
    must be given exactly once.  The ranks are gathered by mask first, so
    nothing larger than the object itself is allocated before
    ``Matroid.from_ranks`` checks the table cap; only naming a missing
    subset walks every mask, and the cap is checked before that.
    """
    bit = {str(e): 1 << i for i, e in enumerate(elements)}  # ids as written out
    if len(bit) != len(elements):
        raise DomainError("duplicate element ids in ground set")
    out = {}
    for key, value in ranks.items():
        mask = bit.get(key)  # a key of one id as written out
        if mask is None:
            mask = 0
            for x in key.split(",") if key else ():
                b = bit.get(x)
                if b is None:
                    if not x:
                        raise DomainError(f"rank key {key!r} has an empty element id")
                    e = _int(x, "element id")
                    b = bit.get(str(e))
                    if b is None:
                        raise DomainError(
                            f"rank key {key!r} names {e}, which is not in elements"
                        )
                mask |= b
        if type(value) is not int:
            value = _int(value, f"rank of {key!r}")
        if not 0 <= value <= mask.bit_count():
            raise DomainError(
                f"rank of {_subset(elements, mask)} must lie between 0 and its size"
            )
        if mask in out:
            raise DomainError(
                f"rank key {key!r} gives subset {_subset(elements, mask)} a second time"
            )
        out[mask] = value
    full = 1 << len(elements)
    if len(out) < full:
        check_cap(len(elements), "rank table")
        missing = next(mask for mask in range(full) if mask not in out)
        raise DomainError(f"rank table is missing subset {_subset(elements, missing)}")
    return [out[mask] for mask in range(full)]


def _subset(elements, mask):
    return sorted(set_of(elements, mask))


def decomposition_to_obj(tree):
    nodes = {}
    for nid, node in tree.nodes.items():
        entry = {
            "children": list(node.children),
            "K": matroid_to_obj(node.K),
        }
        if not node.is_leaf:
            entry["J1"] = sorted(node.J1)
            entry["J2"] = sorted(node.J2)
            entry["D"] = sorted(node.D)
        nodes[nid] = entry
    return {"root": tree.root, "nodes": nodes}


def decomposition_from_obj(obj):
    if not isinstance(obj, dict) or "nodes" not in obj or "root" not in obj:
        raise DomainError("decomposition object needs 'nodes' and 'root'")
    nodes = []
    tables = {}
    for nid, entry in _dict(obj["nodes"], "nodes").items():
        if not isinstance(entry, dict):
            raise DomainError(f"node {nid!r} must be an object, got {entry!r}")
        if "K" not in entry:
            raise DomainError(f"node {nid!r} is missing its glue matroid K")
        children = entry.get("children", [])
        if not isinstance(children, list) or len(children) not in (0, 2):
            raise DomainError(f"node {nid!r} must have zero or two children")
        nodes.append(
            DecompositionNode(  # positional: keywords cost about 0.3 µs more per node
                str(nid),
                tuple(map(str, children)),
                _matroid(entry["K"], tables),
                _id_set(entry, "J1", nid),
                _id_set(entry, "J2", nid),
                _id_set(entry, "D", nid),
            )
        )
    return AmalgamDecomposition(nodes, str(obj["root"]))


def _id_set(entry, field, nid):
    """A node's J1, J2 or D; empty when the entry has none."""
    if field not in entry:
        return frozenset()
    return frozenset(_ints(entry[field], "{} of node {!r}", field, nid))


def branch_to_obj(b):
    return {
        "tree": [list(e) for e in b.edges],
        "leaf_labels": {str(k): v for k, v in sorted(b.leaf_labels.items())},
    }


def branch_from_obj(obj):
    if not isinstance(obj, dict) or "tree" not in obj or "leaf_labels" not in obj:
        raise DomainError("branch decomposition needs 'tree' and 'leaf_labels'")
    if not isinstance(obj["tree"], list):
        raise DomainError(f"tree must be a list, got {obj['tree']!r}")
    edges = []
    for e in obj["tree"]:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise DomainError("tree entries must be node pairs")
        edges.append((e[0], e[1]))
    labels = {
        k: _int(v, f"label of leaf {k!r}")
        for k, v in _dict(obj["leaf_labels"], "leaf_labels").items()
    }
    return BranchDecomposition.build(edges, labels)


def read_text(path):
    """The text of the file at ``path``, read as UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _decode(text, source):
    """The JSON value of ``text``; DomainError naming ``source`` when it is
    not JSON, nests too deeply, holds an integer with more digits than the
    interpreter converts or repeats a key in one object, which ``json``
    would resolve by keeping the last value."""

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise DomainError(f"{source} repeats key {key!r} in one object")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{source} is not valid JSON ({exc})") from None
    except RecursionError:
        raise DomainError(f"{source} is nested too deeply to decode") from None
    except ValueError:  # the only other one: sys.get_int_max_str_digits() exceeded
        raise DomainError(f"{source} holds an integer with too many digits to decode") from None


def _load(path):
    return _decode(read_text(path), path)


def load_matroid(path):
    return matroid_from_obj(_load(path))


def load_decomposition(path):
    return decomposition_from_obj(_load(path))


def load_branch(path):
    return branch_from_obj(_load(path))
