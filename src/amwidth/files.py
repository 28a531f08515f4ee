"""JSON (de)serialization for matroids, decompositions, and branch trees.

Loaders validate eagerly, checking explicit rank tables against the rank
axioms, and raise DomainError with a message naming the offending field
or subsets; writers emit canonical (sorted-key) JSON so identical inputs
produce byte-identical outputs.
"""

import json

from .decomposition import AmalgamDecomposition, DecompositionNode
from .branch import BranchDecomposition
from .errors import DomainError
from .matroid import Matroid

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
    "dumps",
]


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def matroid_from_obj(obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise DomainError("matroid object needs a 'type' field")
    names = {int(k): str(v) for k, v in obj.get("names", {}).items()}
    kind = obj["type"]
    if kind == "linear":
        if "field" not in obj or "columns" not in obj:
            raise DomainError("linear matroid needs 'field' and 'columns'")
        columns = {int(e): tuple(v) for e, v in obj["columns"].items()}
        return Matroid.from_linear(columns, int(obj["field"]), names=names)
    if kind == "graphic":
        if "edges" not in obj:
            raise DomainError("graphic matroid needs 'edges'")
        edges = {}
        for e, uv in obj["edges"].items():
            if not isinstance(uv, (list, tuple)) or len(uv) != 2:
                raise DomainError(f"edge {e!r} must be a pair of vertices")
            edges[int(e)] = (uv[0], uv[1])
        return Matroid.from_graph(edges, names=names)
    if kind == "explicit":
        if "elements" not in obj:
            raise DomainError("explicit matroid needs 'elements'")
        elements = [int(e) for e in obj["elements"]]
        if "rank" in obj:
            table = {}
            for key, value in obj["rank"].items():
                subset = frozenset(int(x) for x in key.split(",") if x != "")
                if not 0 <= int(value) <= len(subset):
                    raise DomainError(
                        f"rank of {sorted(subset)} must lie between 0 and its size"
                    )
                table[subset] = int(value)

            def fn(subset):
                if subset not in table:
                    raise DomainError(
                        f"rank table is missing subset {sorted(subset)}"
                    )
                return table[subset]

            m = Matroid.from_rank_function(elements, fn, names=names)
            bad = m.rank_axiom_violation()
            if bad is not None:
                kind, a, b = bad
                raise DomainError(
                    f"rank table breaks the {kind} axiom at subsets "
                    f"{sorted(a)} and {sorted(b)}"
                )
            return m
        if "independent_sets" in obj:
            sets = [[int(x) for x in s] for s in obj["independent_sets"]]
            return Matroid.from_independent_sets(elements, sets, names=names)
        raise DomainError("explicit matroid needs 'rank' or 'independent_sets'")
    raise DomainError(f"unknown matroid type {kind!r}")


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
    for nid, entry in obj["nodes"].items():
        if "K" not in entry:
            raise DomainError(f"node {nid!r} is missing its glue matroid K")
        children = entry.get("children", [])
        if len(children) not in (0, 2):
            raise DomainError(f"node {nid!r} must have zero or two children")
        nodes.append(
            DecompositionNode(
                nid=str(nid),
                children=tuple(str(c) for c in children),
                K=matroid_from_obj(entry["K"]),
                J1=frozenset(int(x) for x in entry.get("J1", [])),
                J2=frozenset(int(x) for x in entry.get("J2", [])),
                D=frozenset(int(x) for x in entry.get("D", [])),
            )
        )
    return AmalgamDecomposition(nodes, str(obj["root"]))


def branch_to_obj(b):
    return {
        "tree": [list(e) for e in b.edges],
        "leaf_labels": {str(k): v for k, v in sorted(b.leaf_labels.items())},
    }


def branch_from_obj(obj):
    if not isinstance(obj, dict) or "tree" not in obj or "leaf_labels" not in obj:
        raise DomainError("branch decomposition needs 'tree' and 'leaf_labels'")
    edges = []
    for e in obj["tree"]:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise DomainError("tree entries must be node pairs")
        edges.append((e[0], e[1]))
    return BranchDecomposition.build(edges, obj["leaf_labels"])


def _load(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: not valid JSON ({exc})") from exc


def load_matroid(path):
    return matroid_from_obj(_load(path))


def load_decomposition(path):
    return decomposition_from_obj(_load(path))


def load_branch(path):
    return branch_from_obj(_load(path))
