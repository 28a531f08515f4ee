"""Seeded inputs, CLI calls and expected answers for the four workloads.

Each generator writes its input files into a work directory and returns
one round: the list of instances the runner times in order, repeating
the round until the run's time is up, so every instance runs several
times in a run.  An instance is one or more CLI calls from files to an
answer; its expected answer comes from an oracle that shares no code
path with the call it checks (see NOTES.md).
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles


@dataclass
class Instance:
    key: str
    argvs: list  # CLI argument lists, run in order
    answer: object  # callable: list of the calls' stdout -> comparable answer
    oracle: object  # callable: () -> expected answer
    info: dict = field(default_factory=dict)


def _write(path, obj):
    from amwidth import files

    Path(path).write_text(files.dumps(obj))
    return str(path)


def _linear_obj(cols, p):
    return {"type": "linear", "field": p, "columns": {str(e): list(v) for e, v in cols.items()}}


def _coeffs(outputs):
    return [list(t) for t in json.loads(outputs[-1])["coeffs"]]


# -- triangle chains ------------------------------------------------------


def chain_tree(n, pad, rng):
    """n triangles 2-summed along a path; realizes the (n+2)-cycle matroid.

    Same shape as ``zoo.triangle_chain``, but every element id is drawn
    from the seed without repetition, so ids cannot collide at any n, and
    the padded glue matroid (``pad`` deleted parallel copies, raising the
    width to 3 + pad) sits at a seeded position.  Returns the tree and
    its ground set.
    """
    from amwidth import zoo
    from amwidth.matroid import Matroid

    ids = iter(rng.sample(range(1, 10**6), 3 * n + 2 + pad))
    c = {i: next(ids) for i in range(1, n + 1)}
    d = {0: next(ids), n: next(ids)}
    p = {i: next(ids) for i in range(1, n)}
    extras = [next(ids) for _ in range(pad)]
    pad_at = rng.randrange(1, n)
    tb = zoo.TreeBuilder("t")
    top = tb.glue(
        tb.leaf(Matroid.single(c[n])),
        tb.leaf(Matroid.single(d[n])),
        zoo.triangle(p[n - 1], c[n], d[n]),
    )
    for i in range(n - 1, 0, -1):
        up = p[i - 1] if i > 1 else d[0]
        edges = {up: (0, 1), c[i]: (1, 2), p[i]: (0, 2)}
        deletions = {p[i]}
        if i == pad_at:
            for e in extras:
                edges[e] = (1, 2)
                deletions.add(e)
        top = tb.glue(tb.leaf(Matroid.single(c[i])), top, Matroid.from_graph(edges), deletions)
    return tb.done(top), sorted(c.values()) + [d[0], d[n]]


# chain-tutte: (triangles, pad) per round.  Every log-spaced size is
# present at width 3 for the n-exponent fit.  Sizes repeat so that the
# median falls among the 64-triangle and the 90th percentile among the
# 180-triangle chains, inside groups of equal cost rather than at a jump
# between sizes (up to 60% between neighbours here).
CHAIN_ROUND = [
    (32, 0), (32, 1), (32, 2), (32, 0),
    (45, 0), (45, 1), (45, 2),
    (64, 0), (64, 0), (64, 1), (64, 2), (64, 0), (64, 0),
    (90, 0), (90, 1),
    (128, 0), (128, 0),
    (180, 0), (180, 0), (180, 0),
    (250, 0),
]


def chain_tutte(seed, work):
    from amwidth import files

    rng = random.Random(seed)
    rnd = []
    for k, (n, pad) in enumerate(CHAIN_ROUND):
        tree, _ = chain_tree(n, pad, rng)
        path = _write(work / f"chain{k}.json", files.decomposition_to_obj(tree))
        m = n + 2
        # T(C_m) = y + x + x^2 + ... + x^(m-1)
        expected = [[0, 1, 1]] + [[i, 0, 1] for i in range(1, m)]
        rnd.append(
            Instance(
                key=f"chain{k}",
                argvs=[["tutte", "--dp", "-d", path]],
                answer=_coeffs,
                oracle=lambda expected=expected: expected,
                info={"n": n, "width": 3 + pad},
            )
        )
    rng.shuffle(rnd)
    return rnd


# -- convert + DP on random GF(p) matroids --------------------------------


def caterpillar(ids):
    edges = [("l0", "i0"), ("l1", "i0")]
    for k in range(1, len(ids) - 2):
        edges += [(f"i{k - 1}", f"i{k}"), (f"l{k + 1}", f"i{k}")]
    edges.append((f"l{len(ids) - 1}", f"i{len(ids) - 3}"))
    return edges, {f"l{k}": e for k, e in enumerate(ids)}


def random_cubic(ids, rng):
    """Random cubic tree: join random pairs of subtrees until three remain."""
    leaves = {f"l{k}": e for k, e in enumerate(ids)}
    roots = list(leaves)
    edges = []
    k = 0
    while len(roots) > 3:
        a, b = sorted(rng.sample(range(len(roots)), 2), reverse=True)
        node = f"i{k}"
        k += 1
        edges += [(roots.pop(a), node), (roots.pop(b), node)]
        roots.append(node)
    edges += [(r, f"i{k}") for r in roots]
    return edges, leaves


def _random_columns(n, p, rank, rng, parallel):
    """Nonzero columns; with probability ``parallel`` a multiple of an earlier one."""
    cols = {}
    for e in range(1, n + 1):
        if cols and rng.random() < parallel:
            base = cols[rng.choice(list(cols))]
            s = rng.randrange(1, p)
            cols[e] = tuple(s * x % p for x in base)
            continue
        v = (0,) * rank
        while not any(v):
            v = tuple(rng.randrange(p) for _ in range(rank))
        cols[e] = v
    return cols


# field, chance of a parallel column, and the glue-span dimension that
# counts as wide.  GF(2) spans of dimension 3 give 8-element glue
# matroids and GF(3) spans of dimension 2 give 9; GF(3) spans of
# dimension 3 (27 elements) exceed the rank-table cap and are never drawn.
CONVERT_STRATA = {"gf2": (2, 0.0, 3), "gf3": (3, 0.5, 2)}


def convert_plan():
    """(stratum, elements, rank, allowed wide-node counts, shape) per instance.

    One wide node costs about as much as none (20-80 ms); each further
    wide node multiplies the join work.  The tail, two wide GF(2) nodes on
    6 elements (about 1 s, within 20%), is one instance in 85 and a
    fifth of the round's time.  Sizes, ranks and shapes are fixed so
    that the seed only draws columns and trees.  The cost of a case still
    varies by up to 2x with its columns, so every other kind of case is
    drawn four times: the more cases, the less a percentile depends on
    the seed.
    """
    shapes = ("caterpillar", "cubic")
    plan = [("gf2", 6, 3, (2,), None)]
    for n in range(6, 11):
        for k, (rank, wide) in enumerate(((2, 0), (3, 0), (3, 1)) * 4):
            plan.append(("gf2", n, rank, (wide,), shapes[(n + k) % 2]))
    for n in (6, 7, 8):
        for k in range(8):
            plan.append(("gf3", n, 2 + k % 2, (0, 1), shapes[(n + k) % 2]))
    return plan


def _convert_case(stratum, n, rank, wide_counts, shape, rng):
    p, parallel, wide_dim = CONVERT_STRATA[stratum]
    while True:
        cols = _random_columns(n, p, rank, rng, parallel)
        ids = list(cols)
        rng.shuffle(ids)
        tree_shape = shape or rng.choice(("caterpillar", "cubic"))
        edges, leaves = caterpillar(ids) if tree_shape == "caterpillar" else random_cubic(ids, rng)
        adj = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        dims = oracles.glue_span_dims(adj, leaves, cols, p, rank)
        if max(dims) <= wide_dim and sum(d == wide_dim for d in dims) in wide_counts:
            return cols, edges, leaves, p ** max(dims)


def convert_tutte(seed, work):
    from amwidth import files
    from amwidth.branch import BranchDecomposition

    rng = random.Random(seed)
    rnd = []
    for k, (stratum, n, rank, wide, shape) in enumerate(convert_plan()):
        cols, edges, leaves, width = _convert_case(stratum, n, rank, wide, shape, rng)
        p = CONVERT_STRATA[stratum][0]
        tag = f"cv{k}"
        mpath = _write(work / f"{tag}.matroid.json", _linear_obj(cols, p))
        bpath = _write(
            work / f"{tag}.branch.json",
            files.branch_to_obj(BranchDecomposition.build(edges, leaves)),
        )
        dpath = str(work / f"{tag}.decomp.json")

        def oracle(cols=cols, p=p):
            from amwidth.matroid import Matroid
            from amwidth.tutte import tutte_bruteforce

            return [list(t) for t in tutte_bruteforce(Matroid.from_linear(cols, p)).coeffs]

        rnd.append(
            Instance(
                key=tag,
                argvs=[
                    ["convert", "-m", mpath, "-b", bpath, "-o", dpath],
                    ["tutte", "--dp", "-d", dpath],
                ],
                answer=_coeffs,
                oracle=oracle,
                info={"n": n, "width": width},
            )
        )
    rng.shuffle(rnd)
    return rnd


# -- MSO on triangle chains -----------------------------------------------

FORMULAS = {
    "hamiltonian": "exists H exists e (is_circuit(H) & is_base(H \\ {e}))",
    "spanning-indep": "exists X (spanning(X) & indep(X))",
    "connected-closure": (
        "forall X ((exists e (e in X)) & (exists f (!(f in X))) -> "
        "exists g (!(g in X) & g in cl(X)))"
    ),
    "closure-extension": "forall e exists f (!(e = f) & e in cl(X1 + {f}))",
    "is-base": "is_base(X1)",
}
MSO_SIZES = (4, 6, 8, 10, 12, 14, 16)
# Extra copies that put the median (about 30 ms) and the 90th percentile
# (about 110 ms) inside groups of equal cost rather than at a jump of
# 15-20% between two instances.
MSO_EXTRA = [("connected-closure", 16)] * 3 + [("spanning-indep", 14)] * 2
HAMILTONIAN_SIZE = 4  # about 1 s already at 4 triangles; longer chains cost more
NAIVE_LIMIT = 12


def cycle_verdict(name, ground, x1):
    """Truth of a corpus formula on the cycle matroid U(m-1, m), m >= 3.

    Every proper subset of a circuit-matroid ground set with fewer than
    m - 1 elements is a closed independent set, and any m - 1 elements
    span.  So a Hamiltonian circuit and a spanning independent set exist,
    no nonempty proper flat gains an element from closure unless it has
    m - 1 elements, e lies in cl(X1 + f) for some f != e exactly when
    e is in X1 or X1 misses at most one other element besides e, and the
    bases are the (m - 1)-subsets.
    """
    m = len(ground)
    missing = len(set(ground) - set(x1 or ()))
    return {
        "hamiltonian": True,
        "spanning-indep": True,
        "connected-closure": False,
        "closure-extension": missing <= 2,
        "is-base": len(set(x1 or ())) == m - 1,
    }[name]


def _naive_verdict(name, ground, x1):
    from amwidth.matroid import Matroid
    from amwidth.mso.naive import eval_naive
    from amwidth.mso.parser import parse

    assignment = {"X1": sorted(x1)} if x1 is not None else {}
    return eval_naive(Matroid.uniform(len(ground) - 1, ground), parse(FORMULAS[name]), assignment)


def _assignment(name, ground, k, rng):
    if name == "closure-extension":
        return sorted(rng.sample(ground, len(ground) - k % 4))
    if name == "is-base":
        return sorted(rng.sample(ground, len(ground) - 1 - k % 2))
    return None


def mso_chain(seed, work):
    from amwidth import files

    rng = random.Random(seed)
    fpaths = {}
    for name, text in FORMULAS.items():
        fpaths[name] = str(work / f"{name}.mso")
        Path(fpaths[name]).write_text(text + "\n")
    plan = [("hamiltonian", HAMILTONIAN_SIZE)] + [
        (name, n) for name in FORMULAS if name != "hamiltonian" for n in MSO_SIZES
    ] + MSO_EXTRA
    rnd = []
    for k, (name, n) in enumerate(plan):
        tree, ground = chain_tree(n, 0, rng)
        tag = f"mso{k}"
        dpath = _write(work / f"{tag}.json", files.decomposition_to_obj(tree))
        argv = ["mso", "--engine", "dp", "-f", fpaths[name], "-d", dpath]
        x1 = _assignment(name, ground, k, rng)
        if x1 is not None:
            argv += ["-a", _write(work / f"{tag}.assign.json", {"X1": x1})]

        def oracle(name=name, ground=ground, x1=x1):
            if len(ground) <= NAIVE_LIMIT:
                return _naive_verdict(name, ground, x1)
            return cycle_verdict(name, ground, x1)

        rnd.append(
            Instance(
                key=tag,
                argvs=[argv],
                answer=lambda outputs: json.loads(outputs[-1])["result"] == "ACCEPT",
                oracle=oracle,
                info={"n": n, "formula": name},
            )
        )
    rng.shuffle(rnd)
    return rnd


# -- dense brute force --------------------------------------------------

# Matroids per round by size, each size split evenly over GF(2), GF(3)
# and graphic, except the single 16-element one, which is GF(2): its kind
# sets the peak memory of the run.
# Percentiles fall inside groups of equal size (p50 among 13 elements,
# p90 among 15) rather than at a jump between sizes, and each group is
# large enough that its middle barely depends on the seed.
DENSE_ROUND = [(12, 18), (13, 12), (14, 12), (15, 6), (16, 1)]
DENSE_KINDS = ("gf2", "gf3", "graphic")


def dense_brute(seed, work):
    rng = random.Random(seed)
    rnd = []
    for n, count in DENSE_ROUND:
        for k in range(count):
            kind = DENSE_KINDS[k % 3]
            tag = f"dense{len(rnd)}"
            if kind == "graphic":
                edges = {e: (rng.randrange(8), rng.randrange(8)) for e in range(1, n + 1)}
                obj = {"type": "graphic", "edges": {str(e): list(uv) for e, uv in edges.items()}}
                oracle = lambda edges=edges: oracles.graphic_counts(edges)
            else:
                p = 2 if kind == "gf2" else 3
                cols = {e: tuple(rng.randrange(p) for _ in range(6)) for e in range(1, n + 1)}
                obj = _linear_obj(cols, p)
                oracle = lambda cols=cols, p=p: oracles.linear_counts(cols, p)
            path = _write(work / f"{tag}.json", obj)
            rnd.append(
                Instance(
                    key=tag,
                    argvs=[["info", "-m", path], ["tutte", "--brute", "-m", path]],
                    answer=_dense_answer,
                    oracle=oracle,
                    info={"n": n, "kind": kind},
                )
            )
    rng.shuffle(rnd)
    return rnd


def _dense_answer(outputs):
    """(rank, T(1,1), T(2,1)) from the outputs of info and tutte --brute."""
    rank = json.loads(outputs[0])["rank"]
    coeffs = json.loads(outputs[1])["coeffs"]
    return (rank, sum(c for _, _, c in coeffs), sum(c * 2**i for i, _, c in coeffs))


GENERATORS = {
    "chain-tutte": chain_tutte,
    "convert-tutte": convert_tutte,
    "mso-chain": mso_chain,
    "dense-brute": dense_brute,
}
WORKLOADS = tuple(GENERATORS)
