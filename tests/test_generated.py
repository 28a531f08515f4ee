"""Generated differential tests: random representable matroids with random
branch trees, converted, validated, and solved by both dynamic programs
against brute force and naive MSO."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amwidth.branch import BranchDecomposition, from_branch_decomposition
from amwidth.matroid import Matroid
from amwidth.mso.compiled import eval_decomposition
from amwidth.mso.naive import eval_naive
from amwidth.mso.parser import parse
from amwidth.tutte import tutte_bruteforce, tutte_decomposition

from test_branch import caterpillar

SPANNING_INDEP = parse("exists X (spanning(X) & indep(X))")
CLOSURE_EXTENSION = parse("forall e exists f (!(e = f) & e in cl(X1 + {f}))")

# GF(2) rank 3 converts to width 7 (the Fano plane's points), GF(3) rank 2
# to width 4; beyond that a single example can take seconds.
MAX_DIMENSION = {2: 3, 3: 2}


@st.composite
def cubic_trees(draw, ids):
    """An unrooted cubic tree: merge two random subtrees until two remain."""
    roots = [f"l{i}" for i in range(len(ids))]
    leaves = dict(zip(roots, ids))
    edges = []
    while len(roots) > 2:
        a = roots.pop(draw(st.integers(0, len(roots) - 1)))
        b = roots.pop(draw(st.integers(0, len(roots) - 1)))
        node = f"i{len(edges) // 2}"
        edges += [(a, node), (b, node)]
        roots.append(node)
    edges.append(tuple(roots))
    return BranchDecomposition.build(edges, leaves)


@st.composite
def matroids_with_branch_trees(draw):
    p = draw(st.sampled_from(sorted(MAX_DIMENSION)))
    # sizes and columns from a drawn seed: drawn values lean towards the
    # smallest, which would make most cases rank 1
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(5, 9)
    d = rng.randint(1, MAX_DIMENSION[p])
    columns = {e: tuple(rng.randrange(p) for _ in range(d)) for e in range(1, n + 1)}
    m = Matroid.from_linear(columns, p)
    ids = draw(st.permutations(list(m.elements)))
    if draw(st.booleans()):
        return m, caterpillar(ids)
    return m, draw(cubic_trees(ids))


@settings(
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=matroids_with_branch_trees(), data=st.data())
def test_converted_dynamic_programs_match_oracles(case, data):
    m, b = case
    tree = from_branch_decomposition(m, b)
    assert tree.validate().ok
    assert tutte_decomposition(tree) == tutte_bruteforce(m)
    assert eval_decomposition(tree, SPANNING_INDEP) == eval_naive(m, SPANNING_INDEP)
    x1 = data.draw(st.lists(st.sampled_from(m.elements), unique=True), label="X1")
    assignment = {"X1": x1}
    want = eval_naive(m, CLOSURE_EXTENSION, assignment)
    assert eval_decomposition(tree, CLOSURE_EXTENSION, assignment) == want
