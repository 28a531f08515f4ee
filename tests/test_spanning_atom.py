"""spanning(T) and is_base(T) decided natively by both MSO engines,
against their quantified definitions (``reference.spanning_macro`` and
``reference.is_base_macro``) on the corpus trees, the generated trees of
``test_generated``, a width-7 converted caterpillar and a tree that
deletes a coloop."""

import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amwidth import zoo
from amwidth.branch import from_branch_decomposition
from amwidth.matroid import Matroid
from amwidth.mso import formulas as F
from amwidth.mso.compiled import eval_decomposition, eval_with_counts
from amwidth.mso.naive import eval_naive
from amwidth.mso.parser import parse

import reference
from test_branch import caterpillar
from test_generated import matroids_with_branch_trees
from test_mso_compiled import DECOMPOSITIONS, _assignment

_X, _X1 = F.Var("X"), F.Var("X1")

# native text -> the same formula with its spanning and base atoms spelled
# out as the quantified definitions
MACROS = {
    "spanning(X1)": reference.spanning_macro(_X1),
    "is_base(X1)": reference.is_base_macro(_X1),
    "spanning(X1 + {x1})": reference.spanning_macro(F.Add(_X1, "x1")),
    r"spanning(X1 \ {x1})": reference.spanning_macro(F.Remove(_X1, "x1")),
    r"is_base(X1 \ {x1})": reference.is_base_macro(F.Remove(_X1, "x1")),
    "exists X (spanning(X) & indep(X))": F.Exists(
        "X", F.And(reference.spanning_macro(_X), F.Indep(_X))
    ),
    "exists X (is_base(X) & !(x1 in X))": F.Exists(
        "X", F.And(reference.is_base_macro(_X), F.Not(F.Member("x1", _X)))
    ),
}


def width_7_caterpillar():
    """The 8-element GF(2) rank-3 matroid with two parallel pairs,
    converted from the caterpillar with leaf order 1,4,2,6,3,5,8,7: width
    7, 31 nodes."""
    cols = {
        1: (1, 0, 0), 2: (0, 1, 0), 3: (1, 1, 0), 4: (0, 0, 1),
        5: (1, 0, 1), 6: (1, 0, 0), 7: (0, 1, 1), 8: (1, 1, 1),
    }
    m = Matroid.from_linear(cols, 2)
    return from_branch_decomposition(m, caterpillar([1, 4, 2, 6, 3, 5, 8, 7]))


def deleted_coloop():
    """A coloop 9 of the glue that a node deletes, and that its first
    child holds on its boundary: cl(T) never holds 9, so only the
    elements that E(M(v)) keeps may be asked to lie in it."""
    tb = zoo.TreeBuilder()
    free = Matroid.uniform(2, [1, 9])
    child = tb.glue(tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(9)), free)
    k = Matroid.from_graph({9: (5, 6), 2: (0, 1), 3: (1, 2), 4: (0, 2)})
    return tb.done(tb.glue(child, tb.leaf(Matroid.single(2)), k, {9}))


# trees checked on every subset as well: random subsets are rarely bases
EXHAUSTIVE = {"width-7": width_7_caterpillar, "deleted-coloop": deleted_coloop}


def _check(tree, m, text, assignment):
    """The native formula and its macro form agree under both engines."""
    native, macro = parse(text), MACROS[text]
    want = eval_naive(m, macro, assignment)
    assert eval_naive(m, native, assignment) == want, (text, assignment)
    assert eval_decomposition(tree, native, assignment) == want, (text, assignment)
    assert eval_decomposition(tree, macro, assignment) == want, (text, assignment)


@pytest.mark.parametrize("name", [*sorted(DECOMPOSITIONS), *EXHAUSTIVE])
def test_native_atoms_match_their_macros(name):
    tree = EXHAUSTIVE[name]() if name in EXHAUSTIVE else DECOMPOSITIONS[name]
    m = tree.realize()
    ground = sorted(m.ground_set)
    rng = random.Random(name)
    for text in MACROS:
        for _ in range(3 if F.free_variables(MACROS[text]) else 1):
            _check(tree, m, text, _assignment(MACROS[text], ground, rng))
    if name in EXHAUSTIVE:
        for r in range(len(ground) + 1):
            for x1 in combinations(ground, r):
                for text in ("spanning(X1)", "is_base(X1)"):
                    _check(tree, m, text, {"X1": x1})


@settings(
    max_examples=10,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=matroids_with_branch_trees(), data=st.data())
def test_native_atoms_match_their_macros_on_generated_trees(case, data):
    m, b = case
    tree = from_branch_decomposition(m, b)
    x1 = data.draw(st.lists(st.sampled_from(m.elements), unique=True), label="X1")
    elem = data.draw(st.sampled_from(m.elements), label="x1")
    for text in MACROS:
        free = F.free_variables(MACROS[text])
        _check(tree, m, text, {k: v for k, v in {"X1": x1, "x1": elem}.items() if k in free})


# summed ``compiled_state_counts`` of the corpus formulas on the width-7
# tree; its hamiltonian is the case where the macro states blew up
WIDTH_7_TOTALS = {"hamiltonian": 897900, "spanning-indep": 2988}


@pytest.mark.parametrize("label", sorted(WIDTH_7_TOTALS))
def test_width_7_verdicts_and_state_totals(label, corpus_formulas):
    tree = width_7_caterpillar()
    formula = parse(corpus_formulas[label])
    verdict, counts = eval_with_counts(tree, formula)
    assert verdict is eval_naive(tree.realize(), formula) is True
    assert sum(counts.values()) == WIDTH_7_TOTALS[label]
