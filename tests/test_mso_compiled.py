"""Compiled MSO evaluation against the naive oracle on the corpus."""

import random
import sys

import pytest

from amwidth import files, zoo
from amwidth.config import NAIVE_MSO_CAP
from amwidth.mso import formulas as F
from amwidth.mso.compiled import eval_decomposition
from amwidth.mso.naive import eval_naive
from amwidth.mso.parser import parse

from conftest import CORPUS

# Independence idioms beyond the corpus formulas: added and removed
# elements inside indep, a circuit as two indep atoms, and indep under
# negation next to a closure atom.
EXTRA_FORMULAS = {
    "indep-add": "indep(X1 + {x1})",
    "indep-minus-each": r"forall e (e in X1 -> indep(X1 \ {e}))",
    "is-circuit-macro": "is_circuit(X1)",
    "spanning-dependent": "exists X (spanning(X) & !indep(X))",
}

ASSIGNMENTS_PER_FORMULA = 3

# every corpus decomposition whose realization the naive oracle can take
DECOMPOSITIONS = {
    path.stem: tree
    for path in sorted((CORPUS / "decompositions").glob("*.json"))
    if len((tree := files.load_decomposition(path)).ground()) <= NAIVE_MSO_CAP
}


def _assignment(formula, ground, rng):
    out = {}
    for name in sorted(F.free_variables(formula)):
        if F.is_set_name(name):
            out[name] = [e for e in ground if rng.random() < 0.5]
        else:
            out[name] = rng.choice(ground)
    return out


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_compiled_matches_naive(name, corpus_formulas):
    tree = DECOMPOSITIONS[name]
    m = tree.realize()
    ground = sorted(m.ground_set)
    rng = random.Random(name)
    for label, text in sorted({**corpus_formulas, **EXTRA_FORMULAS}.items()):
        formula = parse(text)
        rounds = ASSIGNMENTS_PER_FORMULA if F.free_variables(formula) else 1
        for _ in range(rounds):
            assignment = _assignment(formula, ground, rng)
            want = eval_naive(m, formula, assignment)
            got = eval_decomposition(tree, formula, assignment)
            assert got == want, (label, assignment)


def test_deeper_than_recursion_limit():
    # one tree level per triangle: the walk must not use a frame per level
    tree = zoo.triangle_chain(sys.getrecursionlimit() + 100)
    assert eval_decomposition(tree, parse("exists X (indep(X))")) is True
