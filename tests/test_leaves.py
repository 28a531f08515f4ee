"""Leaves take the join path: a leaf is its glue matroid joined from two
empty subtrees.  Its edge cases are checked against brute force and naive
MSO: leaves at the root, loops, and the empty leaves that conversion
leaves under its wrapper nodes."""

import random

import pytest

from amwidth import zoo
from amwidth.branch import from_branch_decomposition
from amwidth.decomposition import AmalgamDecomposition, DecompositionNode
from amwidth.errors import DomainError
from amwidth.matroid import Matroid
from amwidth.mso import formulas as F
from amwidth.mso.compiled import eval_decomposition
from amwidth.mso.naive import eval_naive
from amwidth.mso.parser import parse
from amwidth.tutte import tutte_bruteforce, tutte_decomposition

from test_branch import caterpillar
from test_mso_compiled import _assignment


def _root_leaf(k):
    return AmalgamDecomposition([DecompositionNode("a", (), k)], "a")


def _loop_under_k():
    # the loop 1 is J1 of a glue matroid holding it with the triangle 2, 3, 4
    tb = zoo.TreeBuilder()
    k = Matroid.from_graph({1: (0, 0), 2: (0, 1), 3: (1, 2), 4: (0, 2)})
    bottom = tb.glue(tb.leaf(Matroid.single(1, loop=True)), tb.leaf(Matroid.single(2)), k)
    return tb.done(tb.glue(bottom, tb.leaf(Matroid.single(5)), zoo.triangle(4, 5, 6), [4]))


def _converted_caterpillar():
    # each caterpillar leaf converts to a wrapper node over its element's
    # leaf and an empty leaf
    cols = {1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (1, 0), 5: (0, 1), 6: (1, 1), 7: (0, 1), 8: (1, 0)}
    m = Matroid.from_linear(cols, 2)
    return from_branch_decomposition(m, caterpillar([1, 4, 2, 6, 3, 5, 8, 7]))


TREES = {
    "root-single": lambda: _root_leaf(Matroid.single(1)),
    "root-loop": lambda: _root_leaf(Matroid.single(1, loop=True)),
    "root-empty": lambda: _root_leaf(Matroid.empty()),
    "loop-under-k": _loop_under_k,
    "converted-caterpillar": _converted_caterpillar,
}


def test_cases_have_the_leaves_they_name():
    loop_tree = TREES["loop-under-k"]()
    assert loop_tree.validate().ok
    assert any(n.is_leaf and n.K.loops() for n in loop_tree.nodes.values())
    converted = TREES["converted-caterpillar"]()
    assert converted.validate().ok
    empty_leaves = [n for n in converted.nodes.values() if n.is_leaf and not n.K.ground_set]
    assert len(empty_leaves) == 8


@pytest.mark.parametrize("name", sorted(TREES))
def test_tutte_dp_matches_bruteforce(name):
    tree = TREES[name]()
    assert tutte_decomposition(tree) == tutte_bruteforce(tree.realize())


@pytest.mark.parametrize("name", sorted(TREES))
def test_compiled_matches_naive(name, corpus_formulas):
    tree = TREES[name]()
    m = tree.realize()
    ground = sorted(m.ground_set)
    rng = random.Random(name)
    for label, text in sorted(corpus_formulas.items()):
        formula = parse(text)
        free = F.free_variables(formula)
        if not ground and any(not F.is_set_name(v) for v in free):
            # no element to assign: both engines refuse the formula
            with pytest.raises(DomainError):
                eval_naive(m, formula, {})
            with pytest.raises(DomainError):
                eval_decomposition(tree, formula, {})
            continue
        assignment = _assignment(formula, ground, rng)
        want = eval_naive(m, formula, assignment)
        assert eval_decomposition(tree, formula, assignment) == want, (label, assignment)
