"""Compiled MSO evaluation against the naive oracle on the corpus, and
the id-free states that let nodes of one shape share their work."""

import random
import sys
from itertools import combinations

import pytest

from amwidth import files, kernels, types_dp, zoo
from amwidth.config import NAIVE_MSO_CAP
from amwidth.decomposition import AmalgamDecomposition, DecompositionNode
from amwidth.errors import CompilationBudgetError
from amwidth.matroid import Matroid
from amwidth.mso import compiled
from amwidth.mso import formulas as F
from amwidth.mso.compiled import compiled_state_counts, eval_decomposition
from amwidth.mso.naive import eval_naive
from amwidth.mso.parser import parse
from amwidth.tutte import tutte_bruteforce, tutte_decomposition

from conftest import CORPUS, REINTRODUCED_PLACEMENTS, reintroduced_id_tree

# Independence idioms beyond the corpus formulas: added and removed
# elements inside indep, a circuit as two indep atoms, and indep under
# negation next to a closure atom.  Then shadowing, which a quantifier's
# in-place views must undo: a rebound name, and a name both free and bound.
# Then closure equality and disjunction, which both engines lower.  Last,
# the spanning atom over added and removed elements, and a base test
# under negation next to a closure atom.
EXTRA_FORMULAS = {
    "indep-add": "indep(X1 + {x1})",
    "indep-minus-each": r"forall e (e in X1 -> indep(X1 \ {e}))",
    "is-circuit-macro": "is_circuit(X1)",
    "spanning-dependent": "exists X (spanning(X) & !indep(X))",
    "shadow-rebound": "exists y (y in X1 & exists y (!(y in X1)))",
    "shadow-free-element": "x1 in X1 & exists x1 (!(x1 in X1))",
    "shadow-free-set": "exists X1 (x1 in X1) & x1 in X1",
    "closure-eq-add": "cl(X1) = cl(X1 + {x1})",
    "member-or-closure": "x1 in X1 | x1 in cl(X2)",
    "independent-spanner": "exists Y (cl(Y) = cl(X1) & indep(Y))",
    "spanning-add": "spanning(X1 + {x1})",
    "spanning-minus": r"spanning(X1 \ {x1})",
    "base-or-closure": "!is_base(X1) | x1 in cl(X1)",
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


def _renamed(tree, seed):
    """``tree`` with every element id renamed at random and each glue
    matroid listing its elements in a shuffled order; returns the tree and
    the renaming."""
    rng = random.Random(seed)
    ids = sorted(set().union(*(node.K.ground_set for node in tree.nodes.values())))
    new = dict(zip(ids, rng.sample(range(1, 10**6), len(ids))))
    nodes = []
    for node in tree.nodes.values():
        k = node.K
        order = rng.sample(range(k.size), k.size)
        table = k.table[kernels.MaskMap(k.size, order).scatter]
        nodes.append(
            DecompositionNode(
                nid=node.nid,
                children=node.children,
                K=Matroid([new[k.elements[p]] for p in order], table),
                J1=frozenset(new[e] for e in node.J1),
                J2=frozenset(new[e] for e in node.J2),
                D=frozenset(new[e] for e in node.D),
            )
        )
    return AmalgamDecomposition(nodes, tree.root), new


def test_renamed_and_reordered_chain(corpus_formulas):
    # states and shapes hold no ids and no K order: renaming every id and
    # shuffling every K changes no verdict, state count or polynomial
    tree = zoo.triangle_chain(9)
    other, new = _renamed(tree, 7)
    ground = sorted(tree.ground())
    rng = random.Random(9)
    for label, text in sorted(corpus_formulas.items()):
        formula = parse(text)
        for _ in range(ASSIGNMENTS_PER_FORMULA):
            assignment = _assignment(formula, ground, rng)
            moved = {
                name: [new[e] for e in value] if F.is_set_name(name) else new[value]
                for name, value in assignment.items()
            }
            assert eval_decomposition(other, formula, moved) == eval_decomposition(
                tree, formula, assignment
            ), (label, assignment)
            assert compiled_state_counts(other, formula, moved) == compiled_state_counts(
                tree, formula, assignment
            ), (label, assignment)
    assert tutte_decomposition(other) == tutte_decomposition(tree)


@pytest.mark.parametrize("where", REINTRODUCED_PLACEMENTS)
def test_reintroduced_id_matches_naive(where):
    # the deleted 3 lies in cl({1}) at N and the reintroduced 3 does not,
    # so a state that read N's 3 for x1 would disagree with naive MSO
    tree = reintroduced_id_tree(where)
    m = tree.realize()
    ground = sorted(m.ground_set)
    assert tutte_decomposition(tree) == tutte_bruteforce(m)
    texts = ["x1 in X1", "x1 in cl(X1)", "x1 = x2", "indep(X1 + {x1})", "x2 in cl(X1 + {x1})"]
    for text in texts:
        formula = parse(text)
        free = F.free_variables(formula)
        for r in range(len(ground) + 1):
            for x1s in combinations(ground, r):
                for x2 in ground:
                    assignment = {"X1": x1s, "x1": 3, "x2": x2}
                    assignment = {k: v for k, v in assignment.items() if k in free}
                    want = eval_naive(m, formula, assignment)
                    got = eval_decomposition(tree, formula, assignment)
                    assert got == want, (text, assignment)


@pytest.mark.parametrize(
    "label", ["connected-closure", "hamiltonian", "is-base", "spanning-indep"]
)
def test_chain_work_does_not_grow(label, corpus_formulas, monkeypatch):
    # one memo per node shape for the whole run: once the states settle,
    # every further triangle of the chain is a memo hit, so no memoized
    # transition runs its step again; is-base's X1 is a base, the chain's
    # cycle without its first element
    calls = []
    memoized = compiled._Run._memoized

    def counted(run, f, free, step):
        def counted_step(*args):
            calls.append(1)
            return step(*args)

        return memoized(run, f, free, counted_step)

    monkeypatch.setattr(compiled._Run, "_memoized", counted)
    formula = parse(corpus_formulas[label])
    work = []
    verdicts = set()
    for n in (40, 160):
        tree = zoo.triangle_chain(n)
        free = F.free_variables(formula)
        assignment = {"X1": sorted(tree.ground())[1:]} if free else None
        calls.clear()
        verdicts.add(eval_decomposition(tree, formula, assignment))
        work.append(len(calls))
    assert len(verdicts) == 1
    assert work[0] == work[1] > 0


# ``--dump-states`` totals of the mso-chain formulas on a corpus chain, with
# X1 every ground element but the largest where the formula has X1
DUMP_TOTALS = {
    "hamiltonian": 1385,
    "connected-closure": 778,
    "spanning-indep": 93,
    "closure-extension": 249,
    "is-base": 18,
}


def test_dump_state_totals_pinned(corpus_formulas):
    tree = files.load_decomposition(CORPUS / "decompositions" / "chain4-c6.json")
    ground = sorted(tree.ground())
    for label, want in DUMP_TOTALS.items():
        formula = parse(corpus_formulas[label])
        assignment = {"X1": ground[:-1]} if "X1" in F.free_variables(formula) else {}
        assert sum(compiled_state_counts(tree, formula, assignment).values()) == want, label


def test_state_budget_names_the_formula(monkeypatch):
    formula = parse("exists X (spanning(X) & indep(X))")
    tree = zoo.triangle_chain(4)
    assert eval_decomposition(tree, formula) is True
    monkeypatch.setattr(compiled, "MSO_BUDGET", 10)
    with pytest.raises(CompilationBudgetError) as err:
        eval_decomposition(tree, formula)
    label = F.to_text(F.desugar(formula))
    assert err.value.subformula == label
    assert str(err.value) == f"compiled evaluator exceeded its state budget: {label}"


@pytest.mark.parametrize("label", ["hamiltonian", "spanning-indep"])
def test_budget_counts_distinct_states(label, corpus_formulas):
    # every further triangle of a long chain reuses interned states, which
    # the budget charges once: the verdict does not hit the budget
    formula = parse(corpus_formulas[label])
    assert eval_decomposition(zoo.triangle_chain(2000), formula) is True


def _split_by_children(shapes):
    """(context shapes with a nonempty J1 or J2, those with neither, as a
    leaf's shape has)."""
    joins = [s for s in shapes if s[1] or s[2]]
    return joins, [s for s in shapes if not (s[1] or s[2])]


def test_loaded_chain_shares_contexts(tmp_path, monkeypatch):
    # a loaded file lists each K in string order of its ids; canonical
    # shapes order K by role, so the chain still needs only a few contexts
    tree, _ = _renamed(zoo.triangle_chain(64), 3)
    path = tmp_path / "chain.json"
    path.write_text(files.dumps(files.decomposition_to_obj(tree)))
    loaded = files.load_decomposition(path)
    contexts = []
    build = types_dp.JoinContext.__init__

    def counted(ctx, shape):
        contexts.append(shape)
        build(ctx, shape)

    def assert_few_contexts():
        # the single-element leaves, whose shapes have empty J1 and J2, share one
        joins, leaves = _split_by_children(contexts)
        assert len(leaves) == 1
        assert 1 <= len(joins) <= 3
        contexts.clear()

    want = tutte_decomposition(tree)
    monkeypatch.setattr(types_dp.JoinContext, "__init__", counted)
    assert tutte_decomposition(loaded) == want
    assert_few_contexts()
    assert eval_decomposition(loaded, parse("exists X (spanning(X) & indep(X))")) is True
    assert_few_contexts()
