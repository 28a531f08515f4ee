"""MSO surface grammar: parsing, printing, kinds, errors."""

import pytest

from amwidth import files
from amwidth.errors import DomainError, FormulaSyntaxError
from amwidth.mso import formulas as F
from amwidth.mso.compiled import eval_decomposition
from amwidth.mso.naive import eval_naive
from amwidth.mso.parser import MAX_DEPTH, parse, tokenize


def test_atoms():
    assert parse("x1 in X2") == F.Member("x1", F.Var("X2"))
    assert parse("x1 = x2") == F.ElemEq("x1", "x2")
    assert parse("X1 = X2") == F.SetEq(F.Var("X1"), F.Var("X2"))
    assert parse("x1 in cl(X2)") == F.InClosure("x1", F.Var("X2"))
    assert parse("indep(X1)") == F.Indep(F.Var("X1"))
    assert parse("ind(X1)") == F.Indep(F.Var("X1"))


def test_set_terms():
    got = parse(r"x1 in X2 \ {e}")
    assert got == F.Member("x1", F.Remove(F.Var("X2"), "e"))
    got = parse("x1 in X2 + {e}")
    assert got == F.Member("x1", F.Add(F.Var("X2"), "e"))
    got = parse(r"cl(X1) = cl(X1 \ {e})")
    assert got == F.ClosureEq(F.Var("X1"), F.Remove(F.Var("X1"), "e"))


@pytest.mark.parametrize(
    "text,plain",
    [
        ("(X1) = X2", "X1 = X2"),
        ("X2 = (X1)", "X2 = X1"),
        ("(X1 + {x}) = X2", "X1 + {x} = X2"),
        ("X2 = (X1 + {x})", "X2 = X1 + {x}"),
        (r"((X1) \ {x}) != (X2)", r"X1 \ {x} != X2"),
        ("exists x ((X1 + {x}) = X2)", "exists x (X1 + {x} = X2)"),
    ],
)
def test_parenthesized_set_terms_on_either_side(text, plain):
    assert parse(text) == parse(plain)


def test_connectives_and_precedence():
    got = parse("x1 in X1 & x2 in X1 | x3 in X1")
    assert isinstance(got, F.Or) and isinstance(got.left, F.And)
    got = parse("x1 in X1 -> x2 in X1 -> x3 in X1")
    assert isinstance(got, F.Implies) and isinstance(got.right, F.Implies)
    assert parse("!(x1 in X1)") == F.Not(F.Member("x1", F.Var("X1")))
    assert parse("x1 != x2") == F.Not(F.ElemEq("x1", "x2"))


def test_quantifiers():
    got = parse("exists e forall X (e in X)")
    assert got == F.Exists("e", F.Forall("X", F.Member("e", F.Var("X"))))
    # quantifier scope extends right
    got = parse("x1 in X1 & exists e (e in X1) | x2 in X1")
    assert isinstance(got.right, F.Exists)


def test_unicode_aliases():
    assert parse("∃e (e ∈ X1 ∧ ¬(e ∈ X2))") == parse(
        "exists e (e in X1 & !(e in X2))"
    )
    assert parse("∀e (e ∈ X1 → e ∈ X2)") == parse("forall e (e in X1 -> e in X2)")


def test_hamiltonian_macro_expansion():
    got = parse(r"exists H exists e (is_circuit(H) & is_base(H \ {e}))")
    assert isinstance(got, F.Exists)
    assert F.free_variables(got) == set()


def test_macro_expansion_text():
    # the fresh element names carry the token position, and reach the CLI output
    assert F.to_text(parse("is_circuit(X)")) == (
        r"(!(indep(X)) & (forall e_4 ((e_4 in X -> indep(X \ {e_4})))))"
    )
    # is_base and spanning are core atoms, not macros: they bind nothing
    assert F.to_text(parse(r"is_base(X \ {x})")) == r"(indep(X \ {x}) & spanning(X \ {x}))"
    assert F.to_text(parse("spanning(X + {y})")) == "spanning(X + {y})"
    assert F.to_text(parse("ind(X) | is_circuit((Y))")) == (
        r"(indep(X) | (!(indep(Y)) & (forall e_11 ((e_11 in Y -> indep(Y \ {e_11}))))))"
    )


def test_macro_variable_avoids_the_terms_names(corpus_dir, k3):
    # the macro would bind e_8 here, which the term already uses freely
    assert F.to_text(parse("is_circuit(X1 + {e_8})")) == (
        r"(!(indep(X1 + {e_8})) & (forall e_8_ ((e_8_ in X1 + {e_8}"
        r" -> indep(X1 + {e_8} \ {e_8_})))))"
    )
    assert F.to_text(parse("is_circuit(X + {e_12} + {e_12_})")) == (
        r"(!(indep(X + {e_12} + {e_12_})) & (forall e_12__ ((e_12__ in X + {e_12} + {e_12_}"
        r" -> indep(X + {e_12} + {e_12_} \ {e_12__})))))"
    )
    tree = files.load_decomposition(corpus_dir / "decompositions" / "k3-node.json")
    for name in ("e", "e_8"):
        # {1, 2, 3} is the triangle's circuit
        formula = parse(f"is_circuit(X1 + {{{name}}})")
        assignment = {"X1": [2, 3], name: 1}
        assert eval_naive(k3, formula, assignment), name
        assert eval_decomposition(tree, formula, assignment), name


def test_roundtrip(corpus_formulas):
    for name, text in corpus_formulas.items():
        ast = parse(text)
        assert parse(F.to_text(ast)) == ast, name
        desugared = F.desugar(ast)
        assert parse(F.to_text(desugared)) == desugared, name


def test_syntax_error_has_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("x1 in ")
    assert err.value.position == 6
    with pytest.raises(FormulaSyntaxError):
        parse("exists (x1 in X1)")
    with pytest.raises(FormulaSyntaxError):
        parse("x1 in X1 )")


def test_set_term_at_end_of_input():
    # the end of the text where '=' should follow a set term
    for text in ("Y", "x1 in X1 & X2"):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert err.value.position == len(text)
        assert "expected '=' after a set term, found None" in str(err.value)


def nested_formula(kind, depth):
    """``depth`` levels of ``kind`` (&, parentheses or !) over one atom."""
    atom = "x1 in X1"
    if kind == "&":
        return " & ".join([atom] * (depth + 1))
    if kind == "(":
        return "(" * depth + atom + ")" * depth
    return "!" * depth + atom


@pytest.mark.parametrize("kind", ["&", "(", "!"])
def test_nesting_bound(kind):
    assert MAX_DEPTH == 100
    parse(nested_formula(kind, MAX_DEPTH))
    for depth in (MAX_DEPTH + 1, 1000, 5000):
        with pytest.raises(FormulaSyntaxError, match="nests deeper than 100 levels"):
            parse(nested_formula(kind, depth))


def test_nesting_bound_counts_macros_terms_and_prefixes():
    parse("x1 in X1" + " + {x2}" * MAX_DEPTH)
    too_deep = [
        "x1 in X1" + " + {x2}" * (MAX_DEPTH + 1),
        "!" * (MAX_DEPTH - 1) + "is_circuit(X1)",
        "exists y " * (MAX_DEPTH + 1) + "y in X1",
        "x1 in X1 -> " * (MAX_DEPTH + 1) + "x1 in X1",
        "! exists y " * (MAX_DEPTH // 2 + 1) + "y in X1",
        "x1 in " + "(" * (MAX_DEPTH + 1) + "X1" + ")" * (MAX_DEPTH + 1),
    ]
    for text in too_deep:
        with pytest.raises(FormulaSyntaxError, match="nests deeper"):
            parse(text)


def test_kind_errors():
    with pytest.raises((FormulaSyntaxError, DomainError)):
        parse("x1 in x2")  # element used as a set
    with pytest.raises((FormulaSyntaxError, DomainError)):
        parse("X1 in X2")  # set used as an element
    with pytest.raises((FormulaSyntaxError, DomainError)):
        parse(r"indep(X1 \ {Y})")  # set removed as an element


def test_tokenizer_positions():
    toks = tokenize("x1 in X2")
    assert [t for t, _ in toks] == ["x1", "in", "X2", None]
    assert [p for _, p in toks] == [0, 3, 6, 8]


def test_free_variables():
    ast = parse(r"exists e (e in X1 & x2 in cl(X1 \ {e}))")
    assert F.free_variables(ast) == {"X1", "x2"}


def test_desugar_core_only():
    core = F.desugar(parse("forall e (is_base(X1) -> e in X1)"))
    # indep and spanning are core atoms: the compiled evaluator decides them natively
    for atom in (F.Indep(F.Var("X1")), F.Spanning(F.Var("X1"))):
        assert F.desugar(atom) == atom
    assert "indep(X1)" in F.to_text(core) and "spanning(X1)" in F.to_text(core)

    def check(f):
        assert isinstance(
            f,
            (F.ElemEq, F.SetEq, F.Member, F.InClosure, F.Indep, F.Spanning, F.Not, F.Or, F.Exists),
        ), f
        for child in (
            (f.inner,)
            if isinstance(f, (F.Not, F.Exists))
            else (f.left, f.right)
            if isinstance(f, F.Or)
            else ()
        ):
            check(child)

    check(core)


_E = "set variable 'E' used as an element"
_Y = "variable 'y' used as a set variable"
_MEMBER = F.Member("x", F.Var("X"))


# every node kind and term shape built in code: a well-kinded node, its free
# variables, and a misuse of one of its positions with check_kinds' message
_KINDS = [
    (F.ElemEq("x", "z"), {"x", "z"}, F.ElemEq("x", "E"), _E),
    (F.SetEq(F.Var("X"), F.Var("Z")), {"X", "Z"}, F.SetEq(F.Var("X"), F.Var("y")), _Y),
    (F.Member("x", F.Var("X")), {"x", "X"}, F.Member("E", F.Var("X")), _E),
    (F.InClosure("x", F.Var("X")), {"x", "X"}, F.InClosure("x", F.Var("y")), _Y),
    (
        F.ClosureEq(F.Var("X"), F.Remove(F.Var("Z"), "z")),
        {"X", "Z", "z"},
        F.ClosureEq(F.Var("X"), F.Remove(F.Var("Z"), "E")),
        _E,
    ),
    (F.Indep(F.Add(F.Var("X"), "x")), {"X", "x"}, F.Indep(F.Add(F.Var("y"), "x")), _Y),
    (F.Spanning(F.Remove(F.Var("X"), "x")), {"X", "x"}, F.Spanning(F.Var("y")), _Y),
    (F.Not(_MEMBER), {"x", "X"}, F.Not(F.Indep(F.Var("y"))), _Y),
    (
        F.And(_MEMBER, F.ElemEq("z", "x")),
        {"x", "X", "z"},
        F.And(_MEMBER, F.ElemEq("z", "E")),
        _E,
    ),
    (F.Or(F.Indep(F.Var("Z")), _MEMBER), {"Z", "x", "X"}, F.Or(_MEMBER, F.Indep(F.Var("y"))), _Y),
    (
        F.Implies(_MEMBER, F.Indep(F.Remove(F.Add(F.Var("Z"), "z"), "x"))),
        {"x", "X", "Z", "z"},
        F.Implies(_MEMBER, F.Indep(F.Remove(F.Add(F.Var("Z"), "E"), "x"))),
        _E,
    ),
    (F.Exists("x", _MEMBER), {"X"}, F.Exists("x", F.Member("x", F.Var("y"))), _Y),
    (
        F.Forall("X", F.And(_MEMBER, F.Indep(F.Var("X")))),
        {"x"},
        F.Forall("X", F.Member("E", F.Var("X"))),
        _E,
    ),
]


@pytest.mark.parametrize(
    "good,free,bad,message", _KINDS, ids=[type(good).__name__ for good, *_ in _KINDS]
)
def test_node_kinds_built_in_code(good, free, bad, message):
    assert F.free_variables(good) == free
    assert F.check_kinds(good) is good
    assert parse(F.to_text(good)) == good
    with pytest.raises(DomainError) as err:
        F.check_kinds(bad)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "node",
    [F.Var("X"), "x", None, F.Indep(F.ElemEq("x", "z")), F.Not(F.Remove(F.Var("X"), "x"))],
    ids=["term", "str", "None", "formula-as-term", "term-as-subformula"],
)
def test_non_formula_objects_rejected(node):
    for walk in (F.free_variables, F.check_kinds):
        with pytest.raises(DomainError):
            walk(node)
