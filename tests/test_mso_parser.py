"""MSO surface grammar: parsing, printing, kinds, errors."""

import pytest

from amwidth.errors import DomainError, FormulaSyntaxError
from amwidth.mso import formulas as F
from amwidth.mso.parser import parse, tokenize


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
    assert F.to_text(parse(r"is_base(X \ {x})")) == (
        r"(indep(X \ {x}) & (forall e_8 ((!(e_8 in X \ {x}) -> !(indep(X \ {x} + {e_8}))))))"
    )
    assert F.to_text(parse("spanning(X + {y})")) == "(forall e_8 (e_8 in cl(X + {y})))"
    assert F.to_text(parse("ind(X) | is_circuit((Y))")) == (
        r"(indep(X) | (!(indep(Y)) & (forall e_11 ((e_11 in Y -> indep(Y \ {e_11}))))))"
    )


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
    core = F.desugar(parse("forall e (indep(X1) -> e in X1)"))
    # indep is a core atom: the compiled evaluator decides it natively
    assert F.desugar(F.Indep(F.Var("X1"))) == F.Indep(F.Var("X1"))
    assert "indep(X1)" in F.to_text(core)

    def check(f):
        assert isinstance(
            f,
            (F.ElemEq, F.SetEq, F.Member, F.InClosure, F.Indep, F.Not, F.Or, F.Exists),
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
