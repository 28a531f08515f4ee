"""MSO formula syntax trees over matroids.

Variables are plain strings; names starting with an uppercase letter are
set variables, the rest element variables.  Set-valued positions accept
terms built from a set variable by removing or adding single elements,
which is what the circuit/base/independence idioms need.  ``desugar``
lowers a formula to the compiled evaluator's core: atoms, disjunction,
negation, and existential quantifiers.
"""

from dataclasses import dataclass

from ..errors import DomainError

__all__ = [
    "Var",
    "Remove",
    "Add",
    "ElemEq",
    "SetEq",
    "Member",
    "InClosure",
    "ClosureEq",
    "Indep",
    "Not",
    "And",
    "Or",
    "Implies",
    "Exists",
    "Forall",
    "is_set_name",
    "free_variables",
    "to_text",
    "desugar",
    "check_kinds",
]


def is_set_name(name):
    return bool(name) and name[0].isupper()


# -- set terms ---------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Remove:
    term: object
    elem: str  # element variable removed from the set


@dataclass(frozen=True)
class Add:
    term: object
    elem: str


# -- atoms --------------------------------------------------------------------


@dataclass(frozen=True)
class ElemEq:
    left: str
    right: str


@dataclass(frozen=True)
class SetEq:
    left: object
    right: object


@dataclass(frozen=True)
class Member:
    elem: str
    term: object


@dataclass(frozen=True)
class InClosure:
    elem: str
    term: object


@dataclass(frozen=True)
class ClosureEq:
    left: object
    right: object


@dataclass(frozen=True)
class Indep:
    term: object


# -- connectives and quantifiers ------------------------------------------------


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Exists:
    var: str
    inner: object


@dataclass(frozen=True)
class Forall:
    var: str
    inner: object


def _term_vars(term, acc):
    if isinstance(term, Var):
        acc.add(term.name)
    elif isinstance(term, (Remove, Add)):
        acc.add(term.elem)
        _term_vars(term.term, acc)
    else:
        raise DomainError(f"not a set term: {term!r}")


def free_variables(formula):
    """Free variable names of the formula."""
    out = set()

    def walk(f, bound):
        if isinstance(f, ElemEq):
            out.update({f.left, f.right} - bound)
        elif isinstance(f, (SetEq, ClosureEq)):
            acc = set()
            _term_vars(f.left, acc)
            _term_vars(f.right, acc)
            out.update(acc - bound)
        elif isinstance(f, (Member, InClosure)):
            acc = {f.elem}
            _term_vars(f.term, acc)
            out.update(acc - bound)
        elif isinstance(f, Indep):
            acc = set()
            _term_vars(f.term, acc)
            out.update(acc - bound)
        elif isinstance(f, Not):
            walk(f.inner, bound)
        elif isinstance(f, (And, Or, Implies)):
            walk(f.left, bound)
            walk(f.right, bound)
        elif isinstance(f, (Exists, Forall)):
            walk(f.inner, bound | {f.var})
        else:
            raise DomainError(f"not a formula node: {f!r}")

    walk(formula, set())
    return out


def check_kinds(formula):
    """Reject element variables in set positions and vice versa."""

    def term(t, want_set=True):
        if isinstance(t, Var):
            if is_set_name(t.name) != want_set:
                kind = "set" if want_set else "element"
                raise DomainError(f"variable {t.name!r} used as a {kind} variable")
        elif isinstance(t, (Remove, Add)):
            if is_set_name(t.elem):
                raise DomainError(f"set variable {t.elem!r} used as an element")
            term(t.term, want_set=True)

    def walk(f):
        if isinstance(f, ElemEq):
            for v in (f.left, f.right):
                if is_set_name(v):
                    raise DomainError(f"set variable {v!r} used as an element")
        elif isinstance(f, (SetEq, ClosureEq)):
            term(f.left)
            term(f.right)
        elif isinstance(f, (Member, InClosure)):
            if is_set_name(f.elem):
                raise DomainError(f"set variable {f.elem!r} used as an element")
            term(f.term)
        elif isinstance(f, Indep):
            term(f.term)
        elif isinstance(f, Not):
            walk(f.inner)
        elif isinstance(f, (And, Or, Implies)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, (Exists, Forall)):
            walk(f.inner)

    walk(formula)
    return formula


def _term_text(t):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Remove):
        return f"{_term_text(t.term)} \\ {{{t.elem}}}"
    return f"{_term_text(t.term)} + {{{t.elem}}}"


def to_text(f):
    """Render in the ASCII surface grammar; parse(to_text(f)) == f."""
    if isinstance(f, ElemEq):
        return f"{f.left} = {f.right}"
    if isinstance(f, SetEq):
        return f"{_term_text(f.left)} = {_term_text(f.right)}"
    if isinstance(f, ClosureEq):
        return f"cl({_term_text(f.left)}) = cl({_term_text(f.right)})"
    if isinstance(f, Member):
        return f"{f.elem} in {_term_text(f.term)}"
    if isinstance(f, InClosure):
        return f"{f.elem} in cl({_term_text(f.term)})"
    if isinstance(f, Indep):
        return f"indep({_term_text(f.term)})"
    if isinstance(f, Not):
        return f"!({to_text(f.inner)})"
    if isinstance(f, And):
        return f"({to_text(f.left)} & {to_text(f.right)})"
    if isinstance(f, Or):
        return f"({to_text(f.left)} | {to_text(f.right)})"
    if isinstance(f, Implies):
        return f"({to_text(f.left)} -> {to_text(f.right)})"
    if isinstance(f, Exists):
        return f"(exists {f.var} ({to_text(f.inner)}))"
    if isinstance(f, Forall):
        return f"(forall {f.var} ({to_text(f.inner)}))"
    raise DomainError(f"not a formula node: {f!r}")


def _fresh_name(used, base="w"):
    k = 0
    while f"{base}{k}" in used or f"{base}{k}".upper() in used:
        k += 1
    return f"{base}{k}"


def _all_names(f):
    """All variable names occurring in f, bound ones included."""
    names = set()

    def term(t):
        if isinstance(t, Var):
            names.add(t.name)
        elif isinstance(t, (Remove, Add)):
            names.add(t.elem)
            term(t.term)

    def walk(g):
        if isinstance(g, ElemEq):
            names.update((g.left, g.right))
        elif isinstance(g, (SetEq, ClosureEq)):
            term(g.left)
            term(g.right)
        elif isinstance(g, (Member, InClosure)):
            names.add(g.elem)
            term(g.term)
        elif isinstance(g, Indep):
            term(g.term)
        elif isinstance(g, Not):
            walk(g.inner)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Exists, Forall)):
            names.add(g.var)
            walk(g.inner)

    walk(f)
    return names


def desugar(formula):
    """Lower to the compiled core: atoms, Or, Not, Exists.

    - and/implies/forall go through the usual reductions;
    - cl-equality becomes a universally quantified membership biconditional;
    - every other atom, indep(T) included, is kept as it is.
    """
    used = _all_names(formula)

    def fresh():
        name = _fresh_name(used)
        used.add(name)
        return name

    def walk(f):
        if isinstance(f, (ElemEq, SetEq, Member, InClosure, Indep)):
            return f
        if isinstance(f, ClosureEq):
            e = fresh()
            a = InClosure(e, f.left)
            b = InClosure(e, f.right)
            both = Not(Or(Not(Or(Not(a), b)), Not(Or(Not(b), a))))
            return Not(Exists(e, Not(both)))
        if isinstance(f, Not):
            return Not(walk(f.inner))
        if isinstance(f, Or):
            return Or(walk(f.left), walk(f.right))
        if isinstance(f, And):
            return Not(Or(Not(walk(f.left)), Not(walk(f.right))))
        if isinstance(f, Implies):
            return Or(Not(walk(f.left)), walk(f.right))
        if isinstance(f, Exists):
            return Exists(f.var, walk(f.inner))
        if isinstance(f, Forall):
            return Not(Exists(f.var, Not(walk(f.inner))))
        raise DomainError(f"not a formula node: {f!r}")

    return walk(formula)
