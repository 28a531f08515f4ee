"""MSO formula syntax trees over matroids.

Variables are plain strings; names starting with an uppercase letter are
set variables, the rest element variables.  Set-valued positions accept
terms built from a set variable by removing or adding single elements,
which is what the circuit/base/independence idioms need.  ``desugar``
lowers a formula to the compiled evaluator's core: atoms, disjunction,
negation, and existential quantifiers.

The table ``_FIELDS`` is the one place that knows which fields of each
node kind hold element names, set terms, subformulas and the bound
variable.  ``parts`` reads it, and every walk that needs only a node's
shape (free variables, kind checks, the names in use) recurses over
``parts``; the functions that give each kind its meaning (``to_text``,
``desugar`` and the evaluators) name the kinds themselves.
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
    "Spanning",
    "Not",
    "And",
    "Or",
    "Implies",
    "Exists",
    "Forall",
    "is_set_name",
    "parts",
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


@dataclass(frozen=True)
class Spanning:
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


# node class -> the fields that hold (element names, set terms, subformulas,
# the variable it binds); the one place that knows each kind's fields
_FIELDS = {
    ElemEq: (("left", "right"), (), (), ()),
    SetEq: ((), ("left", "right"), (), ()),
    Member: (("elem",), ("term",), (), ()),
    InClosure: (("elem",), ("term",), (), ()),
    ClosureEq: ((), ("left", "right"), (), ()),
    Indep: ((), ("term",), (), ()),
    Spanning: ((), ("term",), (), ()),
    Not: ((), (), ("inner",), ()),
    And: ((), (), ("left", "right"), ()),
    Or: ((), (), ("left", "right"), ()),
    Implies: ((), (), ("left", "right"), ()),
    Exists: ((), (), ("inner",), ("var",)),
    Forall: ((), (), ("inner",), ("var",)),
}


def parts(f):
    """What a formula node holds: the variable names it uses outside its
    subformulas, each paired with whether it sits in a set position (a
    term gives its removed or added elements, outermost first, then its
    set variable); its subformulas; the names it binds."""
    fields = _FIELDS.get(type(f))
    if fields is None:
        raise DomainError(f"not a formula node: {f!r}")
    elems, terms, subs, binds = fields
    names = [(getattr(f, a), False) for a in elems]
    for a in terms:
        t = getattr(f, a)
        while isinstance(t, (Remove, Add)):
            names.append((t.elem, False))
            t = t.term
        if not isinstance(t, Var):
            raise DomainError(f"not a set term: {t!r}")
        names.append((t.name, True))
    return names, [getattr(f, a) for a in subs], [getattr(f, a) for a in binds]


def free_variables(formula):
    """Free variable names of the formula; rejects element variables in
    set positions and vice versa."""
    names, subs, binds = parts(formula)
    out = set()
    for name, in_set in names:
        if is_set_name(name) != in_set:
            if in_set:
                raise DomainError(f"variable {name!r} used as a set variable")
            raise DomainError(f"set variable {name!r} used as an element")
        out.add(name)
    for g in subs:
        out |= free_variables(g)
    return out.difference(binds)


def check_kinds(formula):
    """Reject element variables in set positions and vice versa, in the
    walk of ``free_variables``; return ``formula``."""
    free_variables(formula)
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
    if isinstance(f, Spanning):
        return f"spanning({_term_text(f.term)})"
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
    names, subs, binds = parts(f)
    out = {name for name, _ in names}.union(binds)
    for g in subs:
        out |= _all_names(g)
    return out


def desugar(formula):
    """Lower to the compiled core: atoms, Or, Not, Exists.

    - and/implies/forall go through the usual reductions;
    - cl-equality becomes a universally quantified membership biconditional;
    - every other atom, indep(T) and spanning(T) included, is kept as it is.
    """
    used = _all_names(formula)

    def fresh():
        name = _fresh_name(used)
        used.add(name)
        return name

    def walk(f):
        if isinstance(f, (ElemEq, SetEq, Member, InClosure, Indep, Spanning)):
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
