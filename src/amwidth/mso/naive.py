"""Textbook MSO semantics by exhaustive quantifier expansion.

This is the oracle for the decomposition-based evaluator: quantifiers
loop over elements and all subsets, atoms reduce to rank-table queries.
Only feasible for small ground sets; guarded by the usual cap.
"""

from itertools import chain, combinations

from ..config import NAIVE_MSO_CAP, check_cap
from ..errors import DomainError
from ..files import _int
from . import formulas as F

__all__ = ["eval_naive", "check_assignment"]


def _subsets(ground):
    items = sorted(ground)
    return chain.from_iterable(
        combinations(items, r) for r in range(len(items) + 1)
    )


def check_assignment(ground, formula, assignment):
    """Every free variable's value, checked against its kind and ``ground``.

    Element ids follow the file loaders' rule: a JSON integer or a string
    holding one; anything else raises DomainError.
    """
    assignment = assignment or {}
    out = {}
    for name in sorted(F.free_variables(formula)):
        if name not in assignment:
            raise DomainError(f"free variable {name!r} has no assigned value")
        value = assignment[name]
        what = f"element of {name!r}"
        if F.is_set_name(name):
            if not isinstance(value, (set, frozenset, list, tuple)):
                raise DomainError(f"set variable {name!r} needs a set value")
            value = frozenset(_int(e, what) for e in value)
            missing = value - ground
            if missing:
                raise DomainError(
                    f"assignment of {name!r} uses unknown elements {sorted(missing)}"
                )
        else:
            if isinstance(value, (set, frozenset, list, tuple)):
                raise DomainError(f"element variable {name!r} needs a single element")
            value = _int(value, what)
            if value not in ground:
                raise DomainError(f"assignment of {name!r} uses unknown element {value}")
        out[name] = value
    return out


def _term_value(term, env):
    if isinstance(term, F.Var):
        return env[term.name]
    if isinstance(term, F.Remove):
        return _term_value(term.term, env) - {env[term.elem]}
    if isinstance(term, F.Add):
        return _term_value(term.term, env) | {env[term.elem]}
    raise DomainError(f"not a set term: {term!r}")


def eval_naive(m, formula, assignment=None):
    """Evaluate ``formula`` on matroid ``m`` under ``assignment``."""
    check_cap(m.size, "naive MSO evaluation", NAIVE_MSO_CAP)
    env = check_assignment(m.ground_set, formula, assignment)
    ground = m.ground_set

    def ev(f, env):
        if isinstance(f, F.ElemEq):
            return env[f.left] == env[f.right]
        if isinstance(f, F.SetEq):
            return _term_value(f.left, env) == _term_value(f.right, env)
        if isinstance(f, F.ClosureEq):
            return m.closure(_term_value(f.left, env)) == m.closure(
                _term_value(f.right, env)
            )
        if isinstance(f, F.Member):
            return env[f.elem] in _term_value(f.term, env)
        if isinstance(f, F.InClosure):
            return env[f.elem] in m.closure(_term_value(f.term, env))
        if isinstance(f, F.Indep):
            return m.independent(_term_value(f.term, env))
        if isinstance(f, F.Spanning):
            return m.closure(_term_value(f.term, env)) == ground
        if isinstance(f, F.Not):
            return not ev(f.inner, env)
        if isinstance(f, F.And):
            return ev(f.left, env) and ev(f.right, env)
        if isinstance(f, F.Or):
            return ev(f.left, env) or ev(f.right, env)
        if isinstance(f, F.Implies):
            return (not ev(f.left, env)) or ev(f.right, env)
        if isinstance(f, F.Exists):
            return any(
                ev(f.inner, {**env, f.var: val}) for val in _range_of(f.var)
            )
        if isinstance(f, F.Forall):
            return all(
                ev(f.inner, {**env, f.var: val}) for val in _range_of(f.var)
            )
        raise DomainError(f"not a formula node: {f!r}")

    def _range_of(var):
        if F.is_set_name(var):
            return (frozenset(s) for s in _subsets(ground))
        return iter(sorted(ground))

    return bool(ev(formula, env))
