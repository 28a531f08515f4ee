"""Decomposition-based MSO evaluation as a finite tree automaton.

The pass is ``types_dp.bottom_up``, the driver the Tutte DP runs on too.
Every subformula gets one deterministic state per node, mirroring the
bottom-up tree-automaton construction: atoms keep a small progress
summary, disjunctions run their parts in parallel as a product, negation
reuses the same states, and quantifiers determinize on the fly, holding
the set of (placement abstraction, inner state) pairs reachable over all
ways of guessing the variable inside the subtree.  A placement
abstraction is all the ancestors can still see: for an element, whether
it is placed and, if it sits on the boundary, where; for a set, its
boundary trace.  Closure atoms carry the node type of the tracked set
and, once the queried element lies in the subtree, a conditional
membership bit per boundary subset, both advanced through the glue
matroid by the type-join fixed point.  An independence atom indep(T)
carries the extended type of T restricted to the subtree, the same
signature the Tutte DP keys its tables by, together with one bit saying
whether that restriction is independent so far: a node joins the
children's extended types with its fresh part F of T and keeps the bit
only when both children's bits hold and the join's rank increment equals
|F|, since r(X1 + X2 + F) <= r(X1) + r(X2) + |F|.

A leaf is a node like any other, with empty J1, J2 and D, so all of its
K is fresh; its children are two empty subtrees.  ``_empty`` gives each
subformula's state there: atoms undecided or vacuously true, closure
and independence atoms the empty signature, and a quantified variable
not placed (a set's empty trace).

States hold no element ids.  A placed element is its mask over the
node's sorted boundary (0 when it is hidden below), a set trace is a
boundary mask, and a node sees each variable, free or being guessed,
through K-masks in the positions of its join context: a set as the mask
of its part in K, an element as its bit in K alone (0 outside K).  An
element is met at the nodes whose K holds it, the lowest of them first,
so membership and equality atoms decide there: once either bit is set,
two elements are equal exactly when both bits are set and equal, and no
decided atom needs to know where a hidden element sits.  A closure atom
reads its membership tuple off the fixed points where the element's bit
is set and carries it up from the one child that holds one elsewhere.
A prepared tree gives each element one id: no node's D holds an id of
its ground set, so a free variable's view never meets D.  So a
transition depends only on the node's canonical shape, the children's
states and the views of the subformula's free variables.  Each
distinct state is interned once per run as an int that carries its
size, and the memo of each shape's ``JoinContext``, kept for the whole
run, maps (subformula, child states, views) to the combined state.
Along a chain of identical nodes the states settle after a few nodes,
and every further node is a dict hit.

Elements are introduced at a unique node (the one whose glue matroid
has them fresh, at a leaf all of its K), so guesses extend states
locally; choices that touch a node's deleted set die there.  State
sizes are bounded by width and formula only; a budget on the summed
sizes of the distinct interned states a run reaches guards explosion
and names the offending formula.
"""

from operator import itemgetter

from ..config import MSO_BUDGET
from ..errors import CompilationBudgetError, DomainError
from ..types_dp import EMPTY, bottom_up
from . import formulas as F
from .naive import check_assignment

__all__ = ["eval_decomposition", "eval_with_counts", "compiled_state_counts"]

# atom states: undecided, true, false; each is its own interned id
_U, _T, _F = 0, 1, 2
# the placement of an element variable not placed in the subtree
_OUT = -1


class _Run:
    def __init__(self, tree, core, values):
        self.tree = tree
        self.core = core
        self.values = values
        self.label = F.to_text(core)
        self.total = 0  # every charge, as the debug dump reports it
        self._charged = set()  # interned ids charged so far
        self._budget_used = 0  # their sizes, each counted once
        self._keys = {}  # id(subformula) -> views -> its free variables' views
        self._key_views(core)
        self._ids = {_U: _U, _T: _T, _F: _F}  # state -> interned id
        self._states = [_U, _T, _F]  # interned id -> state
        self._sizes = [1, 1, 1]  # interned id -> size

    def _key_views(self, f):
        """Record the view key of f and of each of its subformulas, bottom
        up; return the free variables of f."""
        names, subs, binds = F.parts(f)
        free = {name for name, _ in names}
        for g in subs:
            free |= self._key_views(g)
        free.difference_update(binds)
        key = sorted(free)
        self._keys[id(f)] = itemgetter(*key) if key else _no_views
        return free

    def _viewkey(self, f, views):
        return self._keys[id(f)](views)

    def _intern(self, state, size=1):
        sid = self._ids.get(state)
        if sid is None:
            sid = self._ids[state] = len(self._states)
            self._states.append(state)
            self._sizes.append(size)
        return sid

    def _exists_state(self, pairs):
        return self._intern(frozenset(pairs), sum(1 + self._sizes[s] for _, s in pairs))

    def _charge(self, sid):
        """Count a node's state; the budget sees each distinct state once,
        so it bounds the states a run builds, not the tree's size."""
        self.total += self._sizes[sid]
        if sid in self._charged:
            return sid
        self._charged.add(sid)
        self._budget_used += self._sizes[sid]
        if self._budget_used > MSO_BUDGET:
            raise CompilationBudgetError(
                "compiled evaluator exceeded its state budget", self.label
            )
        return sid

    def _views(self, view):
        """The free variables as this node sees them (see the module doc)."""
        index = view.index
        views = {}
        for name, value in self.values.items():
            if F.is_set_name(name):
                views[name] = sum(1 << p for e, p in index.items() if e in value)
                continue
            p = index.get(value)
            views[name] = 0 if p is None else 1 << p
        return views

    # -- evaluation -----------------------------------------------------------

    def result(self):
        empty = self._empty(self.core)
        return self._resolve(self.core, bottom_up(self.tree, empty, self._join))

    def _join(self, view, s1, s2):
        return self._charge(self._combine(self.core, view.ctx, s1, s2, self._views(view)))

    # -- the empty subtree ----------------------------------------------------------

    def _empty(self, f):
        """The state of ``f`` on an empty subtree, both children's at a leaf."""
        if isinstance(f, (F.Member, F.ElemEq)):
            return _U
        if isinstance(f, F.SetEq):
            return _T
        if isinstance(f, F.InClosure):
            return self._intern((EMPTY.base, None))
        if isinstance(f, F.Indep):
            return self._intern((EMPTY, True))
        if isinstance(f, F.Not):
            return self._empty(f.inner)
        if isinstance(f, F.Or):
            a, b = self._empty(f.left), self._empty(f.right)
            return self._intern((a, b), self._sizes[a] + self._sizes[b])
        if isinstance(f, F.Exists):
            comp = 0 if F.is_set_name(f.var) else _OUT
            return self._exists_state({(comp, self._empty(f.inner))})
        raise DomainError(f"not a core formula node: {f!r}")

    # -- combination at a node ------------------------------------------------------

    def _combine(self, f, ctx, s1, s2, views):
        key = (id(f), s1, s2, self._viewkey(f, views))
        sid = ctx.memo.get(key)
        if sid is None:
            sid = ctx.memo[key] = self._combine_raw(f, ctx, s1, s2, views)
        return sid

    def _combine_raw(self, f, ctx, s1, s2, views):
        if isinstance(f, F.Member):
            return self._member_state(_merge3(s1, s2), f, views)
        if isinstance(f, F.ElemEq):
            return self._elemeq_state(_merge3(s1, s2), f, views)
        if isinstance(f, F.SetEq):
            prev = _F if _F in (s1, s2) else _T
            return self._seteq_state(prev, f, ctx.fresh, views)
        if isinstance(f, F.InClosure):
            return self._closure_combine(f, ctx, s1, s2, views)
        if isinstance(f, F.Indep):
            (sig1, ok1), (sig2, ok2) = self._states[s1], self._states[s2]
            fresh = self._term_mask(f.term, views) & ctx.fresh
            sig, delta = ctx.extended_join(sig1, sig2, fresh)
            return self._intern((sig, ok1 and ok2 and delta == fresh.bit_count()))
        if isinstance(f, F.Not):
            return self._combine(f.inner, ctx, s1, s2, views)
        if isinstance(f, F.Or):
            (l1, r1), (l2, r2) = self._states[s1], self._states[s2]
            a = self._combine(f.left, ctx, l1, l2, views)
            b = self._combine(f.right, ctx, r1, r2, views)
            return self._intern((a, b), self._sizes[a] + self._sizes[b])
        if isinstance(f, F.Exists):
            return self._exists_state(
                {
                    (comp, self._combine(f.inner, ctx, a1, a2, {**views, f.var: view}))
                    for c1, a1 in self._states[s1]
                    for c2, a2 in self._states[s2]
                    for comp, view in self._choices(f.var, ctx, c1, c2)
                }
            )
        raise DomainError(f"not a core formula node: {f!r}")

    def _choices(self, var, ctx, c1, c2):
        """Consistent placements of ``var`` at a node, given the children's
        placements c1 and c2, with the variable's view here."""
        gather = ctx.parent.gather
        if F.is_set_name(var):
            base = ctx.side1.scatter[c1] | ctx.side2.scatter[c2]
            if base & ctx.dmask:
                return ()
            return [(gather[x], x) for x in (base | s for s in ctx.fresh_masks)]
        if c1 != _OUT and c2 != _OUT:
            return ()
        if c1 != _OUT or c2 != _OUT:
            comp, side = (c1, ctx.side1) if c1 != _OUT else (c2, ctx.side2)
            bit = side.scatter[comp]
            if bit & ctx.dmask:
                return ()
            return ((gather[bit], bit),)
        return [(_OUT, 0)] + [(gather[b], b) for b in ctx.fresh_bits]

    # -- atoms -----------------------------------------------------------------------

    def _term_mask(self, term, views):
        if isinstance(term, F.Var):
            return views[term.name]
        if isinstance(term, F.Remove):
            return self._term_mask(term.term, views) & ~views[term.elem]
        if isinstance(term, F.Add):
            return self._term_mask(term.term, views) | views[term.elem]
        raise DomainError(f"not a set term: {term!r}")

    def _member_state(self, prev, f, views):
        if prev != _U:
            return prev
        bit = views[f.elem]
        if not bit:
            return _U
        return _T if bit & self._term_mask(f.term, views) else _F

    def _elemeq_state(self, prev, f, views):
        if prev != _U:
            return prev
        xb, yb = views[f.left], views[f.right]
        if not xb and not yb:
            return _U
        return _T if xb == yb else _F  # each is met where its K holds it

    def _seteq_state(self, prev, f, fresh, views):
        if prev == _F:
            return _F
        va = self._term_mask(f.left, views)
        vb = self._term_mask(f.right, views)
        return _F if (va ^ vb) & fresh else _T

    def _closure_combine(self, f, ctx, s1, s2, views):
        (fmap1, g1), (fmap2, g2) = self._states[s1], self._states[s2]
        bit = views[f.elem]
        zs = ctx.fixpoints(fmap1, fmap2, self._term_mask(f.term, views))
        fmap = tuple(ctx.parent.gather[z] for z in zs)
        if bit:
            g = tuple(bool(z & bit) for z in zs)
        elif g1 is not None:
            g = tuple(g1[ctx.side1.gather[z]] for z in zs)
        elif g2 is not None:
            g = tuple(g2[ctx.side2.gather[z]] for z in zs)
        else:
            g = None
        return self._intern((fmap, g))

    # -- resolution at the root ---------------------------------------------------------

    def _resolve(self, f, sid):
        state = self._states[sid]
        if isinstance(f, (F.Member, F.ElemEq)):
            if state == _U:
                raise DomainError(f"unresolved atom {F.to_text(f)!r}")
            return state == _T
        if isinstance(f, F.SetEq):
            return state == _T
        if isinstance(f, F.InClosure):
            if state[1] is None:
                raise DomainError(f"unresolved closure atom {F.to_text(f)!r}")
            return state[1][0]
        if isinstance(f, F.Indep):
            return state[1]
        if isinstance(f, F.Not):
            return not self._resolve(f.inner, sid)
        if isinstance(f, F.Or):
            return self._resolve(f.left, state[0]) or self._resolve(f.right, state[1])
        if isinstance(f, F.Exists):
            for comp, inner in state:
                if not F.is_set_name(f.var) and comp == _OUT:
                    continue
                if self._resolve(f.inner, inner):
                    return True
            return False
        raise DomainError(f"not a core formula node: {f!r}")


def _no_views(views):
    return ()


def _merge3(s1, s2):
    if s1 != _U:
        return s1
    return s2


def eval_with_counts(tree, formula, assignment=None):
    """Truth of ``formula`` on realize(tree) without realizing it, with the
    per-subformula accumulated state sizes of the debug dump."""
    tree = tree.prepared()
    values = check_assignment(tree.ground(), formula, assignment)
    run = _Run(tree, F.desugar(formula), values)
    verdict = run.result()
    return verdict, {run.label: run.total}


def eval_decomposition(tree, formula, assignment=None):
    """Truth of ``formula`` on realize(tree) without realizing it."""
    return eval_with_counts(tree, formula, assignment)[0]


def compiled_state_counts(tree, formula, assignment=None):
    """Per-subformula accumulated state sizes, for the debug dump."""
    return eval_with_counts(tree, formula, assignment)[1]
