"""Decomposition-based MSO evaluation as a finite tree automaton.

The pass is ``types_dp.bottom_up``, the driver the Tutte DP runs on too.
Every subformula gets one deterministic state per node, mirroring the
bottom-up tree-automaton construction: atoms keep a small progress
summary, disjunctions run their parts in parallel as a product, and
quantifiers determinize on the fly, holding the set of (placement
abstraction, inner state) pairs reachable over all ways of guessing the
variable inside the subtree.  A negation has no state of its own: its
inner subformula's state serves, and only the reading at the root flips
it.  A placement abstraction is all the ancestors can still see: for an
element, whether it is placed and, if it sits on the boundary, where;
for a set, its boundary trace.  Closure atoms carry the node type of the tracked set
and, once the queried element lies in the subtree, a conditional
membership bit per boundary subset, both advanced through the glue
matroid by the type-join fixed point.  An independence atom indep(T)
carries the extended type of T restricted to the subtree, the same
signature the Tutte DP keys its tables by, together with one bit saying
whether that restriction is independent so far: a node joins the
children's extended types with its fresh part F of T and keeps the bit
only when both children's bits hold and the join's rank increment equals
|F|, since r(X1 + X2 + F) <= r(X1) + r(X2) + |F|.

A spanning atom spanning(T) carries T's node type, as a closure atom
does, and a bit per parent-boundary subset Y saying whether every
element of E(M(v)) outside the boundary lies in cl(T_v + Y), T_v the
part of T in the subtree.  A node reads it off the closure fixed point z
that Y seeds, the one the closure atom uses: the bit holds when each
child's bit holds at its boundary part of z and z covers K outside D and
the parent boundary (``JoinContext.interior``).  This is the closure
atom's modular-flat argument taken over all elements at once: each
element of K is checked once, at the node where it leaves the boundary,
or never, if a node deletes it.  The root reads the bit of the empty
boundary subset.  So is_base(T), which the parser reads as indep(T) and
spanning(T), needs no quantifier either.

A leaf is a node like any other, with empty J1, J2 and D, so all of its
K is fresh; its children are two empty subtrees.  A subformula's state
there, its empty state, is: atoms undecided or vacuously true, closure,
independence and spanning atoms the empty signature (a spanning atom's
one bit true), and a quantified variable not placed (a set's empty
trace).

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

The core is compiled once per run (``_Run._compile``): each subformula's
transition is chosen by its kind then, together with its empty state and
its reading at the root, so no call dispatches on the kind again.
Membership and equality atoms, set equality too, are computed in
place, without a memo entry.  The views of a node are one list with a slot per variable name;
a quantifier writes each guess into its variable's slot and puts the
outer value back after, so a rebound name shadows only inside.  Its
choices at a node depend on the variable's kind and the children's
placements alone, so the context's memo keeps each such list too, under
(is a set, c1, c2).

Elements are introduced at a unique node (the one whose glue matroid
has them fresh, at a leaf all of its K), so guesses extend states
locally; choices that touch a node's deleted set die there.  State
sizes are bounded by width and formula only.  A budget on the state DAG
a run builds guards explosion and names the offending formula: each
distinct interned state is charged once, 1 for an atom or disjunction
state and 1 plus its pair count for a quantifier state.  The type maps
that closure and independence atoms make are charged to the same budget,
2^|parent boundary| entries per miss of a join context's memo, before the
miss makes them (``JoinContext.charge``), so a wide node stops the run
before its maps fill memory.
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
        self.label = F.to_text(core)
        self.total = 0  # every node's expanded state size, as the debug dump reports it
        self._budget_used = 0  # own sizes of the distinct interned states, and type maps
        self._ids = {_U: _U, _T: _T, _F: _F}  # state -> interned id
        self._states = [_U, _T, _F]  # interned id -> state
        self._sizes = [1, 1, 1]  # interned id -> expanded size
        self._slots = {}  # variable name -> its index in a views list
        self._step, self._empty, self._resolve, _ = self._compile(core)
        self._values = [
            (self._slots[name], F.is_set_name(name), value) for name, value in values.items()
        ]

    def _slot(self, name):
        return self._slots.setdefault(name, len(self._slots))

    def _intern(self, state, size=1, own=1):
        """The interned id of ``state``.  Its expanded ``size`` goes to the
        debug total at each node that holds it; its ``own`` size is charged
        to the budget once, when the state is first seen, so the budget
        bounds the state DAG a run builds, not the trees it shares."""
        sid = self._ids.get(state)
        if sid is None:
            self._charge(own)
            sid = self._ids[state] = len(self._states)
            self._states.append(state)
            self._sizes.append(size)
        return sid

    def _charge(self, amount):
        """Count ``amount`` toward ``MSO_BUDGET``: a new state's own size,
        or the type-map entries a join context's memo miss is about to
        make (``JoinContext.charge``)."""
        self._budget_used += amount
        if self._budget_used > MSO_BUDGET:
            raise CompilationBudgetError("compiled evaluator exceeded its state budget", self.label)

    def _exists_state(self, pairs):
        sizes = self._sizes
        return self._intern(
            frozenset(pairs), sum(1 + sizes[s] for _, s in pairs), 1 + len(pairs)
        )

    def _views(self, nid):
        """The free variables as node nid sees them (see the module doc),
        one slot each; a bound variable's slot reads 0 until guessed.  Only
        a formula with free variables maps K's ids to canonical positions."""
        views = [0] * len(self._slots)
        if not self._values:
            return views
        k = self.tree.nodes[nid].K
        order = self.tree.shapes()[nid][1]
        index = k._index if order is None else {k.elements[p]: i for i, p in enumerate(order)}
        for slot, is_set, value in self._values:
            if is_set:
                views[slot] = sum(1 << p for e, p in index.items() if e in value)
                continue
            p = index.get(value)
            if p is not None:
                views[slot] = 1 << p
        return views

    # -- evaluation -----------------------------------------------------------

    def result(self):
        return self._resolve(bottom_up(self.tree, self._empty, self._join, self._charge))

    def _join(self, ctx, nid, s1, s2):
        sid = self._step(ctx, s1, s2, self._views(nid))
        self.total += self._sizes[sid]
        return sid

    # -- compiling the core once per run ----------------------------------------

    def _compile(self, f):
        """(step, empty, resolve, free) of the subformula ``f``.

        ``step(ctx, s1, s2, views)`` is f's state at a node from its
        children's, ``empty`` its state on an empty subtree (both
        children's at a leaf), ``resolve(sid)`` the truth a root state
        gives, and ``free`` the slots of f's free variables.  A negation
        has no step of its own: its state is its inner subformula's.
        """
        names, subs, binds = F.parts(f)
        parts = [self._compile(g) for g in subs]
        free = {self._slot(name) for name, _ in names}.union(*(p[3] for p in parts))
        free.difference_update(self._slot(name) for name in binds)
        if isinstance(f, F.Not):
            step, empty, resolve, _ = parts[0]
            return step, empty, lambda sid: not resolve(sid), free
        if isinstance(f, F.Member):
            return (*self._member(f), free)
        if isinstance(f, F.ElemEq):
            return (*self._elemeq(f), free)
        if isinstance(f, F.SetEq):
            return (*self._seteq(f), free)
        if isinstance(f, F.InClosure):
            step, empty, resolve = self._closure(f)
        elif isinstance(f, F.Indep):
            step, empty, resolve = self._indep(f)
        elif isinstance(f, F.Spanning):
            step, empty, resolve = self._spanning(f)
        elif isinstance(f, F.Or):
            step, empty, resolve = self._or(*parts)
        elif isinstance(f, F.Exists):
            step, empty, resolve = self._exists(f.var, *parts)
        else:
            raise DomainError(f"not a core formula node: {f!r}")
        return self._memoized(f, free, step), empty, resolve, free

    def _memoized(self, f, free, step):
        """``step`` behind the memo of each node's context, keyed by f, the
        children's states and the views of f's free variables."""
        fid = id(f)
        viewkey = itemgetter(*sorted(free)) if free else _no_views

        def memo_step(ctx, s1, s2, views):
            key = (fid, s1, s2, viewkey(views))
            memo = ctx.memo
            sid = memo.get(key)
            if sid is None:
                sid = memo[key] = step(ctx, s1, s2, views)
            return sid

        return memo_step

    def _term(self, term):
        """A set term as the function of the views that gives its mask."""
        if isinstance(term, F.Var):
            return itemgetter(self._slots[term.name])
        inner, elem = self._term(term.term), self._slots[term.elem]
        if isinstance(term, F.Remove):
            return lambda views: inner(views) & ~views[elem]
        return lambda views: inner(views) | views[elem]

    # -- atoms -----------------------------------------------------------------------

    def _member(self, f):
        elem, term = self._slots[f.elem], self._term(f.term)

        def step(ctx, s1, s2, views):
            prev = s1 if s1 != _U else s2
            if prev != _U:
                return prev
            bit = views[elem]
            if not bit:
                return _U
            return _T if bit & term(views) else _F

        return step, _U, _decided(f)

    def _elemeq(self, f):
        x, y = self._slots[f.left], self._slots[f.right]

        def step(ctx, s1, s2, views):
            prev = s1 if s1 != _U else s2
            if prev != _U:
                return prev
            xb, yb = views[x], views[y]
            if not xb and not yb:
                return _U
            return _T if xb == yb else _F  # each is met where its K holds it

        return step, _U, _decided(f)

    def _seteq(self, f):
        left, right = self._term(f.left), self._term(f.right)

        def step(ctx, s1, s2, views):
            if s1 == _F or s2 == _F:
                return _F
            return _F if (left(views) ^ right(views)) & ctx.fresh.mask else _T

        return step, _T, lambda sid: sid == _T

    def _closure(self, f):
        elem, term = self._slots[f.elem], self._term(f.term)
        states, intern = self._states, self._intern

        def step(ctx, s1, s2, views):
            (fmap1, g1), (fmap2, g2) = states[s1], states[s2]
            bit = views[elem]
            zs = ctx.fixpoints(fmap1, fmap2, term(views))
            gather = ctx.gather_parent
            fmap = tuple([gather[z] for z in zs])
            if bit:
                g = tuple([bool(z & bit) for z in zs])
            elif g1 is not None:
                gather = ctx.gather1
                g = tuple([g1[gather[z]] for z in zs])
            elif g2 is not None:
                gather = ctx.gather2
                g = tuple([g2[gather[z]] for z in zs])
            else:
                g = None
            return intern((fmap, g))

        def resolve(sid):
            g = states[sid][1]
            if g is None:
                raise DomainError(f"unresolved closure atom {F.to_text(f)!r}")
            return g[0]

        return step, intern((EMPTY.base, None)), resolve

    def _indep(self, f):
        term = self._term(f.term)
        states, intern = self._states, self._intern

        def step(ctx, s1, s2, views):
            (sig1, ok1), (sig2, ok2) = states[s1], states[s2]
            fresh = term(views) & ctx.fresh.mask
            sig, delta = ctx.extended_join(sig1, sig2, fresh)
            return intern((sig, ok1 and ok2 and delta == fresh.bit_count()))

        return step, intern((EMPTY, True)), lambda sid: states[sid][1]

    def _spanning(self, f):
        term = self._term(f.term)
        states, intern = self._states, self._intern

        def step(ctx, s1, s2, views):
            (fmap1, a1), (fmap2, a2) = states[s1], states[s2]
            zs = ctx.fixpoints(fmap1, fmap2, term(views))
            gather, gather1, gather2 = ctx.gather_parent, ctx.gather1, ctx.gather2
            interior = ctx.interior
            fmap = tuple([gather[z] for z in zs])
            a = tuple(
                [a1[gather1[z]] and a2[gather2[z]] and z & interior == interior for z in zs]
            )
            return intern((fmap, a))

        return step, intern((EMPTY.base, (True,))), lambda sid: states[sid][1][0]

    # -- disjunction and quantifier ------------------------------------------------------

    def _or(self, left, right):
        (lstep, lempty, lresolve, _), (rstep, rempty, rresolve, _) = left, right
        states, sizes, intern = self._states, self._sizes, self._intern

        def step(ctx, s1, s2, views):
            (l1, r1), (l2, r2) = states[s1], states[s2]
            a = lstep(ctx, l1, l2, views)
            b = rstep(ctx, r1, r2, views)
            return intern((a, b), sizes[a] + sizes[b])

        def resolve(sid):
            a, b = states[sid]
            return lresolve(a) or rresolve(b)

        return step, intern((lempty, rempty), sizes[lempty] + sizes[rempty]), resolve

    def _exists(self, var, inner):
        """Each guess of ``var`` is written into its slot for the inner
        step, and the outer value is put back after: a rebound name, or a
        bound name the assignment also gives, is shadowed only inside."""
        istep, iempty, iresolve, _ = inner
        slot, is_set = self._slots[var], F.is_set_name(var)
        states = self._states

        def step(ctx, s1, s2, views):
            memo = ctx.memo
            outer = views[slot]
            pairs = set()
            for c1, a1 in states[s1]:
                for c2, a2 in states[s2]:
                    key = (is_set, c1, c2)  # the context's choice list, built once
                    choices = memo.get(key)
                    if choices is None:
                        choices = memo[key] = _choices(is_set, ctx, c1, c2)
                    for comp, view in choices:
                        views[slot] = view
                        pairs.add((comp, istep(ctx, a1, a2, views)))
            views[slot] = outer
            return self._exists_state(pairs)

        def resolve(sid):
            return any(iresolve(a) for comp, a in states[sid] if is_set or comp != _OUT)

        return step, self._exists_state({(0 if is_set else _OUT, iempty)}), resolve


def _choices(is_set, ctx, c1, c2):
    """Consistent placements of a variable at a node, given the children's
    placements c1 and c2, with the variable's view here."""
    gather = ctx.gather_parent
    if is_set:
        base = ctx.scatter1[c1] | ctx.scatter2[c2]
        if base & ctx.dmask:
            return ()
        return [(gather[x], x) for x in (base | s for s in ctx.fresh_masks)]
    if c1 != _OUT and c2 != _OUT:
        return ()
    if c1 != _OUT or c2 != _OUT:
        comp, scatter = (c1, ctx.scatter1) if c1 != _OUT else (c2, ctx.scatter2)
        bit = scatter[comp]
        if bit & ctx.dmask:
            return ()
        return ((gather[bit], bit),)
    return [(_OUT, 0)] + [(gather[1 << p], 1 << p) for p in ctx.fresh.pos]


def _decided(f):
    """Reading of a membership or equality atom's root state."""

    def resolve(sid):
        if sid == _U:
            raise DomainError(f"unresolved atom {F.to_text(f)!r}")
        return sid == _T

    return resolve


def _no_views(views):
    return ()


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
