"""Decomposition-based MSO evaluation in one leaves-to-root pass.

Every subformula gets one deterministic state per node, mirroring the
bottom-up tree-automaton construction: atoms keep a small progress
summary, disjunctions run their parts in parallel as a product,
negation reuses the same states, and quantifiers determinize on the fly,
holding the set of (placement abstraction, inner state) pairs reachable
over all ways of guessing the variable inside the subtree.  A placement
abstraction is all the ancestors can still see: for an element, whether
it is placed and which boundary element it equals; for a set, its
boundary trace.  Closure atoms carry the node type of the tracked set
and, once the queried element lies in the subtree, a conditional
membership bit per boundary subset, both advanced through the glue
matroid by the type-join fixed point.  An independence atom indep(T)
carries the extended type of T restricted to the subtree, the same
signature the Tutte DP keys its tables by, together with one bit saying
whether that restriction is independent so far: a leaf reads both from
its glue matroid, and an internal node joins the children's extended
types with its fresh part F of T and keeps the bit only when both
children's bits hold and the join's rank increment equals |F|, since
r(X1 + X2 + F) <= r(X1) + r(X2) + |F|.

Elements are introduced at a unique node (their leaf, or the glue
matroid where they are fresh), so guesses extend states locally; choices
that touch a node's deleted set die there.  State sizes are bounded by
width and formula only; a budget guards explosion and names the
offending subformula.
"""

from ..config import MSO_BUDGET
from ..errors import CompilationBudgetError, DomainError
from ..types_dp import JoinContext, NodeType, leaf_signatures
from . import formulas as F
from .naive import check_assignment

__all__ = ["eval_decomposition", "msom", "compiled_state_counts"]

_OUT = ("out",)
_HID = ("hid",)


class _NodeInfo:
    def __init__(self, tree, nid):
        node = tree.nodes[nid]
        self.nid = nid
        self.node = node
        self.k = node.K
        self.boundary = tuple(sorted(tree.boundary(nid)))
        self.ground = tree.ground(nid)
        if node.is_leaf:
            self.intro = tuple(sorted(node.K.ground_set))
            self.ctx = None
            self.grounds = None
            self.child_boundaries = None
        else:
            self.intro = tuple(
                sorted(node.K.ground_set - node.J1 - node.J2 - node.D)
            )
            self.ctx = JoinContext(node.K, node.J1, node.J2, self.boundary, node.D)
            c1, c2 = node.children
            self.grounds = (tree.ground(c1), tree.ground(c2))
            self.child_boundaries = (
                tuple(sorted(tree.boundary(c1))),
                tuple(sorted(tree.boundary(c2))),
            )
        self.bpos = {e: i for i, e in enumerate(self.boundary)}
        self.bset = frozenset(self.boundary)
        self._fix_memo = {}
        self._leaf_rows = None
        # subsets of the fresh elements, reused by every set-variable guess
        subsets = [frozenset()]
        for e in self.intro:
            subsets += [s | {e} for s in subsets]
        self.intro_subsets = tuple(subsets)

    def boundary_mask_of(self, ids):
        m = 0
        for e in ids:
            m |= 1 << self.bpos[e]
        return m

    def leaf_row(self, xmask):
        """(subset, rank, size, ExtendedType) of a leaf's subset, memoized."""
        if self._leaf_rows is None:
            self._leaf_rows = leaf_signatures(self.k, self.boundary)
        return self._leaf_rows[xmask]

    def fixpoints(self, fm1, fm2, xk):
        """Closure fixed point per parent-boundary subset, memoized."""
        key = (fm1, fm2, xk)
        hit = self._fix_memo.get(key)
        if hit is not None:
            return hit
        ctx = self.ctx
        nt1 = NodeType(self.child_boundaries[0], fm1)
        nt2 = NodeType(self.child_boundaries[1], fm2)
        out = tuple(
            ctx.fixpoint(nt1, nt2, int(ctx.parent.scatter[ymask]) | xk)
            for ymask in range(1 << len(self.boundary))
        )
        self._fix_memo[key] = out
        return out


class _Run:
    def __init__(self, tree, core, values):
        self.tree = tree
        self.core = core
        self.values = values
        self.info = {v: _NodeInfo(tree, v) for v in tree.postorder()}
        self.counts = {}
        self.labels = {}
        self.refs = {}
        self._label(core)
        self._memo = {}

    def _label(self, f):
        self.labels.setdefault(id(f), F.to_text(f))
        self.refs[id(f)] = tuple(sorted(F._all_names(f)))
        for child in _children(f):
            self._label(child)

    def _viewkey(self, f, views):
        return tuple(views[name] for name in self.refs[id(f)] if name in views)

    def _charge(self, f, state):
        size = _state_size(f, state)
        key = id(f)
        total = self.counts.get(key, 0) + size
        self.counts[key] = total
        if total > MSO_BUDGET:
            raise CompilationBudgetError(
                "compiled evaluator exceeded its state budget", self.labels[key]
            )

    # -- free-variable views ----------------------------------------------

    def _free_views(self, info):
        views = {}
        for name, value in self.values.items():
            if F.is_set_name(name):
                views[name] = frozenset(value & info.k.ground_set)
            else:
                vid = value if value in info.k.ground_set else None
                if info.node.is_leaf:
                    where = "here" if value in info.ground else "out"
                elif value in info.grounds[0]:
                    where = "c1"
                elif value in info.grounds[1]:
                    where = "c2"
                elif value in info.intro:
                    where = "here"
                else:
                    where = "out"
                views[name] = (vid, where)
        return views

    # -- evaluation -----------------------------------------------------------

    def result(self):
        state = self.reach(self.tree.root)
        return self._resolve(self.core, state)

    def reach(self, nid):
        info = self.info[nid]
        self._memo = {}
        if info.node.is_leaf:
            state = self._init(self.core, info, self._free_views(info))
        else:
            c1, c2 = info.node.children
            s1 = self.reach(c1)
            s2 = self.reach(c2)
            self._memo = {}
            state = self._combine(self.core, info, s1, s2, self._free_views(info))
        self._charge(self.core, state)
        return state

    # -- leaf initialization -----------------------------------------------------

    def _init(self, f, info, views):
        if isinstance(f, F.Member):
            return self._member_state("U", f, views)
        if isinstance(f, F.ElemEq):
            return self._elemeq_state("U", f, views)
        if isinstance(f, F.SetEq):
            return self._seteq_state("OK", f, info, views)
        if isinstance(f, F.InClosure):
            return self._closure_leaf(f, info, views)
        if isinstance(f, F.Indep):
            xmask = info.k.mask_of(self._term_view(f.term, views))
            _, rank, size, sig = info.leaf_row(xmask)
            return (sig, rank == size)
        if isinstance(f, F.Not):
            return self._init(f.inner, info, views)
        if isinstance(f, F.Or):
            return (
                self._init(f.left, info, views),
                self._init(f.right, info, views),
            )
        if isinstance(f, F.Exists):
            out = set()
            for comp, view in self._leaf_choices(f.var, info):
                out.add((comp, self._init(f.inner, info, {**views, f.var: view})))
            return frozenset(out)
        raise DomainError(f"not a core formula node: {f!r}")

    def _leaf_choices(self, var, info):
        if F.is_set_name(var):
            return [
                (("set", frozenset(s & info.bset)), frozenset(s))
                for s in info.intro_subsets
            ]
        choices = [(_OUT, (None, "out"))]
        for e in info.intro:
            comp = ("in", e) if e in info.bpos else _HID
            choices.append((comp, (e, "here")))
        return choices

    # -- combination at internal nodes ----------------------------------------------

    def _combine(self, f, info, s1, s2, views):
        key = (id(f), s1, s2, self._viewkey(f, views))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._combine_raw(f, info, s1, s2, views)
        self._memo[key] = out
        return out

    def _combine_raw(self, f, info, s1, s2, views):
        if isinstance(f, F.Member):
            return self._member_state(_merge3(s1, s2), f, views)
        if isinstance(f, F.ElemEq):
            return self._elemeq_state(_merge3(s1, s2), f, views)
        if isinstance(f, F.SetEq):
            prev = "F" if "F" in (s1, s2) else "OK"
            return self._seteq_state(prev, f, info, views)
        if isinstance(f, F.InClosure):
            return self._closure_combine(f, info, s1, s2, views)
        if isinstance(f, F.Indep):
            fresh = self._term_view(f.term, views).intersection(info.intro)
            sig, delta = info.ctx.extended_join(s1[0], s2[0], info.k.mask_of(fresh))
            return (sig, s1[1] and s2[1] and delta == len(fresh))
        if isinstance(f, F.Not):
            return self._combine(f.inner, info, s1, s2, views)
        if isinstance(f, F.Or):
            return (
                self._combine(f.left, info, s1[0], s2[0], views),
                self._combine(f.right, info, s1[1], s2[1], views),
            )
        if isinstance(f, F.Exists):
            out = set()
            for c1, a1 in s1:
                for c2, a2 in s2:
                    for comp, view in self._merge_choices(f.var, info, c1, c2):
                        out.add(
                            (
                                comp,
                                self._combine(
                                    f.inner, info, a1, a2, {**views, f.var: view}
                                ),
                            )
                        )
            return frozenset(out)
        raise DomainError(f"not a core formula node: {f!r}")

    def _merge_choices(self, var, info, c1, c2):
        """Consistent variable placements at this node, with local views."""
        deletions = info.node.D
        if F.is_set_name(var):
            t1, t2 = c1[1], c2[1]
            if (t1 | t2) & deletions:
                return []
            base = t1 | t2
            out = []
            for s in info.intro_subsets:
                view = frozenset(base | s)
                out.append((("set", view & info.bset), view))
            return out
        in1, in2 = c1 != _OUT, c2 != _OUT
        if in1 and in2:
            return []
        if in1 or in2:
            comp = c1 if in1 else c2
            side = "c1" if in1 else "c2"
            if comp == _HID:
                return [(_HID, (None, side))]
            j = comp[1]
            if j in deletions:
                return []
            new = ("in", j) if j in info.bpos else _HID
            return [(new, (j, side))]
        out = [(_OUT, (None, "out"))]
        for e in info.intro:
            comp = ("in", e) if e in info.bpos else _HID
            out.append((comp, (e, "here")))
        return out

    # -- atoms -----------------------------------------------------------------------

    def _term_view(self, term, views):
        if isinstance(term, F.Var):
            return views[term.name]
        if isinstance(term, F.Remove):
            base = self._term_view(term.term, views)
            vid, _ = views[term.elem]
            return base - {vid} if vid is not None else base
        if isinstance(term, F.Add):
            base = self._term_view(term.term, views)
            vid, _ = views[term.elem]
            return base | {vid} if vid is not None else base
        raise DomainError(f"not a set term: {term!r}")

    def _member_state(self, prev, f, views):
        if prev in ("T", "F"):
            return prev
        vid, _ = views[f.elem]
        if vid is None:
            return "U"
        return "T" if vid in self._term_view(f.term, views) else "F"

    def _elemeq_state(self, prev, f, views):
        if prev in ("T", "F"):
            return prev
        xv, xw = views[f.left]
        yv, yw = views[f.right]
        xin, yin = xw != "out", yw != "out"
        if not xin and not yin:
            return "U"
        if xin != yin:
            return "F"
        if xv is not None and yv is not None:
            return "T" if xv == yv else "F"
        return "F"  # at least one hidden below; nice trees keep them distinct

    def _seteq_state(self, prev, f, info, views):
        if prev == "F":
            return "F"
        va = self._term_view(f.left, views)
        vb = self._term_view(f.right, views)
        for e in info.intro:
            if (e in va) != (e in vb):
                return "F"
        return "OK"

    def _closure_leaf(self, f, info, views):
        k = info.k
        xk = k.mask_of(self._term_view(f.term, views))
        vid, where = views[f.elem]
        fmap = []
        g = [] if where != "out" else None
        for ymask in range(1 << len(info.boundary)):
            ym = k.mask_of(
                [e for i, e in enumerate(info.boundary) if ymask >> i & 1]
            )
            cl = k.closure_mask(xk | ym)
            fmap.append(
                info.boundary_mask_of(
                    e for e in info.boundary if cl >> k._index[e] & 1
                )
            )
            if g is not None:
                g.append(bool(cl >> k._index[vid] & 1))
        return (tuple(fmap), tuple(g) if g is not None else None)

    def _closure_combine(self, f, info, s1, s2, views):
        ctx = info.ctx
        xk = info.k.mask_of(self._term_view(f.term, views))
        vid, where = views[f.elem]
        zs = info.fixpoints(s1[0], s2[0], xk)
        fmap = tuple(
            int(ctx.parent.gather[z & ctx.parent.mask]) for z in zs
        )
        if where == "out":
            return (fmap, None)
        g = []
        for z in zs:
            if vid is not None:
                g.append(bool(z >> info.k._index[vid] & 1))
            elif where == "c1":
                g.append(s1[1][int(ctx.side1.gather[z & ctx.side1.mask])])
            elif where == "c2":
                g.append(s2[1][int(ctx.side2.gather[z & ctx.side2.mask])])
            else:
                raise DomainError("closure query on an unplaced element")
        return (fmap, tuple(g))

    # -- resolution at the root ---------------------------------------------------------

    def _resolve(self, f, state):
        if isinstance(f, (F.Member, F.ElemEq)):
            if state == "U":
                raise DomainError(f"unresolved atom {F.to_text(f)!r}")
            return state == "T"
        if isinstance(f, F.SetEq):
            return state == "OK"
        if isinstance(f, F.InClosure):
            if state[1] is None:
                raise DomainError(f"unresolved closure atom {F.to_text(f)!r}")
            return state[1][0]
        if isinstance(f, F.Indep):
            return state[1]
        if isinstance(f, F.Not):
            return not self._resolve(f.inner, state)
        if isinstance(f, F.Or):
            return self._resolve(f.left, state[0]) or self._resolve(
                f.right, state[1]
            )
        if isinstance(f, F.Exists):
            for comp, inner in state:
                if not F.is_set_name(f.var) and comp == _OUT:
                    continue
                if self._resolve(f.inner, inner):
                    return True
            return False
        raise DomainError(f"not a core formula node: {f!r}")


def _children(f):
    if isinstance(f, F.Not):
        return (f.inner,)
    if isinstance(f, F.Or):
        return (f.left, f.right)
    if isinstance(f, F.Exists):
        return (f.inner,)
    return ()


def _state_size(f, state):
    if isinstance(f, F.Not):
        return _state_size(f.inner, state)
    if isinstance(f, F.Or):
        return _state_size(f.left, state[0]) + _state_size(f.right, state[1])
    if isinstance(f, F.Exists):
        return sum(1 + _state_size(f.inner, s) for _, s in state)
    return 1


def _merge3(s1, s2):
    if s1 in ("T", "F"):
        return s1
    if s2 in ("T", "F"):
        return s2
    return "U"


def _prepare(tree, formula, assignment):
    tree = tree.prepared()
    F.check_kinds(formula)
    values = check_assignment(tree.ground(), formula, assignment)
    core = F.desugar(formula)
    return tree, core, values


def eval_decomposition(tree, formula, assignment=None):
    """Truth of ``formula`` on realize(tree) without realizing it."""
    tree, core, values = _prepare(tree, formula, assignment)
    return _Run(tree, core, values).result()


def compiled_state_counts(tree, formula, assignment=None):
    """Per-subformula accumulated state sizes, for the debug dump."""
    tree, core, values = _prepare(tree, formula, assignment)
    run = _Run(tree, core, values)
    run.result()
    return {run.labels[k]: v for k, v in run.counts.items()}


def msom(tree, formula, assignment=None):
    """The free-variable decision problem: ACCEPT or REJECT."""
    return "ACCEPT" if eval_decomposition(tree, formula, assignment) else "REJECT"
