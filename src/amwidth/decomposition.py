"""Amalgam decomposition trees: validation, realization, width, niceness.

A tree node carries its glue matroid K and the sets J1, J2, D of the
glueing step that produces M(v) from the children's matroids.  Rank-level
checks read the glue matroids themselves: once the glueing at a node is
defined, M(v) restricted to E(K(v)) - D(v) is K(v) with D(v) deleted,
since the generalized parallel connection changes no rank inside K.  So
M_i|J_i = K|J_i compares two glue tables whenever J_i lies inside the
child's K, and validation scales to trees whose realization would be far
beyond the brute-force caps.  ``realize`` is the capped oracle path;
validation glues a child only when J_i leaves the child's K.

Everything a tree knows about itself comes from one postorder walk
(``_walk``), run once per tree and kept.  Ground sets are derived there
only (``_grounds``), keeping no node's set: E(M(v)) = (E(M1) | E(M2) |
E(K)) - D, and ``with_boundaries`` reads the same sets for J_i = E(M_i) &
E(K).  At each node the walk maps sorted J1, sorted J2 and D to
positions in K, and, for each child, the same sorted J_i to positions in
the child's K: that is the child's parent boundary.  So each node's raw
shape, its K's ``Matroid.key`` followed by its ``Positions`` record, is
complete when its parent is reached.  The walk also keeps |E(M(v))| per
node, E(M(root)), the width, whether J1 and J2 are disjoint everywhere
(``is_nice``), whether every parent boundary lies in its node's K
(``is_anchored``) and whether some D meets E(M(root)), which is what
``prepared`` asks.  ``positions`` and ``shapes`` read the raw shapes;
``shapes`` makes each distinct one canonical once (``canonical_shape``),
and so rejects a tree with a parent boundary outside its node's K.

``validate`` is the same walk with its checks, reported in postorder.
The checks on ids and sizes (arity, leaf size and sets, J_i = E(M_i) &
E(K), E(M1) & E(M2) inside E(K), D inside E(K)) run at every node.  A rank-level verdict
depends on rank tables and positions in them, not on element ids, so
one ``validate`` call reaches each distinct verdict once, keyed by
``Matroid.key``: a rank-axiom check per K table, a semiflat check per
(K table, J positions), and the restriction check per raw node shape,
that is per (K table, J1 and J2 positions, each child's K table and
parent-boundary positions), except at a node that must glue a child
whose K misses J_i.  The restriction check compares restricted tables,
each built once per (table, positions).  The rank axioms come first:
an internal node whose K breaks them is reported as ``glue-broken``
alone, since the other rank-level checks would only read the broken
table.  So a J of at most one element needs no semiflat check: a point,
or the closure of the empty set, is a modular flat of a matroid that
adds only loops and parallel copies.  Nodes of one shape share all of
these, and a failing verdict is reported at every node it applies to.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .amalgam import GLUE_MESSAGES, glue, is_modular_semiflat
from .amalgam import glue_violations  # unused here: only benchmarks/tracing.py patches this name
from .config import REALIZE_CAP, table_cap
from .errors import DomainError, ResourceError, ValidationError
from .matroid import Matroid, positions_of, restricted_table
from .types_dp import canonical_shape

__all__ = [
    "DecompositionNode",
    "Positions",
    "AmalgamDecomposition",
    "ValidationReport",
    "Violation",
]


class DecompositionNode(NamedTuple):
    nid: str
    children: tuple
    K: Matroid
    J1: frozenset = frozenset()
    J2: frozenset = frozenset()
    D: frozenset = frozenset()

    @property
    def is_leaf(self):
        return not self.children


_NO_IDS = frozenset()


class Positions(NamedTuple):
    """Where a node's sets sit in its glue matroid K: the K-positions of
    sorted J1, sorted J2 and the sorted parent boundary, None for a set
    that leaves K, and the K-mask of D, None when D leaves K."""

    j1: tuple
    j2: tuple
    boundary: tuple
    dmask: int


class _Walk(NamedTuple):
    """What the one walk knows of a tree (see the module doc)."""

    raw: dict  # node id -> [K key, *Positions], its raw shape
    width: int
    nice: bool
    anchored: bool
    reuses: bool  # some node's D meets E(M(root))
    violations: list  # None for a walk without checks


@dataclass(frozen=True)
class Violation:
    node: str
    code: str
    message: str

    def __str__(self):
        return f"[{self.node}] {self.code}: {self.message}"


class ValidationReport:
    def __init__(self, violations, width):
        self.violations = list(violations)
        self.width = width

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return f"valid, width {self.width}"
        lines = [f"invalid, width {self.width}"]
        lines.extend(str(v) for v in self.violations)
        return "\n".join(lines)


class AmalgamDecomposition:
    """Rooted binary construction tree; immutable once built."""

    def __init__(self, nodes, root):
        self.nodes = {str(n.nid): n for n in nodes}
        self.root = str(root)
        if self.root not in self.nodes:
            raise DomainError(f"root node {root!r} is missing")
        self._cache = {}

    # -- structure ------------------------------------------------------

    def postorder(self):
        if "postorder" not in self._cache:
            order = []
            seen = set()
            stack = [(self.root, False)]
            while stack:
                nid, expanded = stack.pop()
                if nid not in self.nodes:
                    raise DomainError(f"child node {nid!r} is missing")
                if expanded:
                    order.append(nid)
                    continue
                if nid in seen:
                    if nid not in order:  # still open: it is its own descendant
                        raise DomainError("decomposition tree contains a cycle")
                    raise DomainError(f"node {nid!r} is reached twice from the root")
                seen.add(nid)
                stack.append((nid, True))
                for c in reversed(self.nodes[nid].children):
                    stack.append((c, False))
            self._cache["postorder"] = order
        return self._cache["postorder"]

    def _grounds(self):
        """Yield each node id, in postorder, with its node and its
        children's E(M(c)).

        Each child's set then passes to its parent, which extends the
        largest in place (small to large); a leaf's is a copy of E(K).  A
        finished pass keeps E(M(root)) and |E(M(v))| per node.
        """
        nodes = self.nodes
        sets, sizes = {}, {}
        for v in self.postorder():
            node = nodes[v]
            kids = list(map(sets.pop, node.children))
            yield v, node, kids
            if kids:  # any number of children: validate reports arity
                g = max(kids, key=len)
                for h in kids:
                    if h is not g:
                        g |= h
                g |= node.K.ground_set
                if node.D:
                    g -= node.D
            else:
                g = set(node.K.ground_set)
            sets[v] = g
            sizes[v] = len(g)
        self._cache.update(ground=frozenset(g), sizes=sizes)

    def _walked(self, check=False):
        """The one walk's result, with the checks' violations when
        ``check``; walked once per tree, again only to add the checks."""
        walk = self._cache.get("walk")
        if walk is None or check and walk.violations is None:
            walk = self._cache["walk"] = self._walk(check)
        return walk

    def _walk(self, check):
        """The walk itself (see the module doc); ``check`` adds the
        validation checks, reported in postorder."""
        nodes = self.nodes
        raw = {}  # node id -> its raw shape, as a list whose boundary the parent sets
        deleted = set()
        width, nice, anchored = 0, True, True
        violations = [] if check else None
        verdicts = _Verdicts()
        clean = {}
        for v, node, kids in self._grounds():
            _, children, k, j1, j2, d = node
            index = k._index
            s1 = s2 = p1 = p2 = ()
            if j1:
                s1 = sorted(j1)
                p1 = positions_of(index, s1)
            if j2:
                s2 = sorted(j2)
                p2 = positions_of(index, s2)
            dmask = 0
            if d:
                deleted |= d
                dpos = positions_of(index, d)
                if dpos is None:
                    dmask = None
                else:
                    for p in dpos:
                        dmask |= 1 << p
            raw[v] = [k.key, p1, p2, (), dmask]
            if len(index) > width:
                width = len(index)
            if children:
                nice = nice and not (j1 & j2)
                for c, s in zip(children, (s1, s2)):
                    if s:
                        b = raw[c][3] = positions_of(nodes[c].K._index, s)
                        anchored = anchored and b is not None
            if not check:
                continue
            before = len(violations)
            if len(children) not in (0, 2):
                violations.append(Violation(v, "arity", "nodes have zero or exactly two children"))
                clean[v] = False
                continue
            kids_clean = all(map(clean.get, children))
            if not children:
                if len(index) > 1:
                    violations.append(
                        Violation(v, "leaf-size", "leaf matroids have at most one element")
                    )
                if j1 or j2 or d:
                    violations.append(Violation(v, "leaf-sets", "leaves carry no J1/J2/D sets"))
                if len(violations) == before and not verdicts.is_matroid(k):
                    violations.append(Violation(v, "glue-broken", _GLUE_BROKEN))
            else:
                g1, g2 = kids
                kg = k.ground_set
                for i, j, g in ((1, j1, g1), (2, j2, g2)):
                    if j != g & kg:
                        message = f"J{i} is not E(M{i}) & E(K)"
                        violations.append(Violation(v, "boundary-mismatch", message))
                for code, bad in (
                    ("shared-not-in-glue", not g1 & g2 <= kg),
                    ("deletions-not-in-glue", dmask is None),
                ):
                    if bad:
                        violations.append(Violation(v, code, GLUE_MESSAGES[code]))
                if not verdicts.is_matroid(k):
                    # the rank-level checks would only read the broken table
                    violations.append(Violation(v, "glue-broken", _GLUE_BROKEN))
                    clean[v] = False
                    continue
                for i, j, pos in ((1, j1, p1), (2, j2, p2)):
                    ok, error = verdicts.semiflat(k, j, pos)
                    if not ok:
                        message = error or GLUE_MESSAGES["semiflat"].format(i)
                        violations.append(Violation(v, f"semiflat-j{i}", message))
                if len(violations) == before and kids_clean:
                    r1, r2 = raw[children[0]], raw[children[1]]
                    key = (k.key, p1, p2, r1[0], r1[3], r2[0], r2[3])
                    bad = verdicts.restrictions.get(key, _UNSEEN)
                    if bad is _UNSEEN:
                        sides = zip(children, (s1, s2), (p1, p2), kids)
                        bad = self._restriction_violation(k, sides, raw, verdicts)
                        if r1[3] is not None and r2[3] is not None:  # no child was glued
                            verdicts.restrictions[key] = bad
                    if bad is not None:
                        violations.append(Violation(v, *bad))
            clean[v] = len(violations) == before and kids_clean
        reuses = not deleted.isdisjoint(self._cache["ground"])
        return _Walk(raw, width, nice, anchored, reuses, violations)

    def _restriction_violation(self, k, sides, raw, verdicts):
        """(code, message) when M_i|J_i differs from K|J_i at a node with
        glue matroid k whose children are clean, else None.

        A clean child's matroid agrees with its own K outside its D, and
        J_i never meets that D, so the child's K supplies the ranks; only
        when J_i leaves it is the child glued, under the cap.  ``sides``
        gives, per child, its id, sorted J_i, J_i's K-positions and E(M_i).
        """
        tables = []
        for c, s, kpos, g in sides:
            m, pos = self.nodes[c].K, raw[c][3]
            if pos is None:
                m = None
                if len(g) <= min(REALIZE_CAP, table_cap()):
                    try:
                        m = self._glued(c)
                    except ResourceError:
                        pass
                if m is None:
                    return (
                        "unverifiable-restriction",
                        "boundary leaves the child's glue matroid and the "
                        "subtree is too large to realize",
                    )
                pos = positions_of(m._index, s)
            tables.append((verdicts.restricted(m, pos), kpos))
        for i, (table, kpos) in enumerate(tables, start=1):
            if table != verdicts.restricted(k, kpos):
                return f"restriction-j{i}", GLUE_MESSAGES["restriction"].format(i)
        return None

    def ground_sizes(self):
        """|E(M(v))| by node id, for every node the root reaches."""
        if "sizes" not in self._cache:
            self._walked()
        return self._cache["sizes"]

    def ground_size(self, nid):
        """|E(M(v))|; DomainError for a node the root does not reach."""
        sizes = self.ground_sizes()
        if str(nid) not in sizes:
            raise DomainError(f"node {nid!r} is not in the decomposition")
        return sizes[str(nid)]

    def ground(self):
        """E(M(root)), the one ground set a walk keeps."""
        self.ground_sizes()
        return self._cache["ground"]

    def with_boundaries(self):
        """This tree with J_i = E(M_i) & E(K) at each node of two children."""
        nodes = dict(self.nodes)
        for v, node, sets in self._grounds():
            if len(sets) == 2:
                kg = node.K.ground_set
                nodes[v] = node._replace(J1=kg & sets[0], J2=kg & sets[1])
        return AmalgamDecomposition(nodes.values(), self.root)

    def boundary(self, nid):
        """J(v): the J1 or J2 that v's parent lists for it; empty at the root.

        That is E(M(v)) & E(K(parent)) on a tree that passed ``validate``,
        as its ``boundary-mismatch`` check tests; only ``tutte
        --dump-types`` reads it, on ``prepared()`` trees.
        """
        if "boundaries" not in self._cache:
            self._cache["boundaries"] = {
                c: j
                for v in self.postorder()
                for node in (self.nodes[v],)
                for c, j in zip(node.children, (node.J1, node.J2))
            }
        return self._cache["boundaries"].get(str(nid), _NO_IDS)

    def positions(self):
        """Every node's ``Positions``, by node id, read off the walk once
        per tree."""
        if "positions" not in self._cache:
            raw = self._walked().raw
            self._cache["positions"] = {v: Positions(*shape[1:]) for v, shape in raw.items()}
        return self._cache["positions"]

    def shapes(self):
        """Every node's canonical shape and K order (``canonical_shape``
        of its raw shape), by node id; computed once per tree, and once
        per distinct raw shape in it.

        Raises DomainError when a parent boundary leaves a node's glue
        matroid: such a node has no shape.
        """
        if "shapes" not in self._cache:
            walk = self._walked()
            if not walk.anchored:
                raise DomainError(
                    "the dynamic programs need parent boundaries inside each "
                    "node's glue matroid"
                )
            canon = functools.cache(canonical_shape)
            self._cache["shapes"] = {v: canon(tuple(shape)) for v, shape in walk.raw.items()}
        return self._cache["shapes"]

    def width(self):
        """Maximum |E(K(v))| over the nodes."""
        return self._walked().width

    def is_anchored(self):
        """Whether every node's parent boundary sits inside its own K."""
        return self._walked().anchored

    def is_nice(self):
        """Whether J1 and J2 are disjoint at every node with children."""
        return self._walked().nice

    # -- validation -------------------------------------------------------

    def validate(self):
        if "report" not in self._cache:
            try:
                self.postorder()
            except DomainError as exc:
                report = ValidationReport([Violation(self.root, "structure", str(exc))], 0)
            else:
                walk = self._walked(check=True)
                report = ValidationReport(walk.violations, walk.width)
            self._cache["report"] = report
        return self._cache["report"]

    # -- realization -------------------------------------------------------

    def realize(self, nid=None):
        """M(v) via bottom-up glueing; the brute-force oracle path."""
        nid = str(nid) if nid is not None else self.root
        report = self.validate()
        if not report.ok:
            raise ValidationError(report)
        cap = min(REALIZE_CAP, table_cap())
        if ("realized", nid) not in self._cache and self.ground_size(nid) > cap:
            raise ResourceError(
                f"realized ground set of node {nid!r} exceeds the brute-force cap"
            )
        return self._glued(nid)

    def _glued(self, nid):
        """M(v) glued bottom-up from the realized nodes below, kept."""
        walk = [nid]  # top-down, stopping at realized nodes
        for w in walk:
            walk.extend(c for c in self.nodes[w].children if ("realized", c) not in self._cache)
        for w in reversed(walk):  # every node after its children
            if ("realized", w) in self._cache:
                continue
            node = self.nodes[w]
            if node.is_leaf:
                m = node.K
            else:
                m1, m2 = (self._cache[("realized", c)] for c in node.children)
                m = glue(m1, m2, node.K, node.D)
            self._cache[("realized", w)] = m
        return self._cache[("realized", nid)]

    # -- niceness ------------------------------------------------------------

    def to_nice(self):
        """Disjoint child boundaries via parallel duplicates, deleted in
        place, and one id per element.

        Whenever J1 and J2 share elements, the right subtree's copies are
        renamed to fresh ids, K gains parallel twins under the fresh ids,
        and the twins join D at the same node.  Width at most doubles.
        An id that a node deletes while the root's ground set holds it
        names two elements; the deleted one gets a fresh id at that node
        and in its subtree.  So no D holds an id of ``ground()``.  Each K
        keeps its description, and twins of one structure share one table.
        """
        report = self.validate()
        if not report.ok:
            raise ValidationError(report)
        # J1, J2 and D lie inside K on a valid tree
        used = [e for v in self.postorder() for e in self.nodes[v].K.elements]
        next_id = max(used, default=0) + 1
        ground = self.ground()
        out = {}
        twinned = {}  # K.with_twins memo, shared by the whole tree
        # preorder, left child first: fresh ids are numbered top-down and
        # left to right; rho maps ids an ancestor renamed
        stack = [(self.root, {})]
        while stack:
            v, rho = stack.pop()
            node = self.nodes[v]
            reused = sorted(e for e in node.D if e not in rho and e in ground)
            if reused:
                rho = {**rho, **{e: next_id + i for i, e in enumerate(reused)}}
                next_id += len(reused)
            k = node.K.renamed(rho)
            j1 = frozenset(rho.get(e, e) for e in node.J1)
            j2 = frozenset(rho.get(e, e) for e in node.J2)
            d = frozenset(rho.get(e, e) for e in node.D)
            if node.is_leaf:
                out[v] = DecompositionNode(v, (), k)
                continue
            shared = sorted(j1 & j2)
            rho2 = rho
            if shared:
                twins = {e: next_id + i for i, e in enumerate(shared)}
                next_id += len(shared)
                k = k.with_twins(twins, twinned)
                j2 = (j2 - set(shared)) | set(twins.values())
                d = d | set(twins.values())
                rho2 = {o: twins.get(cur, cur) for o, cur in rho.items()}
                for e in shared:
                    rho2.setdefault(e, twins[e])
            out[v] = DecompositionNode(v, node.children, k, j1, j2, d)
            stack.append((node.children[1], rho2))
            stack.append((node.children[0], rho))
        return AmalgamDecomposition(out.values(), self.root)

    def prepared(self):
        """The validated, nice, anchored tree the dynamic programs walk,
        with one id per element: no node's D holds an id of ``ground()``.
        Any other tree makes its ``to_nice`` form once.

        Raises ValidationError for an invalid tree and DomainError when a
        parent boundary leaves a node's glue matroid.
        """
        if "prepared" in self._cache:
            return self._cache["prepared"]
        report = self.validate()
        if not report.ok:
            raise ValidationError(report)
        walk = self._walked()
        tree = self.to_nice() if walk.reuses or not walk.nice else self
        tree.shapes()  # raises DomainError on an unanchored tree
        if tree is not self:  # caching self would make a reference cycle
            self._cache["prepared"] = tree
        return tree


_GLUE_BROKEN = "glue at this node is not a matroid"
_POINT = (True, None)  # the verdict on a J of at most one element
_UNSEEN = object()  # a restriction verdict not reached yet; None is "no violation"


class _Verdicts:
    """The rank-level verdicts of one walk, each computed once per key
    (see the module doc)."""

    def __init__(self):
        self.matroids = {}  # K key -> whether its table meets the rank axioms
        self.semiflats = {}  # (K key, J positions) -> ``_semiflat``'s pair
        self.tables = {}  # (table key, positions) -> restricted table
        # (K key, J1 and J2 positions, each child's K key and boundary
        # positions) -> ``_restriction_violation``'s result
        self.restrictions = {}

    def is_matroid(self, k):
        """Whether k's table satisfies the rank axioms; one built from
        columns or from a graph does by construction."""
        if k._desc is not None:  # linear or graphic
            return True
        ok = self.matroids.get(k.key)
        if ok is None:
            ok = self.matroids[k.key] = k.rank_axiom_violation() is None
        return ok

    def semiflat(self, k, j, pos):
        """(whether j, at positions ``pos`` of k, is a modular semiflat in
        k, DomainError text or None); k is a matroid."""
        if pos is None:  # the error names the stray id: not shared
            return _semiflat(k, j)
        if len(pos) <= 1:
            return _POINT
        key = (k.key, pos)
        hit = self.semiflats.get(key)
        if hit is None:
            hit = self.semiflats[key] = _semiflat(k, j)
        return hit

    def restricted(self, m, pos):
        """``restricted_table(m, pos)``, once per (table key, positions)."""
        key = (m.key, pos)
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = restricted_table(m, pos)
        return table


def _semiflat(k, j):
    try:
        return is_modular_semiflat(k, j), None
    except DomainError as exc:
        return False, str(exc)
