"""Amalgam decomposition trees: validation, realization, width, niceness.

A tree node carries its glue matroid K and the sets J1, J2, D of the
glueing step that produces M(v) from the children's matroids.  Ground
sets and boundaries are derived here only, by one walk up from the
leaves (``_walk``) that keeps no node's set: E(M(v)) = (E(M1) | E(M2) |
E(K)) - D, and J_i = E(M_i) & E(K) (``with_boundaries``).  Rank-level
checks read the glue matroids themselves: once the glueing at a node is
defined, M(v) restricted to E(K(v)) - D(v) is K(v) with D(v) deleted,
since the generalized parallel connection changes no rank inside K.  So
M_i|J_i = K|J_i compares two glue tables whenever J_i lies inside the
child's K, and validation scales to trees whose realization would be far
beyond the brute-force caps.  ``realize`` is the capped oracle path;
validation calls it only when J_i leaves the child's K.

Each node's ids are mapped to positions in its K once per tree: its
``Positions`` record holds the K-positions of sorted J1, sorted J2 and
the sorted parent boundary, and the K-mask of D.  Validation reads it,
and ``shapes`` turns it, with K's table, into the node's canonical
shape and K order for the dynamic programs, once per tree; ``prepared``
builds the shapes, so it rejects a tree with a parent boundary outside
its node's K.  A rank-level verdict depends on rank tables
and positions in them, not on element ids, so one ``validate`` call
reaches each distinct verdict once, keyed by ``Matroid.key``: a
rank-axiom check per K table, a semiflat check per (K table, J
positions), and a restriction check per (child table, positions, K
table, positions).  Nodes of one shape share them, and a failing verdict
is reported at every node it applies to.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .amalgam import GLUE_MESSAGES, glue, is_modular_semiflat
from .amalgam import glue_violations  # unused here: only benchmarks/tracing.py patches this name
from .config import REALIZE_CAP, table_cap
from .errors import DomainError, ResourceError, ValidationError
from .matroid import Matroid, positions_of, restrictions_agree
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


def _positions_in(k, j1, j2, boundary, deletions):
    """The ``Positions`` of sets J1, J2, parent boundary and D in K; an
    empty set, as at every leaf, skips the lookup."""
    index = k._index
    dmask = 0
    if deletions:
        dpos = positions_of(index, deletions)
        dmask = None if dpos is None else sum(1 << p for p in dpos)
    return Positions(
        positions_of(index, sorted(j1)) if j1 else (),
        positions_of(index, sorted(j2)) if j2 else (),
        positions_of(index, sorted(boundary)) if boundary else (),
        dmask,
    )


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

    def _walk(self):
        """Yield each node, in postorder, with its children's E(M(c)).

        Each child's set then passes to its parent, which extends the
        largest in place (small to large); a leaf's is a copy of E(K).  A
        finished walk keeps E(M(root)) and |E(M(v))| per node.
        """
        sets, sizes = {}, {}
        for v in self.postorder():
            node = self.nodes[v]
            kids = [sets.pop(c) for c in node.children]
            yield v, kids
            if kids:  # any number of children: validate reports arity
                *small, g = sorted(kids, key=len)
                g.update(*small, node.K.ground_set)
                g -= node.D
            else:
                g = set(node.K.ground_set)
            sets[v], sizes[v] = g, len(g)
        self._cache.update(ground=frozenset(g), sizes=sizes)

    def ground_sizes(self):
        """|E(M(v))| by node id, for every node the root reaches."""
        if "sizes" not in self._cache:
            for _ in self._walk():
                pass
        return self._cache["sizes"]

    def ground_size(self, nid):
        """|E(M(v))|; DomainError for a node the root does not reach."""
        sizes = self.ground_sizes()
        if str(nid) not in sizes:
            raise DomainError(f"node {nid!r} is not in the decomposition")
        return sizes[str(nid)]

    def ground(self):
        """E(M(root)), the one ground set a walk keeps."""
        self.ground_size(self.root)
        return self._cache["ground"]

    def with_boundaries(self):
        """This tree with J_i = E(M_i) & E(K) at each node of two children."""
        nodes = dict(self.nodes)
        for v, sets in self._walk():
            if len(sets) == 2:
                kg = nodes[v].K.ground_set
                nodes[v] = nodes[v]._replace(J1=kg & sets[0], J2=kg & sets[1])
        return AmalgamDecomposition(nodes.values(), self.root)

    def boundary(self, nid):
        """J(v): the J1 or J2 that v's parent lists for it; empty at the root.

        That is E(M(v)) & E(K(parent)) on a tree that passed ``validate``,
        as its ``boundary-mismatch`` check tests, and every reader but the
        ``Positions`` records runs on one: ``tutte --dump-types`` on
        ``prepared()`` trees.
        """
        return self._boundaries().get(str(nid), _NO_IDS)

    def _boundaries(self):
        """J(v) by node id, for every node but the root."""
        if "boundaries" not in self._cache:
            self._cache["boundaries"] = {
                c: j
                for v in self.postorder()
                for c, j in zip(self.nodes[v].children, (self.nodes[v].J1, self.nodes[v].J2))
            }
        return self._cache["boundaries"]

    def positions(self):
        """Every node's ``Positions``, by node id, computed once per tree;
        validation, ``prepared`` and ``shapes`` read them."""
        if "positions" not in self._cache:
            bounds = self._boundaries()
            self._cache["positions"] = {
                v: _positions_in(node.K, node.J1, node.J2, bounds.get(v, _NO_IDS), node.D)
                for v in self.postorder()
                for node in (self.nodes[v],)
            }
        return self._cache["positions"]

    def shapes(self):
        """Every node's canonical shape and K order (``canonical_shape``
        of its ``Positions``), by node id; computed once per tree, and
        once per distinct raw shape in it.

        Raises DomainError when a parent boundary leaves a node's glue
        matroid: such a node has no shape.
        """
        if "shapes" not in self._cache:
            if not self.is_anchored():
                raise DomainError(
                    "the dynamic programs need parent boundaries inside each "
                    "node's glue matroid"
                )
            canon = functools.cache(canonical_shape)
            self._cache["shapes"] = {
                v: canon((self.nodes[v].K.key, *at)) for v, at in self.positions().items()
            }
        return self._cache["shapes"]

    def width(self):
        """Maximum |E(K(v))| over the nodes."""
        return max(len(self.nodes[v].K.ground_set) for v in self.postorder())

    def is_anchored(self):
        """Whether every node's parent boundary sits inside its own K."""
        return all(at.boundary is not None for at in self.positions().values())

    # -- validation -------------------------------------------------------

    def validate(self):
        if "report" in self._cache:
            return self._cache["report"]
        violations = []
        try:
            order = self.postorder()
        except DomainError as exc:
            report = ValidationReport(
                [Violation(self.root, "structure", str(exc))], 0
            )
            self._cache["report"] = report
            return report
        clean = {}
        checks = _ShapeChecks()
        positions = self.positions()
        for v, grounds in self._walk():
            node = self.nodes[v]
            before = len(violations)
            if len(node.children) not in (0, 2):
                violations.append(
                    Violation(v, "arity", "nodes have zero or exactly two children")
                )
                clean[v] = False
                continue
            kids_clean = all(map(clean.get, node.children))
            if node.is_leaf:
                if node.K.size > 1:
                    violations.append(
                        Violation(v, "leaf-size", "leaf matroids have at most one element")
                    )
                if node.J1 or node.J2 or node.D:
                    violations.append(
                        Violation(v, "leaf-sets", "leaves carry no J1/J2/D sets")
                    )
            else:
                g1, g2 = grounds
                kg = node.K.ground_set
                at = positions[v]
                for i, j, g in ((1, node.J1, g1), (2, node.J2, g2)):
                    if j != g & kg:
                        message = f"J{i} is not E(M{i}) & E(K)"
                        violations.append(Violation(v, "boundary-mismatch", message))
                for code, bad in (
                    ("shared-not-in-glue", not g1 & g2 <= kg),
                    ("deletions-not-in-glue", at.dmask is None),
                ):
                    if bad:
                        violations.append(Violation(v, code, GLUE_MESSAGES[code]))
                for i, j, pos in ((1, node.J1, at.j1), (2, node.J2, at.j2)):
                    ok, error = checks.semiflat(node.K, j, pos)
                    if not ok:
                        message = error or GLUE_MESSAGES["semiflat"].format(i)
                        violations.append(Violation(v, f"semiflat-j{i}", message))
                if len(violations) == before and kids_clean:
                    self._check_restrictions(v, positions, checks, violations)
            if len(violations) == before and kids_clean and not checks.is_matroid(node.K):
                violations.append(
                    Violation(v, "glue-broken", "glue at this node is not a matroid")
                )
            clean[v] = len(violations) == before and kids_clean
        width = max(len(self.nodes[v].K.ground_set) for v in order) if order else 0
        report = ValidationReport(violations, width)
        self._cache["report"] = report
        return report

    def _check_restrictions(self, v, positions, checks, violations):
        """Verify M_i|J_i = K|J_i at node v, whose children are clean.

        A clean child's matroid agrees with its own K outside its D, and
        J_i never meets that D, so the child's K supplies the ranks; only
        when J_i leaves it is the child realized, under the cap.
        """
        node = self.nodes[v]
        sides = []
        for c, j in zip(node.children, (node.J1, node.J2)):
            m, pos = self.nodes[c].K, positions[c].boundary
            if pos is None:
                try:
                    m = self.realize(c, _validated=False)
                except ResourceError:
                    violations.append(
                        Violation(
                            v,
                            "unverifiable-restriction",
                            "boundary leaves the child's glue matroid and the "
                            "subtree is too large to realize",
                        )
                    )
                    return
                pos = positions_of(m._index, sorted(j))
            sides.append((m, pos))
        at = positions[v]
        for i, ((m, pos), kpos) in enumerate(zip(sides, (at.j1, at.j2)), start=1):
            if not checks.restriction_agrees(m, pos, node.K, kpos):
                message = GLUE_MESSAGES["restriction"].format(i)
                violations.append(Violation(v, f"restriction-j{i}", message))
                return

    # -- realization -------------------------------------------------------

    def realize(self, nid=None, _validated=True):
        """M(v) via bottom-up glueing; the brute-force oracle path."""
        nid = str(nid) if nid is not None else self.root
        if _validated:
            report = self.validate()
            if not report.ok:
                raise ValidationError(report)
        key = ("realized", nid)
        if key in self._cache:
            return self._cache[key]
        if self.ground_size(nid) > min(REALIZE_CAP, table_cap()):
            raise ResourceError(
                f"realized ground set of node {nid!r} exceeds the brute-force cap"
            )
        walk = [nid]  # top-down, stopping at realized nodes
        for w in walk:
            walk.extend(c for c in self.nodes[w].children if ("realized", c) not in self._cache)
        for w in reversed(walk):  # every node after its children
            node = self.nodes[w]
            if node.is_leaf:
                m = node.K
            else:
                m1, m2 = (self._cache[("realized", c)] for c in node.children)
                m = glue(m1, m2, node.K, node.D)
            self._cache[("realized", w)] = m
        return self._cache[key]

    # -- niceness ------------------------------------------------------------

    def is_nice(self):
        return all(
            not (self.nodes[v].J1 & self.nodes[v].J2)
            for v in self.postorder()
            if not self.nodes[v].is_leaf
        )

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
        ground = self.ground()
        reuses = any(self.nodes[v].D & ground for v in self.postorder())
        tree = self.to_nice() if reuses or not self.is_nice() else self
        tree.shapes()  # raises DomainError on an unanchored tree
        if tree is not self:  # caching self would make a reference cycle
            self._cache["prepared"] = tree
        return tree


class _ShapeChecks:
    """The rank-level verdicts of one ``validate`` call, each computed once
    (see the module doc)."""

    def __init__(self):
        self.verdicts = {}  # keyed by a table's key, or a tuple holding keys

    def is_matroid(self, k):
        """Whether k's table satisfies the rank axioms; one built from
        columns or from a graph does by construction."""
        if k._desc is not None:  # linear or graphic
            return True
        if k.key not in self.verdicts:
            self.verdicts[k.key] = k.rank_axiom_violation() is None
        return self.verdicts[k.key]

    def semiflat(self, k, j, pos):
        """(whether j, at positions ``pos`` of k, is a modular semiflat in
        k, DomainError text or None)."""
        if pos is None:  # the error names the stray id: not shared
            return _semiflat(k, j)
        key = (k.key, pos)
        if key not in self.verdicts:
            self.verdicts[key] = _semiflat(k, j)
        return self.verdicts[key]

    def restriction_agrees(self, m, mpos, k, kpos):
        """``restrictions_agree(m, mpos, k, kpos)``, once per key."""
        key = (m.key, mpos, k.key, kpos)
        if key not in self.verdicts:
            self.verdicts[key] = restrictions_agree(m, mpos, k, kpos)
        return self.verdicts[key]


def _semiflat(k, j):
    try:
        return is_modular_semiflat(k, j), None
    except DomainError as exc:
        return False, str(exc)
