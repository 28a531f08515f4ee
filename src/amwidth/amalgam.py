"""Modular flats, proper amalgams, generalized parallel connection, glueing.

Two routes to the same matroid are kept deliberately distinct: the
production path builds a generalized parallel connection by one closed
closure/rank formula (``_connect``), while ``proper_amalgam`` realizes
the candidate rank function zeta by exhaustive superset minimization and
is used as the oracle.  Tests cross-check them subset-for-subset.

The formula is symmetric in the two matroids, so it gives the proper
amalgam when the common restriction is a modular semiflat in either of
them (Brylawski, Trans. AMS 203, 1975).  ``glue`` checks
``glue_violations``, against K, and connects K with M1 by ``_connect``,
J1 being a modular semiflat in K.  K's verdict on J2 does not carry
over to that P, whose closure of J2 may take up elements of M1: there
the formula can break the rank axioms.  So P is joined with M2 by
``_connect`` when J2 is a modular semiflat in M2 or else in P, and
otherwise by ``proper_amalgam``, the definition, within ``ZETA_CAP``.
"""

import numpy as np

from . import kernels
from .config import FLATS_CAP, ZETA_CAP, check_cap
from .errors import DomainError, GluePreconditionError, NoProperAmalgamError
from .matroid import Matroid, mask_of, positions_of, restricted_table, restrictions_equal, set_of

__all__ = [
    "is_modular_flat",
    "is_modular_semiflat",
    "eta",
    "zeta",
    "zeta_table",
    "proper_amalgam",
    "generalized_parallel_connection",
    "glue",
    "glue_violations",
]


def is_modular_flat(m, subset):
    """Whether the flat ``subset`` pairs modularly with every flat of ``m``."""
    check_cap(m.size, "flat enumeration", FLATS_CAP)
    x = m.mask_of(subset)
    flats = m.flat_masks()
    if x not in flats:
        raise DomainError("the given set is not a flat")
    tbl = np.asarray(m.table).astype(np.int16)
    lhs = tbl[x | flats] + tbl[x & flats]
    rhs = tbl[x] + tbl[flats]
    return bool(np.all(lhs == rhs))


def is_modular_semiflat(m, subset):
    """cl(subset) is a modular flat and adds only loops and parallel copies:
    always, with no flat read, for at most one element (the loops or a point)."""
    t = m.mask_of(subset)
    if t & (t - 1) == 0:
        return True
    # cl(T) = T + {x : r(T + x) = r(T)}, read without the closure table
    tbl = m.table
    cl = t | sum(1 << i for i in range(m.size) if tbl[t | 1 << i] == tbl[t])
    if not is_modular_flat(m, m.set_of(cl)):
        return False
    members = [e for e in subset]
    for x in m.set_of(cl & ~t):
        if m.rank([x]) == 0:
            continue
        if any(
            m.rank([e]) == 1 and m.rank([x, e]) == 1 for e in members
        ):
            continue
        return False
    return True


class _Union:
    """Index plumbing for a pair of matroids over the union of their grounds;
    ``tn``, the common restriction's table, is read from m1 and checked
    against m2's."""

    def __init__(self, m1, m2, cap=None):
        self.m1, self.m2 = m1, m2
        self.shared = [e for e in m1.elements if e in m2._index]
        self.elements = list(m1.elements) + [
            e for e in m2.elements if e not in m1._index
        ]
        self.n = len(self.elements)
        check_cap(self.n, "amalgam table", cap)
        self.pos = {e: i for i, e in enumerate(self.elements)}
        p1, p2, pt = (
            kernels.MaskMap(self.n, positions_of(self.pos, ids))
            for ids in (m1.elements, m2.elements, self.shared)
        )
        self.g1, self.g2, self.gt = p1.gather, p2.gather, pt.gather
        self.s1, self.s2 = p1.scatter, p2.scatter
        self.tn = restricted_table(m1, positions_of(m1._index, self.shared))
        if restricted_table(m2, positions_of(m2._index, self.shared)) != self.tn:
            raise DomainError(
                "the matroids disagree on the ranks of their common restriction"
            )

    def tables(self):
        """m1's, m2's and the common restriction's rank tables, as int64."""
        tn = np.frombuffer(self.tn, dtype=self.m1.table.dtype)
        return (np.asarray(t).astype(np.int64) for t in (self.m1.table, self.m2.table, tn))

    def eta_table(self):
        t1, t2, tn = self.tables()
        return t1[self.g1] + t2[self.g2] - tn[self.gt]


def eta(m1, m2, subset):
    """r1(X & E1) + r2(X & E2) - r(X & T) for X = subset."""
    u = _Union(m1, m2, cap=ZETA_CAP)
    return int(u.eta_table()[mask_of(u.pos, subset)])


def zeta_table(m1, m2):
    """(union elements, zeta over all subsets): min of eta over supersets."""
    u = _Union(m1, m2, cap=ZETA_CAP)
    zt = kernels.superset_min(u.eta_table())
    return u.elements, zt


def zeta(m1, m2, subset):
    elements, zt = zeta_table(m1, m2)
    return int(zt[mask_of({e: i for i, e in enumerate(elements)}, subset)])


def proper_amalgam(m1, m2):
    """The matroid with rank function zeta, if zeta is submodular.

    Raises NoProperAmalgamError carrying a violating subset pair otherwise.
    """
    elements, zt = zeta_table(m1, m2)
    code, a, b = kernels.check_rank_axioms(zt.astype(np.int8), len(elements))
    a, b = set_of(elements, a), set_of(elements, b)
    if code == 3:
        raise NoProperAmalgamError("no proper amalgam: zeta is not submodular", (a, b))
    if code == 2:
        # zeta jumped by >= 2 adding one element x to A; (A, {x}) then
        # violates submodularity since zeta({x}) <= 1 and zeta(empty) = 0.
        raise NoProperAmalgamError("no proper amalgam: zeta is not submodular", (a, b - a))
    if code != 0:
        raise DomainError("zeta is not a rank function (eta was malformed)")
    return Matroid(elements, zt.astype(np.int8))


def _connect(u):
    """The generalized parallel connection of the union's two matroids,
    unchecked, by the closed formula r(X) = r1(X2 & E1) + r2(X1 & E2) -
    r(T & (X1 | X2)) with Xi = cl_i(X & Ei) | X."""
    masks = np.arange(1 << u.n, dtype=np.int64)
    cl1 = np.asarray(u.m1.closure_table())[u.g1]
    cl2 = np.asarray(u.m2.closure_table())[u.g2]
    x1 = np.asarray(u.s1)[cl1] | masks
    x2 = np.asarray(u.s2)[cl2] | masks
    t1, t2, tn = u.tables()
    ranks = t1[u.g1[x2]] + t2[u.g2[x1]] - tn[u.gt[x1 | x2]]
    return Matroid(u.elements, ranks.astype(np.int8))


def generalized_parallel_connection(m1, m2):
    """Proper amalgam when the common restriction is a modular semiflat in
    m1, by ``_connect``; the zeta-based construction is the test oracle."""
    u = _Union(m1, m2)
    if not is_modular_semiflat(m1, u.shared):
        raise DomainError(
            "generalized parallel connection requires the common restriction "
            "to be a modular semiflat in the first matroid"
        )
    return _connect(u)


# each glue precondition code's message; "{0}" is the i of restriction-ji and semiflat-ji
GLUE_MESSAGES = {
    "shared-not-in-glue": "E(M1) & E(M2) is not inside E(K)",
    "deletions-not-in-glue": "D is not inside E(K)",
    "restriction": "M{0}|J{0} differs from K|J{0}",
    "semiflat": "J{0} is not a modular semiflat in K",
}


def glue_violations(m1, m2, k, deletions):
    """Named precondition failures of the glueing operation, empty if fine.

    The decomposition validator reports these codes per node, with the
    same ``GLUE_MESSAGES``.
    """
    out = []
    deletions = frozenset(deletions)
    if not m1.ground_set & m2.ground_set <= k.ground_set:
        out.append(("shared-not-in-glue", GLUE_MESSAGES["shared-not-in-glue"]))
    if not deletions <= k.ground_set:
        out.append(("deletions-not-in-glue", GLUE_MESSAGES["deletions-not-in-glue"]))
    for i, m in ((1, m1), (2, m2)):
        j = sorted(m.ground_set & k.ground_set)
        if not restrictions_equal(m, k, j):
            out.append((f"restriction-j{i}", GLUE_MESSAGES["restriction"].format(i)))
        elif not is_modular_semiflat(k, j):
            out.append((f"semiflat-j{i}", GLUE_MESSAGES["semiflat"].format(i)))
    return out


def glue(m1, m2, k, deletions=()):
    """((K + M1) + M2) minus D: ``glue_violations``, then two proper
    amalgams and deletion (see the module doc)."""
    violations = glue_violations(m1, m2, k, deletions)
    if violations:
        raise GluePreconditionError([f"{c}: {m}" for c, m in violations])
    p = _connect(_Union(k, m1))
    j2 = sorted(m2.ground_set & k.ground_set)
    if is_modular_semiflat(m2, j2) or is_modular_semiflat(p, j2):
        return _connect(_Union(p, m2)).delete(deletions)
    return proper_amalgam(p, m2).delete(deletions)
