"""Ground sets, rank oracles, and concrete matroid constructors.

Every matroid is materialized as a full rank table indexed by subset
bitmask over a fixed element order (the hot paths in the rest of the
package are table gathers).  Element ids are arbitrary ints, unique
within a ground set and stable under minors.  No operation changes a
matroid: all return new values, and matroids are safe to share across
threads.

A matroid holds its ids, its id -> position index, its names, its
ground set and its id-free description: the field and the reduced
columns, or the endpoints as given, in element order, from which
``linear`` and ``graph`` are read with its own ids; None for any other
matroid.  What the matroids of one structure share lives apart, in one
``_Structure``: the rank table, one ``bytes`` object (``Matroid.key``)
read through the read-only int8 view ``Matroid.table``, and its closure
table once asked for.

Every constructor from a description, and ``with_twins``, goes through
one memo step, ``_memo``, over a ``tables`` map from id-free keys to
structures: the reduced columns, the endpoint pattern (vertices numbered
by first appearance; the endpoints as given key it too), the table, the independent sets' masks, or a key
and twinned positions.  A key met before gives a matroid over its
structure, with no numpy call and no cap check; a new one builds its
table once, under the cap and, unless it is a matroid's by construction,
the axiom check.  ``renamed`` keeps the structure under other ids.
``Matroid(elements, table)`` shares a key's view given in and copies any
other table in once under the cap; so two tables are the same exactly
when their keys are equal, and no table is ever written.
"""

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import kernels
from .config import CIRCUITS_CAP, check_cap
from .errors import DomainError
from .linalg import check_field

__all__ = [
    "Matroid",
    "LinearRep",
    "GraphDescription",
    "restrictions_equal",
    "restricted_table",
]


@dataclass(frozen=True)
class LinearRep:
    """GF(p) representation: a residue vector per element."""

    field: int
    columns: dict  # id -> tuple of residues


@dataclass(frozen=True)
class GraphDescription:
    """Edge map of a graphic matroid; loops allowed."""

    vertices: tuple
    edges: dict = field(default_factory=dict)  # id -> (u, v)


_ENDPOINT_KINDS = frozenset((int, str))


class _Structure:
    """What the matroids of one structure share, ids aside: ``table`` and
    ``closure`` once computed."""

    __slots__ = ("table", "closure")

    def __init__(self, table):
        self.table = table
        self.closure = None


def _frozen(table):
    """A new rank table as a key's read-only view."""
    return np.frombuffer(np.asarray(table, dtype=np.int8).tobytes(), dtype=np.int8)


class Matroid:
    """A matroid backed by a dense rank table, never changed once built."""

    __slots__ = ("elements", "_index", "names", "_shared", "_ground", "_desc")

    def __init__(self, elements, table, names=None):
        elements = tuple(int(e) for e in elements)
        tbl = np.asarray(table, dtype=np.int8)
        if tbl.shape != (1 << len(elements),):
            raise DomainError("rank table size does not match the ground set")
        if type(tbl.base) is not bytes or len(tbl.base) != tbl.size:  # not a key's view
            check_cap(len(elements), "rank table")
            tbl = _frozen(tbl)
        self._fill(_Structure(tbl), elements, names, None)

    @classmethod
    def _of(cls, shared, ids, names, desc):
        """A matroid over ``shared`` with the given distinct ids and
        description."""
        m = object.__new__(cls)
        m._fill(shared, tuple(ids), names, desc)
        return m

    def _fill(self, shared, elements, names, desc):
        index = {e: i for i, e in enumerate(elements)}
        if len(index) != len(elements):
            raise DomainError("duplicate element ids in ground set")
        if names:
            names = dict(names)
            for e in names:
                if e not in index:
                    raise DomainError(f"names key {e} is not an element of the matroid")
        else:
            names = {}
        self.elements = elements
        self._index = index
        self.names = names
        self._shared = shared
        self._ground = frozenset(elements)
        self._desc = desc

    # -- construction -------------------------------------------------

    @classmethod
    def _memo(cls, tables, key, ids, names, desc, build, axioms=None):
        """The memo step (see the module doc): a matroid of ``ids`` over
        the structure ``tables`` holds under ``key``, or over a new one
        whose table ``build()`` makes under the cap.  With ``axioms``, what
        the table came from and its verb ("rank table breaks"), a new table
        meets the axiom check, whose error opens with it."""
        tables = {} if tables is None else tables
        shared = tables.get(key)
        if shared is not None and len(shared.table) == 1 << len(ids):
            return cls._of(shared, ids, names, desc)
        check_cap(len(ids), "rank table")
        m = cls(ids, build(), names)
        bad = axioms and m.rank_axiom_violation()
        if bad:
            kind, a, b = bad
            raise DomainError(f"{axioms} the {kind} axiom at subsets {sorted(a)} and {sorted(b)}")
        m._desc = desc
        tables[key] = m._shared
        return m

    @classmethod
    def from_linear(cls, columns, p, names=None, tables=None):
        """Vector matroid of the given columns over GF(p).

        ``tables`` maps structure keys to the structures of matroids built
        before; here the key is the field and the reduced columns in
        order, which are also the matroid's description.
        """
        check_field(p)
        vecs = tuple(tuple(int(x) % p for x in v) for v in columns.values())
        dims = {len(v) for v in vecs}
        if len(dims) > 1:
            raise DomainError("columns must share one dimension")
        d = dims.pop() if dims else 0
        desc = ("linear", p, vecs)
        return cls._memo(
            tables, desc, columns, names, desc,
            lambda: kernels.gf_rank_table(
                np.array(vecs, dtype=np.int64).T.reshape(d, len(vecs)), p
            ),
        )

    @classmethod
    def from_graph(cls, edges, names=None, tables=None):
        """Cycle matroid: rank of an edge set is |V touched| - #components.

        Endpoints are all ints or all strings.  ``tables`` is as for
        ``from_linear``, keyed by the endpoint pairs in element order
        with vertices numbered by first appearance; the description is
        the endpoints as given, and keys the same structure too, so
        endpoints met before skip the numbering.
        """
        ends = tuple(chain.from_iterable(edges.values()))
        kinds = set(map(type, ends))
        if len(kinds) > 1 or not kinds <= _ENDPOINT_KINDS:
            raise DomainError("graphic endpoints must be all integers or all strings")
        desc = ("graphic", ends)
        if tables:  # endpoints met before as given: their pattern is known
            shared = tables.get(desc)
            if shared is not None and len(shared.table) == 1 << len(edges):
                return cls._of(shared, edges, names, desc)
        number = {}
        pattern = tuple([number.setdefault(v, len(number)) for v in ends])
        m = cls._memo(
            tables, ("graphic", pattern), edges, names, desc,
            lambda: kernels.graphic_rank_table(pattern[0::2], pattern[1::2], max(len(number), 1)),
        )
        if tables is not None:
            tables[desc] = m._shared
        return m

    @classmethod
    def from_ranks(cls, elements, ranks, names=None, tables=None):
        """Matroid of the ranks, a list indexed by subset mask, each in
        0..127, keyed in ``tables`` (as for ``from_linear``) by the table
        itself."""
        key = bytes(ranks)
        build = lambda: np.frombuffer(key, dtype=np.int8)
        return cls._memo(tables, key, elements, names, None, build, "rank table breaks")

    @classmethod
    def from_independent_sets(cls, elements, independent, names=None, tables=None):
        """Matroid whose independent sets are the down-closure of
        ``independent``, keyed in ``tables`` (as for ``from_linear``) by
        the element count and the sets' masks."""
        elements = list(elements)
        index = {e: i for i, e in enumerate(elements)}
        masks = frozenset(mask_of(index, s, " in independent set") for s in independent) | {0}
        n = len(elements)

        def build():
            ind = np.zeros(1 << n, dtype=bool)
            ind[list(masks)] = True
            down = kernels.fold(ind, np.logical_or, supersets=True)  # down-close
            return kernels.rank_table_from_independence(down)

        key = ("independent", n, masks)
        return cls._memo(tables, key, elements, names, None, build, "independent sets break")

    # no CLI path calls this: benchmarks/tracing.py patches it (ROADMAP item 8)
    @classmethod
    def from_rank_function(cls, elements, fn, names=None):
        """Matroid whose rank of each subset of ``elements`` is ``fn`` of it."""
        elements = list(elements)
        build = lambda: [fn(set_of(elements, mask)) for mask in range(1 << len(elements))]
        return cls._memo(None, None, elements, names, None, build, "rank function breaks")

    def renamed(self, rho):
        """This matroid with each id e in ``rho`` renamed to ``rho[e]``:
        the same structure and description under the new ids."""
        if not any(e in rho for e in self.elements):
            return self
        names = {rho.get(e, e): n for e, n in self.names.items()}
        return Matroid._of(self._shared, [rho.get(e, e) for e in self.elements], names, self._desc)

    def with_twins(self, twins, tables):
        """This matroid with a parallel twin ``twins[e]`` of each id e in
        ``twins`` appended, in order; keyed in ``tables`` by this
        matroid's key and the twinned positions.  A linear or graphic
        description gains the twins' columns or endpoint pairs."""
        pos = positions_of(self._index, twins)
        desc = self._desc
        if desc is not None:  # a column, or two endpoints, per element
            *head, items = desc
            per = 2 if head[0] == "graphic" else 1
            desc = (*head, items + tuple(x for i in pos for x in items[per * i:per * i + per]))
        ids = [*self.elements, *twins.values()]
        build = lambda: self.table[kernels.MaskMap(self.size, [*range(self.size), *pos]).scatter]
        return Matroid._memo(tables, (self.key, pos), ids, self.names, desc, build)

    @classmethod
    def uniform(cls, r, ids):
        """U_{r,n}: every set of at most r elements is independent."""
        ids = list(ids)
        pops = kernels.popcounts(len(ids))
        return cls(ids, np.minimum(pops, r))

    @classmethod
    def single(cls, e, loop=False):
        return cls([e], np.array([0, 0 if loop else 1], dtype=np.int8))

    @classmethod
    def empty(cls):
        return cls([], np.zeros(1, dtype=np.int8))

    # -- mask plumbing -------------------------------------------------

    @property
    def size(self):
        return len(self.elements)

    @property
    def ground_set(self):
        return self._ground

    @property
    def full_mask(self):
        return (1 << len(self.elements)) - 1

    @property
    def table(self):
        return self._shared.table

    @property
    def key(self):
        return self._shared.table.base

    @property
    def linear(self):
        """The GF(p) representation over this matroid's ids, or None."""
        desc = self._desc
        if desc is None or desc[0] != "linear":
            return None
        return LinearRep(field=desc[1], columns=dict(zip(self.elements, desc[2])))

    @property
    def graph(self):
        """The edge map over this matroid's ids, or None."""
        desc = self._desc
        if desc is None or desc[0] != "graphic":
            return None
        ends = desc[1]
        edges = {e: (ends[2 * i], ends[2 * i + 1]) for i, e in enumerate(self.elements)}
        return GraphDescription(vertices=tuple(sorted(set(ends))), edges=edges)

    def mask_of(self, subset):
        return mask_of(self._index, subset)

    def set_of(self, mask):
        return set_of(self.elements, mask)

    def closure_table(self):
        shared = self._shared
        if shared.closure is None:
            shared.closure = kernels.closure_table(shared.table, len(self.elements))
        return shared.closure

    # -- rank primitives ----------------------------------------------

    def rank(self, subset=None):
        if subset is None:
            return int(self.table[self.full_mask])
        return int(self.table[self.mask_of(subset)])

    def rank_mask(self, mask):
        return int(self.table[mask])

    def closure(self, subset):
        return self.set_of(int(self.closure_table()[self.mask_of(subset)]))

    def closure_mask(self, mask):
        return int(self.closure_table()[mask])

    def flat_masks(self):
        return np.flatnonzero(kernels.flat_indicator(self.table, len(self.elements)))

    def loops(self):
        tbl = self.table
        return frozenset(e for i, e in enumerate(self.elements) if tbl[1 << i] == 0)

    def coloops(self):
        tbl, full = self.table, self.full_mask
        return frozenset(
            e for i, e in enumerate(self.elements) if tbl[full ^ 1 << i] < tbl[full]
        )

    def independent(self, subset):
        m = self.mask_of(subset)
        return int(self.table[m]) == bin(m).count("1")

    def circuits(self):
        """All inclusion-minimal dependent sets, each a list of its ids in
        increasing order, in increasing order of those lists."""
        n = len(self.elements)
        check_cap(n, "circuit enumeration", CIRCUITS_CAP)
        masks = np.flatnonzero(kernels.circuit_indicator(self.table, n))
        by_id = sorted(range(n), key=self.elements.__getitem__)
        # bits[c, j]: whether circuit c holds the j-th smallest id.  No
        # circuit holds another, so where two first differ, the one that
        # holds the id there is the smaller: the order is that of the
        # bits read as a number, with column 0 highest, decreasing
        bits = (masks[:, None] >> np.array(by_id, dtype=np.int64) & 1).astype(bool)
        weights = np.left_shift(1, np.arange(n - 1, -1, -1, dtype=np.int64))
        bits = bits[np.argsort(bits @ weights)[::-1]]
        # ids of any size, as Python ints
        ids = np.array([self.elements[i] for i in by_id], dtype=object)
        flat = ids[np.nonzero(bits)[1]].tolist()
        ends = np.cumsum(bits.sum(axis=1)).tolist()
        return [flat[a:b] for a, b in zip([0, *ends], ends)]

    # -- minors ---------------------------------------------------------

    def delete(self, subset):
        dropped = frozenset(subset)
        self.mask_of(dropped)  # validates ids
        keep = [e for e in self.elements if e not in dropped]
        tbl = self.table[kernels.MaskMap(self.size, positions_of(self._index, keep)).scatter]
        names = {e: n for e, n in self.names.items() if e in keep}
        return Matroid(keep, tbl, names=names)

    def restrict(self, subset):
        keep = frozenset(subset)
        self.mask_of(keep)
        return self.delete(self.ground_set - keep)

    def separation_width(self, side):
        """Least k for which (side, complement) is a k-separation."""
        a = self.mask_of(side)
        b = self.full_mask ^ a
        return int(self.table[a]) + int(self.table[b]) - int(self.table[self.full_mask]) + 1

    # -- axioms ----------------------------------------------------------

    def rank_axiom_violation(self):
        """None if the table is a matroid rank function, else (kind, A, B)."""
        code, a, b = kernels.check_rank_axioms(self.table, len(self.elements))
        if code == 0:
            return None
        kind = {1: "empty-rank", 2: "unit-increase", 3: "submodularity"}[int(code)]
        return kind, self.set_of(int(a)), self.set_of(int(b))

    def __repr__(self):
        return f"Matroid(n={len(self.elements)}, r={self.rank() if self.elements else 0})"


def restrictions_equal(m1, m2, shared):
    """Whether m1|shared = m2|shared, label-sensitively (ranks of all subsets)."""
    shared = list(shared)
    for e in shared:
        if e not in m1._index or e not in m2._index:
            raise DomainError(f"element {e!r} is not common to both matroids")
    t1 = restricted_table(m1, positions_of(m1._index, shared))
    return t1 == restricted_table(m2, positions_of(m2._index, shared))


def restricted_table(m, pos):
    """m's rank table restricted to the positions ``pos``, indexed by
    masks over them in the order given, as bytes: two restrictions agree
    position by position exactly when their tables are equal."""
    return m.table[kernels.MaskMap(m.size, pos).scatter].tobytes()


def mask_of(index, ids, where=""):
    """Mask of the ids in a ground set given as id -> position."""
    m = 0
    for e in ids:
        i = index.get(e)
        if i is None:
            raise DomainError(f"unknown element id {e!r}{where}")
        m |= 1 << i
    return m


def positions_of(index, ids):
    """The positions of the ids, in the order given, in a ground set given
    as id -> position; None when one of them is not in it."""
    if len(ids) == 1:  # most boundaries, and cheaper without ``map``
        (e,) = ids
        return (index[e],) if e in index else None
    try:
        return tuple(map(index.__getitem__, ids))
    except KeyError:
        return None


def set_of(elements, mask):
    """The ids of the mask's bits in a ground set given in position order."""
    return frozenset(elements[i] for i in range(len(elements)) if mask >> i & 1)

