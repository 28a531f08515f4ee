import pathlib

import pytest

from amwidth import files, zoo
from amwidth.matroid import Matroid

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

REINTRODUCED_PLACEMENTS = [
    "sibling",
    "sibling-first",
    "above",
    "sibling-via-j1",
    "sibling-first-via-j1",
    "above-via-j1",
]


def reintroduced_id_tree(where):
    """A valid tree whose node N has a K with id 3 parallel to 1, deleted
    on the spot, and that holds a coloop with id 3 again: in the sibling
    subtree under a K without 3 (either child order), or fresh in the K
    right above N.  N's 3 is fresh in its K, or with ``-via-j1`` the
    element of a leaf below N that reaches N through J1."""
    tb = zoo.TreeBuilder()
    k = Matroid.from_graph({1: (0, 1), 3: (0, 1), 2: (1, 2)})
    if where.endswith("-via-j1"):
        where = where.removesuffix("-via-j1")
        n = tb.glue(tb.leaf(Matroid.single(3)), tb.leaf(Matroid.single(1)), k, {3})
    else:
        n = tb.glue(tb.leaf(Matroid.single(1)), tb.leaf(Matroid.single(2)), k, {3})
    if where == "sibling":
        top = tb.glue(n, tb.leaf(Matroid.single(3)), zoo.triangle(2, 4, 5))
    elif where == "sibling-first":
        top = tb.glue(tb.leaf(Matroid.single(3)), n, zoo.triangle(2, 4, 5))
    else:
        top = tb.glue(n, tb.leaf(Matroid.single(5)), zoo.triangle(2, 3, 4))
    return tb.done(top)


@pytest.fixture(scope="session")
def corpus_dir():
    assert CORPUS.is_dir(), "run scripts/build_corpus.py first"
    return CORPUS


@pytest.fixture(scope="session")
def corpus_decompositions(corpus_dir):
    out = {}
    for path in sorted((corpus_dir / "decompositions").glob("*.json")):
        out[path.stem] = files.load_decomposition(path)
    assert len(out) >= 15
    return out


@pytest.fixture(scope="session")
def corpus_formulas(corpus_dir):
    out = {}
    for path in sorted((corpus_dir / "formulas").glob("*.mso")):
        out[path.stem] = path.read_text().strip()
    assert len(out) >= 10
    return out


@pytest.fixture
def k3():
    return zoo.triangle(1, 2, 3)


@pytest.fixture
def k4():
    return zoo.k4_graphic()


@pytest.fixture
def u24():
    return Matroid.uniform(2, [1, 2, 3, 4])


@pytest.fixture
def fano():
    return zoo.fano()
