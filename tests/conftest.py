import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ehrkit.corpus import standard_corpus  # noqa: E402
from ehrkit.decomposition import hstar_boundary, hstar_interior, hstar_polytope  # noqa: E402
from ehrkit.oracle import hstar_from_counts  # noqa: E402

CORPUS = standard_corpus()
CORPUS_IDS = [name for name, _ in CORPUS]
CORPUS_POLYTOPES = [P for _, P in CORPUS]


@pytest.fixture(params=CORPUS_POLYTOPES, ids=CORPUS_IDS)
def corpus_polytope(request):
    return request.param


class _Bundle:
    """Per-polytope pipeline and oracle results, computed once per session."""

    def __init__(self, P):
        self.polytope = P
        self.hstar = hstar_polytope(P)
        self.hstar_boundary = hstar_boundary(P)
        self.hstar_interior = hstar_interior(P)
        self.oracle_hstar = hstar_from_counts(P, "closed")
        self.oracle_boundary = hstar_from_counts(P, "boundary")
        self.oracle_interior = hstar_from_counts(P, "interior")


_CACHE = {}


def bundle_for(P):
    if P not in _CACHE:
        _CACHE[P] = _Bundle(P)
    return _CACHE[P]


@pytest.fixture
def corpus_bundle(corpus_polytope):
    return bundle_for(corpus_polytope)
