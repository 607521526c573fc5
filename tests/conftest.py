import random

import pytest
from hypothesis import strategies as st

from twograph.semigroup import Permutation2D


@st.composite
def random_entries(draw, top=3):
    """(m, n, entries) of a random permutation table with m, n <= top: the
    entries map each index pair (i, j) to its image theta(i, j)."""
    m, n = draw(st.integers(1, top)), draw(st.integers(1, top))
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    return m, n, dict(zip(pairs, draw(st.permutations(pairs))))


@st.composite
def random_theta(draw, top=3):
    """A random permutation table with m, n <= top."""
    return Permutation2D(*draw(random_entries(top)))


@pytest.fixture(scope="session")
def flip22():
    return Permutation2D.flip(2, 2)


@pytest.fixture(scope="session")
def id23():
    return Permutation2D.identity(2, 3)


@pytest.fixture(scope="session")
def id22():
    return Permutation2D.identity(2, 2)


@pytest.fixture(scope="session")
def mixed23():
    """A 2x3 table whose pairs (e_i, f_j) have 2, 0, 1, 0, 2, 1 common
    extensions, so it mixes the counts that flip (0 or 2) and identity
    (always 1) keep apart. Same table as perfbench/tables/mixed23.txt."""
    return Permutation2D(2, 3, {
        (1, 1): (2, 3), (1, 2): (1, 1), (1, 3): (2, 1),
        (2, 1): (1, 3), (2, 2): (2, 2), (2, 3): (1, 2),
    })


@pytest.fixture(scope="session")
def identity33():
    return Permutation2D.identity(3, 3)


@pytest.fixture(scope="session")
def flip33():
    return Permutation2D.flip(3, 3)


@pytest.fixture(scope="session")
def mixed33():
    """A 3x3 table that neither fixes nor flips every pair. Same table as
    perfbench/tables/mixed33.txt."""
    return Permutation2D(3, 3, {
        (1, 1): (1, 1), (1, 2): (2, 1), (1, 3): (3, 1),
        (2, 1): (1, 2), (2, 2): (2, 2), (2, 3): (1, 3),
        (3, 1): (3, 2), (3, 2): (2, 3), (3, 3): (3, 3),
    })


@pytest.fixture(scope="session")
def shuffled10x3():
    """A 10x3 table: the index pairs in i-major order, mapped to the same
    pairs shuffled by `random.Random(1)`. Its level-2 strata hold 900 words,
    so a check that multiplies per word against a level-2 product stalls."""
    pairs = [(i, j) for i in range(1, 11) for j in range(1, 4)]
    images = list(pairs)
    random.Random(1).shuffle(images)
    return Permutation2D(10, 3, dict(zip(pairs, images)))


@pytest.fixture(params=["flip22", "id23"], scope="session")
def theta(request):
    """The two reference tables used throughout the acceptance criteria;
    a test that must also hold on `mixed23` names it in an indirect
    parametrization."""
    return request.getfixturevalue(request.param)
