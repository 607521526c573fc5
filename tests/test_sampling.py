"""The samplers draw exactly the bits, and give exactly the values, of the
`randint` protocol their docstring states."""

import random
from fractions import Fraction

import pytest

from twograph import sampling
from twograph.algebra import Element, GenTerm, _accumulate
from twograph.scalar import ExactScalar
from twograph.semigroup import Word, enumerate_words, make_theta

SEEDS = range(50)
TABLES = [(1, 1), (1, 3), (2, 3), (3, 3)]
LEVELS = [(0, 0), (0, 2), (3, 0), (2, 2)]


def reference_degree(rng, level):
    return (rng.randint(0, level[0]), rng.randint(0, level[1]))


def reference_word(rng, theta, level):
    a, b = reference_degree(rng, level)
    return Word(tuple(rng.randint(1, theta.m) for _ in range(a)),
                tuple(rng.randint(1, theta.n) for _ in range(b)))


def reference_coeff(rng, rejected=None):
    while True:
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if re or im:
            return ExactScalar.gaussian(re, im)
        if rejected is not None:
            rejected.append((re, im))


def reference_element(rng, theta, level, terms):
    acc = {}
    for _ in range(terms):
        t = GenTerm(reference_word(rng, theta, level), reference_word(rng, theta, level))
        _accumulate(acc, t, reference_coeff(rng))
    return Element(theta, acc)


def reference_core_element(rng, theta, k, terms):
    words = enumerate_words(theta, (k, k))
    acc = {}
    for _ in range(terms):
        _accumulate(acc, GenTerm(rng.choice(words), rng.choice(words)), reference_coeff(rng))
    return Element(theta, acc)


@pytest.mark.parametrize("level", LEVELS, ids=str)
@pytest.mark.parametrize("m, n", TABLES)
def test_degrees_and_words_draw_what_randint_draws(m, n, level):
    theta = make_theta(m, n, "identity")
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert sampling.random_degree(rng, level) == reference_degree(ref, level)
            assert rng.getstate() == ref.getstate()
            w = sampling.random_word(rng, theta, level)
            assert type(w) is Word and w == reference_word(ref, theta, level)
            assert rng.getstate() == ref.getstate()


def test_coefficients_draw_what_randint_draws():
    rejected = []
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(20):
            c, want = sampling.random_coeff(rng), reference_coeff(ref, rejected)
            assert c == want and str(c) == str(want) and not c.is_zero
            assert rng.getstate() == ref.getstate()
    # a draw of 0 + 0i (1 in 49) is drawn again, on both sides
    assert rejected
    assert len(sampling._COEFFS) <= 7 * 3 * 7 * 3


@pytest.mark.parametrize("m, n", TABLES)
def test_elements_draw_what_randint_draws(m, n):
    theta = make_theta(m, n, "identity")
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        for level in LEVELS:
            got, want = sampling.random_element(rng, theta, level), reference_element(ref, theta, level, 3)
            assert list(got._terms.items()) == list(want._terms.items())
            got = sampling.random_core_element(rng, theta, 1, terms=3)
            want = reference_core_element(ref, theta, 1, 3)
            assert list(got._terms.items()) == list(want._terms.items())
            assert all(type(t) is GenTerm for t in got._terms)
            assert rng.getstate() == ref.getstate()
