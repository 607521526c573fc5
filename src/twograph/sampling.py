"""Seeded random inputs for the verification suites.

One protocol, documented here once: degrees are drawn uniformly inside the
requested level box, letters uniformly per position, and coefficients are
Gaussian rationals with numerators in [-3, 3] and denominators in [1, 3]
(never both parts zero). Everything is driven by an explicit
`random.Random`, so a fixed seed reproduces a suite byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Element, GenTerm, _accumulate, permutation_unitary
from .scalar import ExactScalar
from .semigroup import Degree, Permutation2D, Word, enumerate_words


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed)


def random_degree(rng: random.Random, level: Degree) -> Degree:
    return (rng.randint(0, level[0]), rng.randint(0, level[1]))


def random_word(rng: random.Random, theta: Permutation2D, level: Degree) -> Word:
    a, b = random_degree(rng, level)
    return Word(
        tuple(rng.randint(1, theta.m) for _ in range(a)),
        tuple(rng.randint(1, theta.n) for _ in range(b)),
    )


def random_letters(rng: random.Random, theta: Permutation2D, length: int) -> list[int]:
    """Unnormalized signed-letter sequence (for rewriting tests)."""
    out = []
    for _ in range(length):
        if rng.random() < 0.5:
            out.append(rng.randint(1, theta.m))
        else:
            out.append(-rng.randint(1, theta.n))
    return out


def random_coeff(rng: random.Random) -> ExactScalar:
    while True:
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if re or im:
            return ExactScalar.gaussian(re, im)


def random_element(
    rng: random.Random, theta: Permutation2D, level: Degree, terms: int = 3
) -> Element:
    acc: dict[GenTerm, ExactScalar] = {}
    for _ in range(terms):
        t = GenTerm(random_word(rng, theta, level), random_word(rng, theta, level))
        _accumulate(acc, t, random_coeff(rng))
    return Element(theta, acc)


def random_core_element(
    rng: random.Random, theta: Permutation2D, k: int, terms: int = 3
) -> Element:
    """Random element of the level-k core: terms with d(u) = d(v) = (k, k)."""
    words = enumerate_words(theta, (k, k))
    acc: dict[GenTerm, ExactScalar] = {}
    for _ in range(terms):
        t = GenTerm(rng.choice(words), rng.choice(words))
        _accumulate(acc, t, random_coeff(rng))
    return Element(theta, acc)


# the fourth roots of unity: torus points and phases that stay Gaussian rational
FOURTH_ROOTS = [ExactScalar.gaussian(re, im) for re, im in ((1, 0), (-1, 0), (0, 1), (0, -1))]


def random_unitary(rng: random.Random, theta: Permutation2D) -> Element:
    """Random permutation unitary with fourth-root phases at a random degree <= (1, 1)."""
    degree = random_degree(rng, (1, 1))
    size = len(enumerate_words(theta, degree))
    perm = list(range(size))
    rng.shuffle(perm)
    phases = [rng.choice(FOURTH_ROOTS) for _ in range(size)]
    return permutation_unitary(theta, degree, perm, phases)


def random_independent_basis(
    rng: random.Random, theta: Permutation2D, size: int, level: Degree
) -> list[Element]:
    """Exactly linearly independent random elements of mixed degrees.

    Starts from distinct generators sharing, per degree difference, one
    v-degree (such families are independent), then applies a random
    unitriangular transform, which preserves independence exactly.
    """
    pool: list[GenTerm] = []
    seen_levels: dict[Degree, Degree] = {}
    attempts = 0
    while len(pool) < size and attempts < 50 * size:
        attempts += 1
        u = random_word(rng, theta, level)
        v = random_word(rng, theta, level)
        t = GenTerm(u, v)
        fixed = seen_levels.setdefault(t.degree, t.v.degree)
        if t.v.degree == fixed and t not in pool:
            pool.append(t)
    basis = []
    for idx, t in enumerate(pool):
        vec = Element.gen(theta, t.u, t.v)
        for prev in basis[:idx]:
            if rng.random() < 0.5:
                vec = vec + prev.scaled(random_coeff(rng))
        basis.append(vec)
    return basis
