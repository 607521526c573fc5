"""Seeded random inputs for the verification suites.

One protocol, documented here once: degrees are drawn uniformly inside the
requested level box, letters uniformly per position, and coefficients are
Gaussian rationals with numerators in [-3, 3] and denominators in [1, 3]
(never both parts zero). Everything is driven by an explicit
`random.Random`, so a fixed seed reproduces a suite byte for byte.

The draw rule is CPython's `randint(a, b)` rule, taken straight from
`getrandbits` by `_below`: with n = b - a + 1 and k = n.bit_length(), draw k
bits and reject any r >= n. So `randint` and the samplers here consume the
same bits and give the same values. Each accepted (re numerator, re
denominator, im numerator, im denominator) draw of `random_coeff` maps to
one shared `ExactScalar`, built the first time it is drawn.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Element, GenTerm, _accumulate, _term, permutation_unitary
from .scalar import ExactScalar
from .semigroup import Degree, Permutation2D, Word, _word, enumerate_words


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed)


def _below(getrandbits, n: int) -> int:
    """A uniform int in [0, n), drawn as `randint(0, n - 1)` draws it: k =
    n.bit_length() bits at a time, rejecting r >= n (n = 1 still draws)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_degree(rng: random.Random, level: Degree) -> Degree:
    getrandbits = rng.getrandbits
    return (_below(getrandbits, level[0] + 1), _below(getrandbits, level[1] + 1))


def random_word(rng: random.Random, theta: Permutation2D, level: Degree) -> Word:
    a, b = random_degree(rng, level)
    getrandbits, m, n = rng.getrandbits, theta.m, theta.n
    return _word((
        tuple([1 + _below(getrandbits, m) for _ in range(a)]),
        tuple([1 + _below(getrandbits, n) for _ in range(b)]),
    ))


def random_letters(rng: random.Random, theta: Permutation2D, length: int) -> list[int]:
    """Unnormalized signed-letter sequence (for rewriting tests)."""
    out = []
    for _ in range(length):
        if rng.random() < 0.5:
            out.append(rng.randint(1, theta.m))
        else:
            out.append(-rng.randint(1, theta.n))
    return out


# (re numerator, re denominator, im numerator, im denominator) -> its scalar,
# filled as draws come: at most 7 * 3 * 7 * 3 entries, and scalars are
# immutable, so draws share them
_COEFFS: dict[tuple[int, int, int, int], ExactScalar] = {}


def random_coeff(rng: random.Random) -> ExactScalar:
    getrandbits = rng.getrandbits
    while True:
        draw = (_below(getrandbits, 7) - 3, _below(getrandbits, 3) + 1,
                _below(getrandbits, 7) - 3, _below(getrandbits, 3) + 1)
        coeff = _COEFFS.get(draw)
        if coeff is None:
            re_num, re_den, im_num, im_den = draw
            if not (re_num or im_num):
                continue
            coeff = _COEFFS[draw] = ExactScalar.gaussian(Fraction(re_num, re_den),
                                                         Fraction(im_num, im_den))
        return coeff


def random_element(
    rng: random.Random, theta: Permutation2D, level: Degree, terms: int = 3
) -> Element:
    acc: dict[GenTerm, ExactScalar] = {}
    for _ in range(terms):
        t = _term((random_word(rng, theta, level), random_word(rng, theta, level)))
        _accumulate(acc, t, random_coeff(rng))
    return Element._of(theta, acc)


def random_core_element(
    rng: random.Random, theta: Permutation2D, k: int, terms: int = 3
) -> Element:
    """Random element of the level-k core: terms with d(u) = d(v) = (k, k)."""
    words = enumerate_words(theta, (k, k))
    acc: dict[GenTerm, ExactScalar] = {}
    for _ in range(terms):
        t = _term((rng.choice(words), rng.choice(words)))
        _accumulate(acc, t, random_coeff(rng))
    return Element._of(theta, acc)


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
