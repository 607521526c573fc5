"""Exact scalars: Gaussian rationals times radical monomials.

Every coefficient produced by the state, the grading operators and the
modular machinery lives in the ring of finite sums

    sum over k of (a_k + b_k i) * prod over primes p of p^(r_{k,p})

with a_k, b_k rational and r_{k,p} rational. Each Gaussian coefficient
a_k + b_k i is stored as one int triple (re, im, den) with value
(re + im i)/den, den > 0 and gcd(re, im, den) == 1, so sums and products
run on ints with one gcd per result. Canonical form keeps each exponent's
fractional part in [0, 1) (an integer part k is folded into the
coefficient: p^k multiplies re and im for k > 0, p^-k multiplies den for
k < 0), stores bases prime-factorized, and merges equal monomials.
Zero-testing and equality are then structural: monomials with distinct
fractional exponent vectors over distinct primes are linearly independent
over the Gaussian rationals, so a scalar is zero iff it has no terms, and
two scalars are equal iff their term dicts are. That needs every triple
reduced: (1, 0, 1) and (2, 0, 2) are the same coefficient.

Prime-factorizing the bases matters: with base counts 4 and 2 the products
4^a * 2^b collide (4 * 2^-2 = 1) and only the factored form detects it.

The public surface speaks `Fraction`: `rational`, `gaussian`, `as_gaussian`
and `sorted_terms` take or give (re, im) pairs of Fractions. The operators
`+`, `-`, `*` and `==` take `ExactScalar`s only; a plain number enters
through `rational`, `gaussian` or `root` (or `Element.scaled`), so an int is
never equal to a scalar and equal scalars always hash equal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import FactoringTooCostly

Monomial = tuple[tuple[int, Fraction], ...]  # ((prime, fractional exponent), ...)
Coeff = tuple[int, int, int]  # (re, im, den): (re + im i)/den, den > 0, gcd(re, im, den) == 1
Gaussian = tuple[Fraction, Fraction]

_ZERO = Fraction(0)

# trial divisors stay below this bound: a cofactor left below its square
# (2^40) is prime, a larger one is refused. Dividing up to 2^20 takes about
# 0.2 s in CPython on a current x86 core, so a refusal stays well inside a
# second, and every base below 2^40 still factors fully.
FACTOR_BOUND = 1 << 20


def _factorize(k: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division below
    FACTOR_BOUND; FactoringTooCostly when a cofactor of at least FACTOR_BOUND^2
    has no prime factor below the bound."""
    if k < 1:
        raise ValueError(f"base must be a positive integer, got {k}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= k:
        if d == FACTOR_BOUND:
            raise FactoringTooCostly(f"radical base not factored: a cofactor of {k.bit_length()} "
                                     f"bits has no prime factor below {FACTOR_BOUND}")
        while k % d == 0:
            out[d] = out.get(d, 0) + 1
            k //= d
        d += 1
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


def _reduced(re: int, im: int, den: int) -> Coeff:
    """The triple divided by gcd(re, im, den); den stays positive."""
    g = math.gcd(re, im, den)
    if g == 1:
        return (re, im, den)
    return (re // g, im // g, den // g)


def _sum(x: Coeff, y: Coeff) -> Coeff:
    """x + y, not reduced."""
    a, b, d = x
    c, e, f = y
    if d == f:
        return (a + c, b + e, d)
    return (a * f + c * d, b * f + e * d, d * f)


def _rational(x) -> int | Fraction:
    """x itself when it carries a reduced numerator and denominator (an int
    or a Fraction), else Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _fractions(coeff: Coeff) -> Gaussian:
    re, im, den = coeff
    return Fraction(re, den), Fraction(im, den)


def _canon_terms(raw: Iterable[tuple[dict[int, Fraction], Coeff]]) -> dict[Monomial, Coeff]:
    """Fold integer exponent parts into coefficients, merge monomials and
    reduce each surviving coefficient once. The raw triples need not be
    reduced; a merge that cancels deletes the monomial, so the dict keeps
    the order in which monomials first survive (`to_complex` sums in it)."""
    acc: dict[Monomial, Coeff] = {}
    for exps, (re, im, den) in raw:
        if not (re or im):
            continue
        mono_items = []
        for p, r in sorted(exps.items()):
            whole = r.numerator // r.denominator  # floor
            if whole > 0:
                scale = p ** whole
                re, im = re * scale, im * scale
            elif whole < 0:
                den *= p ** -whole
            if r != whole:
                mono_items.append((p, r - whole if whole else r))
        mono = tuple(mono_items)
        prev = acc.get(mono)
        if prev is None:
            acc[mono] = (re, im, den)
            continue
        total = _sum(prev, (re, im, den))
        if total[0] or total[1]:
            acc[mono] = total
        else:
            del acc[mono]
    return {mono: _reduced(*coeff) for mono, coeff in acc.items()}


class ExactScalar:
    """Immutable element of the coefficient ring, always in canonical form."""

    __slots__ = ("_terms", "_complex")

    def __init__(self, terms: dict[Monomial, Coeff]):
        """`terms` must already be canonical; other input goes through
        `_from_raw`."""
        self._terms = terms
        self._complex = None

    # --- constructors -----------------------------------------------------
    # zero() and one() return interned instances so the arithmetic fast
    # paths can use identity checks.

    @classmethod
    def zero(cls) -> "ExactScalar":
        return _ZERO_SCALAR

    @classmethod
    def rational(cls, x) -> "ExactScalar":
        x = _rational(x)
        num, den = x.numerator, x.denominator
        if not num:
            return _ZERO_SCALAR
        if num == den:
            return _ONE_SCALAR
        return cls({(): (num, 0, den)})

    @classmethod
    def one(cls) -> "ExactScalar":
        return _ONE_SCALAR

    @classmethod
    def gaussian(cls, re, im) -> "ExactScalar":
        re, im = _rational(re), _rational(im)
        if not im:
            return cls.rational(re)
        # already reduced: a prime p of den = lcm(q_re, q_im) has its full
        # power in one of the two q, and that part's numerator and den // q
        # are both prime to p
        den = math.lcm(re.denominator, im.denominator)
        return cls({(): (re.numerator * (den // re.denominator),
                         im.numerator * (den // im.denominator), den)})

    @classmethod
    def imag_unit(cls) -> "ExactScalar":
        return cls.gaussian(0, 1)

    @classmethod
    def root(cls, base: int, exponent) -> "ExactScalar":
        """base^exponent for a positive integer base and rational exponent."""
        exponent = Fraction(exponent)
        exps = {p: a * exponent for p, a in _factorize(base).items()}
        return cls._from_raw([(exps, (1, 0, 1))])

    @classmethod
    def _from_raw(cls, raw) -> "ExactScalar":
        terms = _canon_terms(raw)
        if not terms:
            return _ZERO_SCALAR
        if terms == _ONE_TERMS:
            return _ONE_SCALAR
        return cls(terms)

    # --- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        return self._terms == _ONE_TERMS

    def __bool__(self) -> bool:
        return bool(self._terms)

    def as_gaussian(self) -> Gaussian | None:
        """The (re, im) pair when the scalar is a plain Gaussian rational."""
        if not self._terms:
            return (_ZERO, _ZERO)
        if len(self._terms) == 1 and () in self._terms:
            return _fractions(self._terms[()])
        return None

    def sorted_terms(self) -> list[tuple[Monomial, Gaussian]]:
        return [(mono, _fractions(coeff)) for mono, coeff in sorted(self._terms.items())]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # --- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for m, coeff in other._terms.items():
            prev = acc.get(m)
            if prev is None:
                acc[m] = coeff
                continue
            re, im, den = _sum(prev, coeff)
            if re or im:
                acc[m] = _reduced(re, im, den)
            else:
                del acc[m]
        return ExactScalar(acc)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar({m: (-re, -im, den) for m, (re, im, den) in self._terms.items()})

    def __sub__(self, other) -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        # kept only because perfbench/tracer.py wraps vars(ExactScalar)["__rsub__"];
        # ROADMAP item 6 deletes it with the tracer's entry
        return NotImplemented

    def __mul__(self, other) -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self is _ONE_SCALAR:
            return other
        if other is _ONE_SCALAR:
            return self
        if len(self._terms) == 1 and len(other._terms) == 1:
            x, y = self._terms.get(()), other._terms.get(())
            if x is not None and y is not None:
                # Gaussian x Gaussian: no exponent to fold, and a product
                # of nonzero Gaussian rationals is nonzero
                a, b, d = x
                c, e, f = y
                coeff = _reduced(a * c - b * e, a * e + b * c, d * f)
                if coeff == _ONE_COEFF:
                    return _ONE_SCALAR
                return ExactScalar({(): coeff})
        if not self._terms or not other._terms:
            return _ZERO_SCALAR
        raw = []
        for m1, (a, b, d) in self._terms.items():
            d1 = dict(m1)
            for m2, (c, e, f) in other._terms.items():
                exps = dict(d1)
                for p, r in m2:
                    exps[p] = exps[p] + r if p in exps else r
                raw.append((exps, (a * c - b * e, a * e + b * c, d * f)))
        return ExactScalar._from_raw(raw)

    def conjugate(self) -> "ExactScalar":
        """Complex conjugation; monomials are positive reals, so they are fixed."""
        for _, im, _ in self._terms.values():
            if im:
                return ExactScalar(
                    {m: (re, -im, den) for m, (re, im, den) in self._terms.items()}
                )
        return self

    def inverse(self) -> "ExactScalar":
        """Multiplicative inverse; defined for single-term scalars only.

        den / (re + im i) = den (re - im i) / (re^2 + im^2)."""
        if len(self._terms) != 1:
            raise ZeroDivisionError("can only invert single-term scalars")
        ((mono, (re, im, den)),) = self._terms.items()
        exps = {p: -r for p, r in mono}
        return ExactScalar._from_raw([(exps, (re * den, -im * den, re * re + im * im))])

    def __pow__(self, k: int) -> "ExactScalar":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = ExactScalar.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # --- numeric view ---------------------------------------------------------

    def to_complex(self) -> complex:
        """Double-precision value; error is a few ulp per term (each term is a
        product of one float pow per prime and one complex multiply).

        Each part is converted once as re / den, which int true division
        rounds correctly (the double `float(Fraction(re, den))` gives), and
        the result is cached on the scalar, so a repeat call costs one
        attribute read."""
        if self._complex is None:
            total = 0j
            for mono, (re, im, den) in self._terms.items():
                val = complex(re / den, im / den)
                for p, r in mono:
                    val *= math.pow(p, float(r))
                total += val
            self._complex = total
        return self._complex

    # --- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self._terms.items()):
            parts.append(_term_str(mono, coeff))
        out = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self) -> str:
        return f"ExactScalar({self})"


_ONE_COEFF: Coeff = (1, 0, 1)
_ONE_TERMS: dict[Monomial, Coeff] = {(): _ONE_COEFF}
_ZERO_SCALAR = ExactScalar({})
_ONE_SCALAR = ExactScalar(dict(_ONE_TERMS))


def _term_str(mono: Monomial, coeff: Coeff) -> str:
    re, im = _fractions(coeff)
    if im == 0:
        g = str(re)
    elif re == 0:
        g = f"{im}i"
    else:
        sign = "+" if im > 0 else "-"
        g = f"({re}{sign}{abs(im)}i)"
    factors = [f"{p}^({r})" for p, r in mono]
    if not factors:
        return g
    if g == "1":
        return "*".join(factors)
    if g == "-1":
        return "-" + "*".join(factors)
    return g + "*" + "*".join(factors)


def power_of_base(theta, delta, z) -> ExactScalar:
    """m^(z*delta_1) * n^(z*delta_2) in canonical form.

    `theta` only contributes the generator counts (m, n); delta is an integer
    pair, z a rational. Shared prime factors of m and n combine correctly
    because bases are stored factorized. Memoized in an LRU cache bounded at
    4096 entries on the int key (m, n, delta_1, delta_2, num, den), where
    num/den is z in lowest terms, read straight off an int or a Fraction (any
    other z goes through Fraction(z) first): the results are immutable, and
    the same few hundred keys recur across the suites.
    """
    z = _rational(z)
    return _power_of_base(theta.m, theta.n, delta[0], delta[1], z.numerator, z.denominator)


@lru_cache(maxsize=4096)
def _power_of_base(m: int, n: int, d1: int, d2: int, num: int, den: int) -> ExactScalar:
    z = Fraction(num, den)
    return ExactScalar.root(m, z * d1) * ExactScalar.root(n, z * d2)
