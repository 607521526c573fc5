"""Exact scalar ring: canonical form, arithmetic laws, numeric view."""

import math
import struct
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from twograph import scalar
from twograph.algebra import Element
from twograph.errors import FactoringTooCostly
from twograph.scalar import ExactScalar, power_of_base
from twograph.semigroup import Permutation2D


half = Fraction(1, 2)


def test_radical_law():
    r2 = ExactScalar.root(2, half)
    assert r2 * r2 == ExactScalar.rational(2)


def test_integer_part_folds():
    assert str(ExactScalar.root(2, Fraction(3, 2))) == "2*2^(1/2)"
    assert ExactScalar.root(2, Fraction(-1, 2)) * ExactScalar.rational(2) == ExactScalar.root(2, half)


def test_gaussian_arithmetic():
    assert ExactScalar.gaussian(1, 1) * ExactScalar.gaussian(1, -1) == ExactScalar.rational(2)
    i = ExactScalar.imag_unit()
    assert i * i == ExactScalar.rational(-1)


def test_zero_test_soundness():
    r2 = ExactScalar.root(2, half)
    combo = r2 + ExactScalar.root(2, Fraction(3, 2)) - ExactScalar.rational(3) * r2
    assert combo.is_zero


def test_shared_prime_bases_interact():
    id42 = Permutation2D.identity(4, 2)
    assert power_of_base(id42, (1, -2), 1) == ExactScalar.one()


def test_power_of_base_values(id23):
    assert power_of_base(id23, (1, -1), 1) == ExactScalar.rational(Fraction(2, 3))
    assert power_of_base(id23, (0, 0), 7) == ExactScalar.one()


def test_power_of_base_additive_in_z(id23):
    a = power_of_base(id23, (1, -1), half)
    b = power_of_base(id23, (1, -1), Fraction(1, 3))
    assert a * b == power_of_base(id23, (1, -1), Fraction(5, 6))


def test_power_of_base_is_memoized_on_the_counts(id23, mixed23, id22):
    # keyed by (m, n, delta, z): another table with the same counts and an
    # int z equal to the Fraction hit the same entry
    first = power_of_base(id23, (2, -1), Fraction(1))
    assert first == ExactScalar.rational(Fraction(4, 3))
    assert power_of_base(mixed23, [2, -1], 1) is first
    assert power_of_base(id22, (2, -1), 1) == ExactScalar.rational(2)
    assert scalar._power_of_base.cache_info().maxsize is not None


@pytest.mark.parametrize("z", [0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), "1/2", "-2/3",
                               "3", 0.5, -0.25])
@pytest.mark.parametrize("delta", [(0, 0), (1, 0), (-2, 1), (3, -3)])
def test_power_of_base_equals_the_product_of_roots(id23, mixed33, delta, z):
    # an int or Fraction exponent is read as it stands, any other goes
    # through Fraction(z); every form lands on the same value
    for theta in (id23, mixed33, Permutation2D.identity(4, 6)):
        zf = Fraction(z)
        want = (ExactScalar.root(theta.m, zf * delta[0])
                * ExactScalar.root(theta.n, zf * delta[1]))
        got = power_of_base(theta, delta, z)
        assert got == want
        assert list(got._terms.items()) == list(want._terms.items())
        assert power_of_base(theta, delta, zf) is got


def test_fold_inserts_merges_and_cancels_monomials():
    # products fold 2^(1/2) * 2^(1/2) into 2 and merge or cancel the cross terms
    r2 = ExactScalar.root(2, half)
    one = ExactScalar.one()
    assert (r2 + one) * (r2 - one) == one
    assert (r2 + one) * (r2 + one) == ExactScalar.rational(3) + ExactScalar.rational(2) * r2
    assert str(ExactScalar.root(6, Fraction(5, 2))) == "36*2^(1/2)*3^(1/2)"


def test_to_complex():
    assert abs(ExactScalar.root(2, half).to_complex() - math.sqrt(2)) < 1e-14
    assert abs(ExactScalar.rational(Fraction(1, 6)).to_complex() - 1 / 6) < 1e-16
    assert ExactScalar.zero().to_complex() == 0j


def test_inverse_and_negative_powers():
    i = ExactScalar.imag_unit()
    assert i ** -1 == -i
    x = ExactScalar.gaussian(Fraction(3, 5), Fraction(4, 5))
    assert x * x.inverse() == ExactScalar.one()
    with pytest.raises(ZeroDivisionError):
        (ExactScalar.one() + ExactScalar.root(2, half)).inverse()


def test_conjugate_properties():
    x = ExactScalar.gaussian(1, 2) * ExactScalar.root(3, half)
    assert x.conjugate().conjugate() == x
    y = ExactScalar.gaussian(2, -1)
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    real = ExactScalar.rational(Fraction(5, 3)) * ExactScalar.root(2, half)
    assert real.conjugate() == real


small_fracs = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(0, 3))
    out = ExactScalar.zero()
    for _ in range(n_terms):
        coeff = ExactScalar.gaussian(draw(small_fracs), draw(small_fracs))
        base = draw(st.sampled_from([2, 3, 5, 6]))
        exponent = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        out = out + coeff * ExactScalar.root(base, exponent)
    return out


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + ExactScalar.zero() == a
    assert a * ExactScalar.one() == a
    assert (a - a).is_zero


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_float_view_is_additive(a):
    z = a.to_complex()
    w = (a + a).to_complex()
    assert abs(w - 2 * z) <= 1e-9 * max(1.0, abs(z))


def _old_to_complex(x):
    """The double as computed before the cache: each rational part through
    float(Fraction), combined as complex(re) + complex(im) * 1j, summed in
    the order of the term dict."""
    parts = dict(x.sorted_terms())
    total = 0j
    for mono in x._terms:
        re, im = parts[mono]
        val = complex(re) + complex(im) * 1j
        for p, r in mono:
            val *= math.pow(p, float(r))
        total += val
    return total


def _bits(z):
    """The two doubles of z, bit for bit (so 0.0 and -0.0 differ)."""
    return struct.pack("<dd", z.real, z.imag)


gaussians = st.builds(ExactScalar.gaussian, st.fractions(), st.fractions())


@settings(max_examples=200, deadline=None)
@given(st.one_of(scalars(), gaussians))
def test_to_complex_is_the_old_formula_bit_for_bit(a):
    expected = _bits(_old_to_complex(a))
    first = a.to_complex()
    assert _bits(first) == expected
    assert a.to_complex() is first
    assert _bits(ExactScalar(dict(a._terms)).to_complex()) == expected


def test_to_complex_keeps_the_sign_of_zero_parts():
    for x in (ExactScalar.gaussian(0, -1), ExactScalar.gaussian(-3, 0),
              ExactScalar.gaussian(0, -1) * ExactScalar.root(2, half),
              ExactScalar.gaussian(-1, -1) * ExactScalar.root(6, Fraction(-1, 3))):
        assert _bits(x.to_complex()) == _bits(_old_to_complex(x))


def test_printing_is_sorted_and_stable():
    x = ExactScalar.root(3, half) + ExactScalar.root(2, half) + ExactScalar.rational(1)
    assert str(x) == "1 + 2^(1/2) + 3^(1/2)"
    assert str(-ExactScalar.rational(half)) == "-1/2"
    assert str(ExactScalar.gaussian(0, Fraction(-1, 2))) == "-1/2i"
    assert str(ExactScalar.zero()) == "0"


def test_operators_take_exact_operands_only(flip22):
    """A plain number is never equal to a scalar, so equal things hash equal;
    arithmetic with one is refused, and `Element.scaled` is the way to scale."""
    assert ExactScalar.rational(2) != 2
    assert hash(ExactScalar.rational(2)) == hash(ExactScalar.gaussian(2, 0))
    one, unit = ExactScalar.one(), Element.unit(flip22)
    for op in (lambda: one + 1, lambda: 1 + one, lambda: 1 - one, lambda: 2 * one,
               lambda: unit * 2, lambda: 2 * unit):
        with pytest.raises(TypeError):
            op()
    assert unit.scaled(2) == unit + unit


# --- a reference model: {monomial: (re, im)} with Fraction parts -------------
# Independent of the int triples: each coefficient is a pair of Fractions, and
# integer exponent parts fold in as Fraction powers of the prime.

FACTORS = {1: {}, 2: {2: 1}, 3: {3: 1}, 6: {2: 1, 3: 1}, 12: {2: 2, 3: 1}}


def _ref_fold(exps, re, im):
    mono = []
    for p in sorted(exps):
        r = exps[p]
        whole = math.floor(r)
        re, im = re * Fraction(p) ** whole, im * Fraction(p) ** whole
        if r != whole:
            mono.append((p, r - whole))
    return tuple(mono), re, im


def _ref_add_term(acc, mono, re, im):
    old_re, old_im = acc.pop(mono, (Fraction(0), Fraction(0)))
    re, im = old_re + re, old_im + im
    if re or im:
        acc[mono] = (re, im)


def ref_add(x, y):
    acc = dict(x)
    for mono, (re, im) in y.items():
        _ref_add_term(acc, mono, re, im)
    return acc


def ref_neg(x):
    return {mono: (-re, -im) for mono, (re, im) in x.items()}


def ref_conj(x):
    return {mono: (re, -im) for mono, (re, im) in x.items()}


def ref_mul(x, y):
    acc = {}
    for m1, (a, b) in x.items():
        for m2, (c, d) in y.items():
            exps = dict(m1)
            for p, r in m2:
                exps[p] = exps.get(p, 0) + r
            _ref_add_term(acc, *_ref_fold(exps, a * c - b * d, a * d + b * c))
    return acc


def ref_inverse(x):
    ((mono, (re, im)),) = x.items()
    norm = re * re + im * im
    mono, re, im = _ref_fold({p: -r for p, r in mono}, re / norm, -im / norm)
    return {mono: (re, im)}


def ref_gaussian(re, im):
    return ref_add({}, {(): (Fraction(re), Fraction(im))})


def ref_root(base, exponent):
    mono, re, im = _ref_fold({p: k * exponent for p, k in FACTORS[base].items()},
                             Fraction(1), Fraction(0))
    return {mono: (re, im)}


def ref_as_gaussian(x):
    if not x:
        return (Fraction(0), Fraction(0))
    return x[()] if list(x) == [()] else None


def ref_str(x):
    if not x:
        return "0"
    pieces = []
    for mono, (re, im) in sorted(x.items()):
        if im == 0:
            g = str(re)
        elif re == 0:
            g = f"{im}i"
        else:
            g = f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"
        factors = "*".join(f"{p}^({r})" for p, r in mono)
        if not factors:
            pieces.append(g)
        elif g in ("1", "-1"):
            pieces.append(g[:-1] + factors)
        else:
            pieces.append(f"{g}*{factors}")
    out = pieces[0]
    for piece in pieces[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


def from_model(x):
    """The model rebuilt through the public constructors, term by term."""
    out = ExactScalar.zero()
    for mono, (re, im) in x.items():
        term = ExactScalar.gaussian(re, im)
        for p, r in mono:
            term = term * ExactScalar.root(p, r)
        out = out + term
    return out


def assert_matches(x, ref):
    """x has the model's value, text and Gaussian view, and every stored
    triple is canonical: int parts, den > 0, gcd(re, im, den) == 1."""
    for mono, (re, im, den) in x._terms.items():
        assert type(re) is int and type(im) is int and type(den) is int
        assert den > 0 and (re or im) and math.gcd(re, im, den) == 1
        assert all(0 < r < 1 for _, r in mono)
    assert dict(x.sorted_terms()) == ref
    assert x.is_zero == (not ref)
    assert x.as_gaussian() == ref_as_gaussian(ref)
    assert str(x) == ref_str(ref)


# unbounded numerators and denominators next to small ones, so that large
# denominators and cancelling terms both occur
parts = st.one_of(small_fracs, st.fractions())
# base 1 gives a plain Gaussian term
terms = st.tuples(parts, parts, st.sampled_from([1, 1, 2, 3, 6, 12]),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def scalars_with_model(draw):
    x, ref = ExactScalar.zero(), {}
    for re, im, base, exponent in draw(st.lists(terms, max_size=3)):
        x = x + ExactScalar.gaussian(re, im) * ExactScalar.root(base, exponent)
        ref = ref_add(ref, ref_mul(ref_gaussian(re, im), ref_root(base, exponent)))
    return x, ref


def _gaussian_with_model(re, im):
    return ExactScalar.gaussian(re, im), ref_gaussian(re, im)


@settings(max_examples=300, deadline=None)
@given(scalars_with_model(), scalars_with_model())
# Gaussian x Gaussian products, one of them 1
@example(_gaussian_with_model(0, 1), _gaussian_with_model(0, -1))
@example(_gaussian_with_model(Fraction(1, 2), Fraction(-1, 3)), _gaussian_with_model(-3, 4))
def test_arithmetic_matches_the_fraction_model(left, right):
    (a, ra), (b, rb) = left, right
    assert_matches(a, ra)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, ref_neg(rb)))
    assert_matches(-a, ref_neg(ra))
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(a.conjugate(), ref_conj(ra))
    if len(ra) == 1:
        assert_matches(a.inverse(), ref_inverse(ra))
        assert_matches(a * a.inverse(), {(): (Fraction(1), Fraction(0))})
    assert (a == b) == (ra == rb)
    rebuilt = from_model(ra)
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert ((a + b) - b) == a and hash((a + b) - b) == hash(a)


def test_gaussian_product_of_one_is_the_interned_one():
    i = ExactScalar.imag_unit()
    assert i * -i is ExactScalar.one()
    assert ExactScalar.gaussian(half, half) * ExactScalar.gaussian(1, -1) is ExactScalar.one()
    # so the identity fast paths fire on it
    x = ExactScalar.gaussian(3, 4)
    assert (i * -i) * x is x


def test_factoring_is_bounded():
    # a cofactor left below FACTOR_BOUND^2 = 2^40 after trial division is prime
    big_prime = 4294967291  # the largest prime below 2^32
    assert str(ExactScalar.root(big_prime, half)) == f"{big_prime}^(1/2)"
    assert ExactScalar.root(65537 ** 2, half) == ExactScalar.rational(65537)
    assert ExactScalar.root(1048573 ** 2, half) == ExactScalar.rational(1048573)
    assert str(ExactScalar.root(12 * big_prime, half)) == f"2*3^(1/2)*{big_prime}^(1/2)"
    # cofactors of 2^40 or more with no prime factor below 2^20
    for base in (100000000000000000039, 1048583 * 1048589, 1048583 ** 2):
        start = time.perf_counter()
        with pytest.raises(FactoringTooCostly):
            ExactScalar.root(base, half)
        assert time.perf_counter() - start < 1.0
