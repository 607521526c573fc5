"""State values, modular operators, equilibrium identity, spectra."""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twograph.algebra import Element, gauge, gauge_float, mul
from twograph.errors import MalformedInput
from twograph.modular import (
    flow_fixed_degree,
    gram_is_positive_definite,
    gram_matrix,
    gram_matrix_float,
    inner,
    kms_check,
    modular_conjugation,
    modular_flow,
    modular_power,
    modular_spectrum_window,
    omega,
    tomita_f,
    tomita_s,
)
from twograph.sampling import (
    random_coeff,
    random_core_element,
    random_element,
    random_independent_basis,
    rng_from_seed,
)
from twograph.scalar import ExactScalar, power_of_base
from twograph.semigroup import (
    EMPTY_WORD,
    Permutation2D,
    enumerate_words,
    word,
    words_up_to,
)

from conftest import random_theta

half = Fraction(1, 2)


def gen(theta, u, v, coeff=None):
    return Element.gen(theta, word(theta, u), word(theta, v), coeff)


class TestOmega:
    def test_spot_values(self, flip22, id23):
        assert omega(gen(flip22, "e1", "e1")) == ExactScalar.rational(half)
        assert omega(gen(id23, "e1.f2", "e1.f2")) == ExactScalar.rational(Fraction(1, 6))

    def test_kills_nonzero_degree(self, theta):
        assert omega(gen(theta, "e1", "id")).is_zero

    def test_kills_off_diagonal(self, theta):
        assert omega(gen(theta, "e1.f1", "e2.f1")).is_zero

    def test_normalized(self, theta):
        assert omega(Element.unit(theta)) == ExactScalar.one()

    def test_gauge_invariant(self, theta):
        rng = rng_from_seed(40)
        i = ExactScalar.imag_unit()
        for _ in range(30):
            a = random_element(rng, theta, (2, 2))
            assert omega(gauge(a, (i, i.conjugate()))) == omega(a)

    def test_trace_on_core(self, theta):
        rng = rng_from_seed(41)
        for _ in range(30):
            x = random_core_element(rng, theta, 1, terms=3)
            y = random_core_element(rng, theta, 2, terms=2)
            assert omega(mul(x, y)) == omega(mul(y, x))

    def test_compression_identity(self, theta):
        """Compression by same-degree isometries scales the core trace."""
        rng = rng_from_seed(42)
        for degree in [(1, 0), (0, 1), (1, 1), (2, 2)]:
            words = enumerate_words(theta, degree)
            for _ in range(5):
                u, v = rng.choice(words), rng.choice(words)
                x = random_core_element(rng, theta, 2, terms=2)
                got = omega(mul(mul(Element.gen(theta, u, EMPTY_WORD), x),
                                Element.gen(theta, EMPTY_WORD, v)))
                if u == v:
                    assert got == omega(x) * power_of_base(theta, degree, -1)
                else:
                    assert got.is_zero


class TestInner:
    def test_unit_norm(self, theta):
        assert inner(Element.unit(theta), Element.unit(theta)) == ExactScalar.one()

    def test_isometry_norm(self, theta):
        a = gen(theta, "e1", "id")
        assert inner(a, a) == ExactScalar.one()

    def test_orthogonal_edges(self, theta):
        assert inner(gen(theta, "e1", "id"), gen(theta, "e2", "id")).is_zero

    def test_conjugate_symmetry(self, theta):
        rng = rng_from_seed(43)
        for _ in range(20):
            a = random_element(rng, theta, (2, 2))
            b = random_element(rng, theta, (2, 2))
            assert inner(a, b) == inner(b, a).conjugate()


class TestTomitaOperators:
    def test_f_on_edge(self, flip22):
        assert tomita_f(gen(flip22, "e1", "id")) == gen(flip22, "id", "e1").scaled(2)

    def test_f_on_adjoint_edge(self, id23):
        assert tomita_f(gen(id23, "id", "f1")) == gen(id23, "f1", "id").scaled(
            ExactScalar.rational(Fraction(1, 3))
        )

    def test_fix_unit(self, theta):
        one = Element.unit(theta)
        assert tomita_f(one) == one and tomita_s(one) == one

    def test_j_on_edge(self, flip22):
        got = modular_conjugation(gen(flip22, "e1", "id"))
        assert got == gen(flip22, "id", "e1").scaled(ExactScalar.root(2, half))

    def test_j_squares_to_identity(self, theta):
        rng = rng_from_seed(44)
        for _ in range(20):
            a = random_element(rng, theta, (2, 2))
            assert modular_conjugation(modular_conjugation(a)) == a

    def test_modular_power_z1(self, theta):
        got = modular_power(1, gen(theta, "e1", "id"))
        assert got == gen(theta, "e1", "id").scaled(ExactScalar.rational(Fraction(1, theta.m)))

    def test_adjoint_pairing(self, theta):
        rng = rng_from_seed(45)
        for _ in range(100):
            a = random_element(rng, theta, (2, 2))
            b = random_element(rng, theta, (2, 2))
            assert inner(tomita_s(a), b) == inner(tomita_f(b), a)

    def test_polar_relations_all_generators(self, theta):
        for u in words_up_to(theta, (2, 2)):
            for v in words_up_to(theta, (2, 2)):
                x = Element.gen(theta, u, v, ExactScalar.gaussian(1, -1))
                assert tomita_s(x) == modular_conjugation(modular_power(half, x))
                assert tomita_f(x) == modular_conjugation(modular_power(-half, x))
                assert modular_power(1, x) == tomita_f(tomita_s(x))

    def test_modular_powers_multiplicative(self, theta):
        rng = rng_from_seed(46)
        for _ in range(50):
            a = random_element(rng, theta, (2, 2), terms=2)
            b = random_element(rng, theta, (2, 2), terms=2)
            for z in (1, -1, half, 2):
                lhs = modular_power(z, mul(a, b))
                rhs = mul(modular_power(z, a), modular_power(z, b))
                assert (lhs - rhs).is_zero()

    def test_power_group_law(self, theta):
        x = gen(theta, "e1.f1", "f2", ExactScalar.gaussian(2, 1))
        assert modular_power(half, modular_power(half, x)) == modular_power(1, x)


class TestModularFlow:
    def test_imaginary_time_grading(self, theta):
        got = modular_flow("i", gen(theta, "id", "e1"))
        assert got == gen(theta, "id", "e1").scaled(ExactScalar.rational(Fraction(1, theta.m)))

    def test_fixes_core_any_time(self, theta):
        x = gen(theta, "e1.f1", "e2.f1")
        assert modular_flow("i", x) == x
        flowed = modular_flow(0.37, x)
        for t, c in flowed.items():
            assert abs(c - x.coefficient(t).to_complex()) < 1e-12

    def test_unit_modulus_float(self, theta):
        flowed = modular_flow(0.37, gen(theta, "e1", "id"))
        ((_, c),) = flowed.items()
        assert abs(abs(c) - 1.0) < 1e-12

    def test_equals_inverse_modular_power(self, theta):
        rng = rng_from_seed(47)
        for _ in range(30):
            a = random_element(rng, theta, (2, 2))
            assert modular_flow("i", a) == modular_power(-1, a)

    def test_flow_equals_gauge_float(self, theta):
        for t in (0.37, 1.0, 3.14159):
            point = (theta.m ** (-1j * t), theta.n ** (-1j * t))
            for u in words_up_to(theta, (1, 1)):
                for v in words_up_to(theta, (1, 1)):
                    x = Element.gen(theta, u, v)
                    flowed = modular_flow(t, x)
                    gauged = gauge_float(x, point)
                    for term in flowed:
                        assert abs(flowed[term] - gauged[term]) < 1e-12


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


@settings(max_examples=50, deadline=None)
@given(theta=random_theta(), seed=st.integers(0, 2**16),
       t=st.floats(-20, 20, allow_nan=False))
def test_float_maps_on_many_terms_equal_the_single_term_results(theta, seed, t):
    """Phases and torus powers shared by the terms of one degree difference
    give each term the double it gets when it is mapped alone."""
    x = random_element(rng_from_seed(seed), theta, (2, 2), terms=8)
    point = (theta.m ** (-1j * t), theta.n ** (-1j * t))
    flowed, gauged = modular_flow(t, x), gauge_float(x, point)
    assert list(flowed) == list(gauged) == list(x._terms)
    for term, c in x._terms.items():
        alone = Element(theta, {term: c})
        assert _bits(flowed[term]) == _bits(modular_flow(t, alone)[term])
        assert _bits(gauged[term]) == _bits(gauge_float(alone, point)[term])


_RADICAL_EXPONENTS = [half, -half, Fraction(1, 3), Fraction(2, 3), Fraction(5, 2)]
_ORDERS = [1, -1, half, -half, 2, Fraction(1, 3)]


def _radical_element(rng, theta, level=(2, 2), terms=8):
    """A random element whose coefficients each carry a radical monomial
    next to a Gaussian part: c * p^r + c' with r not an integer."""
    x = random_element(rng, theta, level, terms=terms)
    return Element._of(theta, {
        t: c * ExactScalar.root(rng.choice([2, 3, 6]), rng.choice(_RADICAL_EXPONENTS))
        + random_coeff(rng)
        for t, c in x._terms.items()
    })


def test_modular_power_reads_the_order_as_given_or_as_text(mixed23):
    x = _radical_element(rng_from_seed(61), mixed23)
    for z in _ORDERS:
        assert modular_power(z, x)._terms == modular_power(str(z), x)._terms
    for z in (1, -1, half, -half, 2):  # doubles that hold z exactly
        assert modular_power(z, x)._terms == modular_power(float(z), x)._terms


def test_warm_maps_with_gaussian_factors_build_no_fraction(monkeypatch, mixed23):
    """With the factor memo warm, a map whose factors are Gaussian rationals
    builds no Fraction on an element with Gaussian coefficients. Whole orders
    give such factors on every table, and half orders on a table whose m and
    n are squares; elsewhere a half order gives radical factors, and the
    product adds their Fraction exponents."""
    point = (ExactScalar.imag_unit(), ExactScalar.gaussian(Fraction(3, 5), Fraction(-4, 5)))
    whole = [lambda a: modular_power(1, a), lambda a: modular_power(-1, a),
             lambda a: modular_power(2, a), tomita_f,
             lambda a: modular_flow("i", a), lambda a: gauge(a, point)]
    id44 = Permutation2D.identity(4, 4)
    elements = [(random_element(rng_from_seed(63), theta, (1, 1), terms=8), maps)
                for theta, maps in ((mixed23, whole), (id44, whole + [modular_conjugation]))]
    for x, maps in elements:
        for f in maps:
            f(x)  # warm the factor memo
    built = []
    real_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: built.append(args) or real_new(cls, *args, **kw))
    for x, maps in elements:
        for f in maps:
            f(x)
    assert built == []
    # a Fraction order is negated once per call, not once per term
    x = elements[1][0]
    for z in (half, -half):
        modular_power(z, x)  # warm
        built.clear()
        modular_power(z, x)
        assert len(built) == 1


class TestKms:
    def test_edge_pair(self, theta):
        a = gen(theta, "e1", "id")
        b = gen(theta, "id", "e1")
        ok, lhs, rhs = kms_check(a, b)
        assert ok and lhs == ExactScalar.rational(Fraction(1, theta.m))

    def test_unit_pair(self, theta):
        ok, lhs, rhs = kms_check(Element.unit(theta), Element.unit(theta))
        assert ok and lhs == ExactScalar.one()

    def test_random_pairs(self, theta):
        rng = rng_from_seed(48)
        for _ in range(100):
            a = random_element(rng, theta, (2, 2))
            b = random_element(rng, theta, (2, 2))
            ok, lhs, rhs = kms_check(a, b)
            assert ok, (str(a), str(b), str(lhs), str(rhs))


class TestGram:
    def test_two_element_basis(self, flip22):
        gram = gram_matrix([Element.unit(flip22), gen(flip22, "e1", "id")])
        assert gram[0][0] == ExactScalar.one()
        assert gram[1][1] == ExactScalar.one()
        assert gram[0][1].is_zero and gram[1][0].is_zero

    def test_full_level_one_basis_is_scaled_identity(self, theta):
        words = enumerate_words(theta, (1, 1))
        basis = [Element.gen(theta, u, v) for u in words for v in words]
        gram = gram_matrix(basis)
        scale = ExactScalar.rational(Fraction(1, theta.m * theta.n))
        for i in range(len(basis)):
            for j in range(len(basis)):
                expected = scale if i == j else ExactScalar.zero()
                assert gram[i][j] == expected

    def test_empty_basis(self):
        assert gram_matrix([]) == []

    def test_positive_definite_on_independent_bases(self, theta):
        rng = rng_from_seed(49)
        for _ in range(5):
            basis = random_independent_basis(rng, theta, rng.randint(2, 8), (2, 2))
            values = np.linalg.eigvalsh(gram_matrix_float(gram_matrix(basis)))
            assert values.min() > 1e-9

    def test_repeated_basis_element_is_singular(self, theta):
        basis = random_independent_basis(rng_from_seed(51), theta, 4, (2, 2))
        assert gram_is_positive_definite(gram_matrix(basis))
        assert not gram_is_positive_definite(gram_matrix(basis + basis[1:2]))

    def test_radical_pivot_is_refused(self):
        root2 = ExactScalar.root(2, half)
        with pytest.raises(MalformedInput):
            gram_is_positive_definite([[root2]])
        # a Gaussian first pivot, then the second pivot 1 - 2^(1/2)
        fourth = ExactScalar.root(2, Fraction(1, 4))
        one = ExactScalar.one()
        with pytest.raises(MalformedInput):
            gram_is_positive_definite([[one, fourth], [fourth, one]])

    def test_hermitian(self, theta):
        rng = rng_from_seed(50)
        basis = [random_element(rng, theta, (1, 1), terms=2) for _ in range(3)]
        gram = gram_matrix(basis)
        for i in range(3):
            for j in range(3):
                assert gram[i][j] == gram[j][i].conjugate()


class TestSpectrumWindow:
    def test_2_3_window_one(self, id23):
        values = modular_spectrum_window(id23, 1)
        expected = [Fraction(1, 6), Fraction(1, 3), half, Fraction(2, 3), 1,
                    Fraction(3, 2), 2, 3, 6]
        assert values == [ExactScalar.rational(x) for x in expected]

    def test_window_zero(self, theta):
        assert modular_spectrum_window(theta, 0) == [ExactScalar.one()]

    def test_collision_merging(self):
        id42 = Permutation2D.identity(4, 2)
        values = modular_spectrum_window(id42, 1)
        expected = [Fraction(1, 8), Fraction(1, 4), half, 1, 2, 4, 8]
        assert values == [ExactScalar.rational(x) for x in expected]


class TestFlowFixedDegree:
    def test_zero_degree(self, theta):
        assert flow_fixed_degree(theta, (0, 0))

    def test_shared_prime_collision(self):
        id42 = Permutation2D.identity(4, 2)
        assert flow_fixed_degree(id42, (1, -2))
        assert flow_fixed_degree(id42, (-1, 2))
        assert not flow_fixed_degree(id42, (1, -1))

    def test_coprime_counts(self, id23):
        assert not flow_fixed_degree(id23, (1, -1))

