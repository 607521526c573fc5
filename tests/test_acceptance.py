"""Acceptance criteria, one test per criterion.

Every criterion is exact (rational/structural equality) except where a
float tolerance is stated inline. Each test prints a single PASS line on
success (visible with -s or in captured output); a failure raises with the
witness. Random data is seeded, level is (2, 2), samples is 100, and the
generic criteria run for both reference tables: the flip table with
m = n = 2 and the identity table with m = 2, n = 3. The algebra, oracle,
KMS and canonical-pair criteria also run on the mixed 2x3 table.
"""

from fractions import Fraction

import numpy as np
import pytest

from twograph.algebra import (
    Element,
    GenTerm,
    degree_component,
    gauge_float,
    mul,
    raise_level,
    support_degrees,
)
from twograph.endo import (
    Endomorphism,
    ad_product_check,
    canonical_endomorphism,
    canonical_endomorphism_apply,
    canonical_pair,
    compose,
    gallery,
    inner_pair,
    pair_from_generator_map,
    pair_product,
    twisted_check,
)
from twograph.modular import (
    flow_fixed_degree,
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
from twograph.oracle import GradedActionModel
from twograph.sampling import (
    random_core_element,
    random_element,
    random_independent_basis,
    random_letters,
    random_unitary,
    random_word,
    rng_from_seed,
)
from twograph.scalar import ExactScalar, power_of_base
from twograph.semigroup import (
    EMPTY_WORD,
    Permutation2D,
    Word,
    concat,
    enumerate_words,
    factor_at,
    normal_form,
    word,
    words_up_to,
)
from twograph.suites import naive_normal_form

LEVEL = (2, 2)
SAMPLES = 100
SEED = 2026
HALF = Fraction(1, 2)
EVERY_TABLE = pytest.mark.parametrize("theta", ["flip22", "id23", "mixed23"], indirect=True)


def _report(criterion: str, theta=None):
    suffix = f" [{theta}]" if theta else ""
    print(f"[ACCEPTANCE] {criterion}{suffix}: PASS")


def theta_label(theta):
    if theta.m == theta.n and theta == Permutation2D.flip(theta.m, theta.n):
        return f"flip({theta.m},{theta.n})"
    if theta == Permutation2D.identity(theta.m, theta.n):
        return f"identity({theta.m},{theta.n})"
    return f"table({theta.m},{theta.n})"


def test_c01_semigroup_suite(theta):
    """Confluence, degree conservation, factorization, cancellativity."""
    rng = rng_from_seed(SEED)
    for _ in range(500):
        letters = random_letters(rng, theta, rng.randint(0, 8))
        results = []
        for order in ("ltr", "rtl", "random"):
            w, degree_ok = naive_normal_form(theta, letters, order, rng)
            assert degree_ok, f"degree not conserved on {letters}"
            results.append(w)
        assert results[0] == results[1] == results[2] == normal_form(theta, letters), letters

    words = words_up_to(theta, LEVEL)
    for w in words:
        for a in range(w.degree[0] + 1):
            for b in range(w.degree[1] + 1):
                w1, w2 = factor_at(theta, w, (a, b))
                assert w1.degree == (a, b) and concat(theta, w1, w2) == w

    by_degree = {}
    for w in words:
        by_degree.setdefault(w.degree, []).append(w)
    for w in words:
        for group in by_degree.values():
            assert len({concat(theta, w, a) for a in group}) == len(group)
    _report("C01 semigroup-suite", theta_label(theta))


@EVERY_TABLE
def test_c02_algebra_suite(theta):
    """Associativity, unit, involution, raising invariance, product grading."""
    rng = rng_from_seed(SEED + 1)
    one = Element.unit(theta)
    for _ in range(SAMPLES):
        a = random_element(rng, theta, LEVEL)
        b = random_element(rng, theta, LEVEL)
        c = random_element(rng, theta, LEVEL)
        assert (mul(mul(a, b), c) - mul(a, mul(b, c))).is_zero()
        assert mul(one, a) == a and mul(a, one) == a
        assert mul(a, b).adjoint() == mul(b.adjoint(), a.adjoint())
        assert a.adjoint().adjoint() == a

    for _ in range(SAMPLES):
        t = GenTerm(random_word(rng, theta, LEVEL), random_word(rng, theta, LEVEL))
        delta = (rng.randint(0, 1), rng.randint(0, 1))
        assert raise_level(theta, t, delta) == Element(theta, {t: ExactScalar.one()})

    from twograph.semigroup import deg_sub

    for _ in range(SAMPLES):
        a = random_element(rng, theta, LEVEL, terms=2)
        b = random_element(rng, theta, LEVEL, terms=2)
        product = mul(a, b)
        deltas = {
            (da[0] + db[0], da[1] + db[1])
            for da in support_degrees(a)
            for db in support_degrees(b)
        }
        for delta in deltas:
            rhs = Element.zero(theta)
            for da in support_degrees(a):
                rhs = rhs + mul(degree_component(a, da),
                                degree_component(b, deg_sub(delta, da)))
            assert degree_component(product, delta) == rhs
    _report("C02 algebra-suite", theta_label(theta))


@EVERY_TABLE
def test_c03_product_and_state_against_oracle(theta):
    """Symbolic product and state agree with the graded-action model."""
    model = GradedActionModel(theta)
    rng = rng_from_seed(SEED + 2)
    for _ in range(SAMPLES):
        t1 = GenTerm(random_word(rng, theta, LEVEL), random_word(rng, theta, LEVEL))
        t2 = GenTerm(random_word(rng, theta, LEVEL), random_word(rng, theta, LEVEL))
        a = Element(theta, {t1: ExactScalar.one()})
        b = Element(theta, {t2: ExactScalar.one()})
        product = mul(a, b)
        stratum = model._evaluation_stratum(a, b, product)
        for z in enumerate_words(theta, stratum):
            composed = {}
            for mid, c1 in model.act(b, z).items():
                for out, c2 in model.act(a, mid).items():
                    total = composed.get(out, ExactScalar.zero()) + c1 * c2
                    if total.is_zero:
                        composed.pop(out, None)
                    else:
                        composed[out] = total
            assert model.act(product, z) == composed, (str(t1), str(t2), str(z))

    for _ in range(SAMPLES):
        x = random_core_element(rng, theta, 2, terms=3)
        assert model.oracle_trace(x) == omega(x), str(x)
    _report("C03 oracle-equivalence", theta_label(theta))


def test_c04_compression_trace_identity(theta):
    """Exact compression identity for all word pairs up to degree (2,2):
    omega(s_u X s_v*) = [u == v] n^(-d(u)) omega(X) for core X."""
    rng = rng_from_seed(SEED + 3)
    xs = [random_core_element(rng, theta, 2, terms=2) for _ in range(20)]
    words = words_up_to(theta, LEVEL)
    for u in words:
        su = Element.gen(theta, u, EMPTY_WORD)
        scale = power_of_base(theta, u.degree, -1)
        for v in words:
            sv_star = Element.gen(theta, EMPTY_WORD, v)
            for x in xs:
                got = omega(mul(mul(su, x), sv_star))
                expected = omega(x) * scale if u == v else ExactScalar.zero()
                assert got == expected, (str(u), str(v), str(x))
    _report("C04 compression-trace", theta_label(theta))


def test_c04_state_spot_values(flip22, id23):
    assert omega(Element.gen(flip22, word(flip22, "e1"), word(flip22, "e1"))) \
        == ExactScalar.rational(HALF)
    assert omega(Element.gen(id23, word(id23, "e1.f1"), word(id23, "e1.f1"))) \
        == ExactScalar.rational(Fraction(1, 6))
    _report("C04 state-spot-values")


def test_c05_adjoint_pairing_and_polar_relations(theta):
    """Pairing duality on random pairs; polar relations on all generators."""
    rng = rng_from_seed(SEED + 4)
    for _ in range(SAMPLES):
        a = random_element(rng, theta, LEVEL)
        b = random_element(rng, theta, LEVEL)
        assert inner(tomita_s(a), b) == inner(tomita_f(b), a), (str(a), str(b))

    for u in words_up_to(theta, LEVEL):
        for v in words_up_to(theta, LEVEL):
            x = Element.gen(theta, u, v, ExactScalar.gaussian(1, -1))
            assert tomita_s(x) == modular_conjugation(modular_power(HALF, x))
            assert tomita_f(x) == modular_conjugation(modular_power(-HALF, x))
            assert modular_power(1, x) == tomita_f(tomita_s(x))
    _report("C05 pairing-and-polar", theta_label(theta))


def test_c06_modular_powers_multiplicative(theta):
    rng = rng_from_seed(SEED + 5)
    for _ in range(SAMPLES):
        a = random_element(rng, theta, LEVEL, terms=2)
        b = random_element(rng, theta, LEVEL, terms=2)
        for z in (1, -1, HALF, 2):
            lhs = modular_power(z, mul(a, b))
            rhs = mul(modular_power(z, a), modular_power(z, b))
            assert (lhs - rhs).is_zero(), (str(a), str(b), z)
    _report("C06 modular-multiplicativity", theta_label(theta))


@EVERY_TABLE
def test_c07_kms_and_flow_gauge_agreement(theta):
    """Equilibrium identity exact; real-time flow matches the gauge orbit."""
    rng = rng_from_seed(SEED + 6)
    for _ in range(SAMPLES):
        a = random_element(rng, theta, LEVEL)
        b = random_element(rng, theta, LEVEL)
        ok, lhs, rhs = kms_check(a, b)
        assert ok, (str(a), str(b), str(lhs), str(rhs))

    for t in (0.37, 1.0, 3.14159):
        point = (theta.m ** (-1j * t), theta.n ** (-1j * t))
        for u in words_up_to(theta, LEVEL):
            for v in words_up_to(theta, LEVEL):
                x = Element.gen(theta, u, v)
                flowed = modular_flow(t, x)
                gauged = gauge_float(x, point)
                for term in flowed:
                    residual = abs(flowed[term] - gauged[term])
                    assert residual < 1e-12, (t, str(term), residual)
    _report("C07 kms-and-flow-gauge", theta_label(theta))


@EVERY_TABLE
def test_c08_canonical_pairs_and_intertwining(theta):
    """Canonical pairs are twisted, the bijection round-trips, and the
    canonical endomorphisms satisfy their defining intertwining relation."""
    rng = rng_from_seed(SEED + 7)
    for p, q in ((1, 0), (0, 1), (1, 1), (2, 1)):
        pair = canonical_pair(theta, p, q)
        ok, residual = twisted_check(pair.U, pair.V)
        assert ok, f"(p,q)=({p},{q}): {residual}"

        lam = Endomorphism(pair)
        e_imgs, f_imgs = lam.generator_images()
        recovered = pair_from_generator_map(theta, e_imgs, f_imgs)
        assert recovered.equals(pair), f"(p,q)=({p},{q})"

        words = enumerate_words(theta, (p, q))
        for _ in range(50):
            x = random_element(rng, theta, LEVEL, terms=2)
            w = rng.choice(words)
            sw = Element.gen(theta, w, EMPTY_WORD)
            lam_x = canonical_endomorphism_apply(theta, p, q, x)
            assert (mul(lam_x, sw) - mul(sw, x)).is_zero(), (p, q, str(x), str(w))
    _report("C08 canonical-pairs", theta_label(theta))


def test_c09_composition_inner_and_associativity(theta):
    rng = rng_from_seed(SEED + 8)
    composed = compose(
        canonical_endomorphism(theta, 1, 0), canonical_endomorphism(theta, 0, 1)
    )
    assert composed.equals(canonical_pair(theta, 1, 1))

    gens = [Element.gen(theta, Word((i,), ()), EMPTY_WORD) for i in range(1, theta.m + 1)]
    gens += [Element.gen(theta, Word((), (j,)), EMPTY_WORD) for j in range(1, theta.n + 1)]
    for _ in range(20):
        w = random_unitary(rng, theta)
        lam = Endomorphism(inner_pair(w))
        w_star = w.adjoint()
        for g in gens:
            assert lam.apply(g) == mul(mul(w, g), w_star), str(w)

    p1 = canonical_pair(theta, 1, 0)
    p2 = inner_pair(random_unitary(rng, theta))
    p3 = canonical_pair(theta, 0, 1)
    lhs = pair_product(pair_product(p3, p2), p1)
    rhs = pair_product(p3, pair_product(p2, p1))
    assert lhs.equals(rhs)
    _report("C09 composition-and-inner", theta_label(theta))


def test_c10_gallery(flip22, id22):
    """Built-in example pairs: twisted property, centrality, involution."""
    rng = rng_from_seed(SEED + 9)

    commutant = [
        mul(Element.gen(flip22, EMPTY_WORD, Word((), (j,))),
            Element.gen(flip22, Word((i,), ()), EMPTY_WORD))
        for i in (1, 2) for j in (1, 2)
    ]
    for _ in range(20):
        u = random_unitary(rng, flip22)
        pair = gallery(flip22, "ex39", u=u)
        ok, residual = twisted_check(pair.U, pair.V)
        assert ok, f"U={u}: {residual}"
        assert all((mul(u, c) - mul(c, u)).is_zero() for c in commutant)
    # reverse direction of the criterion on the identity table, where it bites
    seen_false = False
    for _ in range(12):
        u = random_unitary(rng, id22)
        twisted, _ = twisted_check(u, u)
        commutes = all(
            (mul(u, c) - mul(c, u)).is_zero()
            for c in (
                mul(Element.gen(id22, EMPTY_WORD, Word((), (j,))),
                    Element.gen(id22, Word((i,), ()), EMPTY_WORD))
                for i in (1, 2) for j in (1, 2)
            )
        )
        assert twisted == commutes
        seen_false = seen_false or not twisted
    assert seen_false, "expected a non-twisted (U, U) on the identity table"

    pair312 = gallery(flip22, "ex312")
    lam312 = Endomorphism(pair312)
    gens = [Element.gen(flip22, Word((i,), ()), EMPTY_WORD) for i in (1, 2)]
    gens += [Element.gen(flip22, Word((), (j,)), EMPTY_WORD) for j in (1, 2)]
    for g in gens:
        assert (mul(pair312.U, g) - mul(g, pair312.U)).is_zero()
        assert lam312.apply(lam312.apply(g)) == g

    pair313 = gallery(id22, "ex313")
    ok, residual = twisted_check(pair313.U, pair313.V)
    assert ok, residual
    _report("C10 gallery")


def test_c11_conjugation_cascade(theta, flip22):
    """Finite conjugation-cascade identity on the level-k core, k in {1, 2}."""
    for k in (1, 2):
        assert ad_product_check(Endomorphism.identity(theta), k)
        assert ad_product_check(canonical_endomorphism(theta, 1, 1), k)
    lam312 = Endomorphism(gallery(flip22, "ex312"))
    for k in (1, 2):
        assert ad_product_check(lam312, k)
    _report("C11 conjugation-cascade", theta_label(theta))


def test_c12_spectrum_window_and_fixed_degrees(id23):
    values = modular_spectrum_window(id23, 1)
    expected = [Fraction(1, 6), Fraction(1, 3), HALF, Fraction(2, 3), 1,
                Fraction(3, 2), 2, 3, 6]
    assert values == [ExactScalar.rational(x) for x in expected]

    id42 = Permutation2D.identity(4, 2)
    values42 = modular_spectrum_window(id42, 1)
    expected42 = [Fraction(1, 8), Fraction(1, 4), HALF, 1, 2, 4, 8]
    assert values42 == [ExactScalar.rational(x) for x in expected42]

    assert flow_fixed_degree(id42, (1, -2))
    assert not flow_fixed_degree(id23, (1, -1))
    _report("C12 spectrum-and-fixed-degrees")


def test_c13_gram_positivity(theta):
    """Level-(1,1) Gram is exactly the scaled identity; random independent
    bases have strictly positive float spectra."""
    words = enumerate_words(theta, (1, 1))
    basis = [Element.gen(theta, u, v) for u in words for v in words]
    gram = gram_matrix(basis)
    scale = ExactScalar.rational(Fraction(1, theta.m * theta.n))
    for i in range(len(basis)):
        for j in range(len(basis)):
            assert gram[i][j] == (scale if i == j else ExactScalar.zero())

    rng = rng_from_seed(SEED + 10)
    for size in (5, 12, 25):
        rnd_basis = random_independent_basis(rng, theta, size, LEVEL)
        values = np.linalg.eigvalsh(gram_matrix_float(gram_matrix(rnd_basis)))
        assert values.min() > 1e-9, (size, values.min())
    _report("C13 gram-positivity", theta_label(theta))
