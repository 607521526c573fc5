"""Random commutation tables (m, n <= 3) through every layer above the
kernel: the product, the oracle, the state, and twisted pairs with their
endomorphisms. The fixture tables are three points of this space; each test
here draws a fresh table and a seed for the elements."""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from twograph.algebra import Element, mul
from twograph.cli import main
from twograph.endo import (
    Endomorphism,
    UnitaryPair,
    canonical_pair,
    compose,
    inner_pair,
    pair_from_generator_map,
    pair_product,
    twisted_check,
)
from twograph.modular import gram_is_positive_definite, gram_matrix, gram_matrix_float, kms_check
from twograph.oracle import GradedActionModel
from twograph.sampling import (
    random_coeff,
    random_element,
    random_independent_basis,
    random_unitary,
    rng_from_seed,
)
from twograph.scalar import ExactScalar
from twograph.semigroup import enumerate_words, theta_text

from conftest import random_theta

SEEDS = st.integers(0, 2**16)
FEW = settings(max_examples=25, deadline=None)
DEGREES = st.tuples(st.integers(0, 2), st.integers(0, 2))


@FEW
@given(theta=random_theta(), seed=SEEDS)
def test_associativity(theta, seed):
    rng = rng_from_seed(seed)
    a, b, c = (random_element(rng, theta, (1, 1)) for _ in range(3))
    assert (mul(mul(a, b), c) - mul(a, mul(b, c))).is_zero()


def _composed_action_agrees(model, a, b, product):
    """The word-by-word reference: act(product, z) == act(a, act(b, z)) on
    every word z of the evaluation stratum."""
    for z in enumerate_words(model.theta, model._evaluation_stratum(a, b, product)):
        composed = {}
        for mid, c_mid in model.act(b, z).items():
            for out, c_out in model.act(a, mid).items():
                composed[out] = composed.get(out, ExactScalar.zero()) + c_mid * c_out
        if model.act(product, z) != {w: c for w, c in composed.items() if not c.is_zero}:
            return False
    return True


@FEW
@given(theta=random_theta(), seed=SEEDS)
def test_product_agrees_with_the_oracle(theta, seed):
    # for the true product and a planted wrong one, `product_agrees` gives
    # the verdict of the word-by-word reference
    rng = rng_from_seed(seed)
    model = GradedActionModel(theta)
    a, b = random_element(rng, theta, (1, 1)), random_element(rng, theta, (1, 1))
    product = mul(a, b)
    planted = product + random_element(rng, theta, (2, 2), terms=1)
    assert model.product_agrees(a, b, product) and _composed_action_agrees(model, a, b, product)
    assert model.product_agrees(a, b, planted) == _composed_action_agrees(model, a, b, planted)


def _aligned_by_definition(x: Element) -> bool:
    """Each degree difference d(u) - d(v) carries one v-degree."""
    levels = {}
    for t in x._terms:
        levels.setdefault(t.degree, set()).add(t.v.degree)
    return all(len(found) == 1 for found in levels.values())


@settings(max_examples=50, deadline=None)
@given(theta=random_theta(), seed=SEEDS)
def test_trusted_results_hold_no_zero_and_alignment_reads_the_degrees(theta, seed):
    rng = rng_from_seed(seed)
    a, b = (random_element(rng, theta, (1, 1), terms=4) for _ in range(2))
    # the differences cancel some or all of their terms
    results = [mul(a, b), mul(b, a), a + b, a - b, a - a, (a + b) - b, (a - b) + b,
               a + (-a), a.adjoint(), mul(a, b).adjoint(), a.canonicalize(),
               (a - b).canonicalize(), (mul(a, b) - mul(b, a)).canonicalize()]
    for x in [a, b, *results]:
        assert (x.canonicalize() is x) == _aligned_by_definition(x)
    for x in results:
        assert not any(c.is_zero for c in x._terms.values())


@FEW
@given(theta=random_theta(), seed=SEEDS, degree=DEGREES)
def test_action_walks_the_rows_that_act_finds(theta, seed, degree):
    model = GradedActionModel(theta)
    a = random_element(rng_from_seed(seed), theta, (1, 1), terms=4)
    by_word = {z: model.act(a, z) for z in enumerate_words(theta, degree)}
    assert model.action(a, degree) == {z: row for z, row in by_word.items() if row}


@FEW
@given(theta=random_theta(), seed=SEEDS)
def test_kms_exact(theta, seed):
    rng = rng_from_seed(seed)
    a, b = random_element(rng, theta, (1, 1)), random_element(rng, theta, (1, 1))
    ok, lhs, rhs = kms_check(a, b)
    assert ok, (str(lhs), str(rhs))


@FEW
@given(theta=random_theta(), seed=SEEDS, size=st.integers(1, 6), dependent=st.booleans())
def test_exact_gram_decision_agrees_with_eigvalsh(theta, seed, size, dependent):
    # an independent basis gives a positive definite Gram matrix; appending a
    # combination of two of its elements makes it singular
    rng = rng_from_seed(seed)
    basis = random_independent_basis(rng, theta, size, (2, 2))
    if dependent:
        a, b = rng.choice(basis), rng.choice(basis)
        basis.append(a.scaled(random_coeff(rng)) + b.scaled(random_coeff(rng)))
    gram = gram_matrix(basis)
    smallest = np.linalg.eigvalsh(gram_matrix_float(gram)).min()
    assert gram_is_positive_definite(gram) == (smallest > 1e-9), smallest
    assert gram_is_positive_definite(gram) != dependent


@settings(max_examples=10, deadline=None)
@given(theta=random_theta())
def test_canonical_pairs_are_twisted_and_round_trip(theta):
    for p, q in ((1, 0), (0, 1), (1, 1)):
        pair = canonical_pair(theta, p, q)
        assert twisted_check(pair.U, pair.V)[0]
        e_images, f_images = Endomorphism(pair).generator_images()
        assert pair_from_generator_map(theta, e_images, f_images).equals(pair)


@FEW
@given(theta=random_theta(), seed=SEEDS)
def test_inner_pair_round_trips_and_is_multiplicative(theta, seed):
    rng = rng_from_seed(seed)
    pair = inner_pair(random_unitary(rng, theta))
    lam = Endomorphism(pair)
    e_images, f_images = lam.generator_images()
    assert pair_from_generator_map(theta, e_images, f_images).equals(pair)
    x, y = random_element(rng, theta, (1, 1)), random_element(rng, theta, (1, 1))
    assert lam.apply(mul(x, y)) == mul(lam.apply(x), lam.apply(y))
    assert lam.apply(Element.unit(theta)) == Element.unit(theta)


@FEW
@given(theta=random_theta(), seed=SEEDS)
def test_pairs_built_without_a_decision_are_twisted(theta, seed):
    # compose, pair_product, inner_pair and pair_from_generator_map trust the
    # theory that makes their pairs twisted; decide each pair here instead
    rng = rng_from_seed(seed)
    inner = inner_pair(random_unitary(rng, theta))
    shift = canonical_pair(theta, 1, 0)
    built = [inner, compose(Endomorphism(shift), Endomorphism(inner)),
             pair_product(inner, shift),
             pair_from_generator_map(theta, *Endomorphism(shift).generator_images())]
    for pair in built:
        assert twisted_check(pair.U, pair.V) == (True, None)
        decided = UnitaryPair(pair.U, pair.V)
        assert UnitaryPair._trusted(pair.U, pair.V).W == decided.W == pair.W


def _check(theta, *argv) -> tuple[int, str]:
    """Exit code and records output of `check <argv>` on theta. A
    function-scoped tmp_path is shared by every example, so each call writes
    its own table file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "theta.txt")
        with open(path, "w") as fh:
            fh.write(theta_text(theta))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", *argv, "--theta", path, "--format", "records"])
    return code, out.getvalue()


@FEW
@given(theta=random_theta(), seed=SEEDS)
def test_check_all_passes(theta, seed):
    code, out = _check(theta, "all", "--seed", str(seed), "--level", "1,1", "--samples", "8")
    assert (code, out.splitlines()[-1]) == (0, "result\tPASS"), out


@FEW
@given(theta=random_theta(), seed=SEEDS, level=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_check_algebra_passes_at_every_level(theta, seed, level):
    # at level 3,3 on a 3x3 table the oracle's evaluation stratum can hold
    # 3^14 words, more than MAX_WORDS; the check must still end in a verdict
    code, out = _check(theta, "algebra", "--seed", str(seed), "--level", "{},{}".format(*level),
                       "--samples", "2")
    assert (code, out.splitlines()[-1]) == (0, "result\tPASS"), out
