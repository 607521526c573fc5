"""The graded-action oracle agrees with the symbolic path on everything."""

from fractions import Fraction

import pytest

from twograph.algebra import Element, GenTerm, mul
from twograph.errors import DegreeTooLarge
from twograph.modular import omega
from twograph.oracle import GradedActionModel
from twograph.sampling import (
    random_core_element,
    random_element,
    random_word,
    rng_from_seed,
)
from twograph.scalar import ExactScalar
from twograph.semigroup import EMPTY_WORD, Word, enumerate_words, word


def gen(theta, u, v):
    return Element.gen(theta, word(theta, u), word(theta, v))


class TestStratum:
    def test_the_table_strata_and_their_refusals(self, theta):
        model = GradedActionModel(theta)
        assert list(model.stratum((1, 2))) == enumerate_words(theta, (1, 2))
        with pytest.raises(DegreeTooLarge):
            model.stratum((-1, 0))


class TestActTerm:
    def test_concatenation(self, theta):
        model = GradedActionModel(theta)
        t = GenTerm(word(theta, "e1"), EMPTY_WORD)
        assert str(model.act_term(t, word(theta, "f1"))) == "e1.f1"

    def test_prefix_mismatch_annihilates(self, theta):
        model = GradedActionModel(theta)
        t = GenTerm(EMPTY_WORD, word(theta, "e1"))
        assert model.act_term(t, word(theta, "e2.f1")) is None

    def test_low_stratum_annihilates(self, theta):
        model = GradedActionModel(theta)
        t = GenTerm(EMPTY_WORD, word(theta, "e1"))
        assert model.act_term(t, word(theta, "f1")) is None

    def test_defect_free_sums_act_as_identity(self, theta):
        model = GradedActionModel(theta)
        for z in enumerate_words(theta, (1, 1)):
            acc = {}
            for i in range(1, theta.m + 1):
                t = GenTerm(word(theta, f"e{i}"), word(theta, f"e{i}"))
                image = model.act_term(t, z)
                if image is not None:
                    acc[image] = acc.get(image, 0) + 1
            assert acc == {z: 1}


class TestAction:
    def test_rows_of_a_generator(self, theta):
        model = GradedActionModel(theta)
        a = gen(theta, "f1", "e1")
        rows = model.action(a, (1, 1))
        assert len(rows) == theta.n
        for z, row in rows.items():
            assert row == model.act(a, z) and len(row) == 1

    def test_cancelled_rows_are_dropped(self, theta):
        # 1 - sum_i s_{e_i} s_{e_i}* acts as zero on every word with an e-letter
        model = GradedActionModel(theta)
        x = Element.unit(theta)
        for i in range(1, theta.m + 1):
            x = x - gen(theta, f"e{i}", f"e{i}")
        assert model.action(x, (1, 0)) == {}
        assert model.action(x, (0, 1)) == {z: {z: ExactScalar.one()}
                                           for z in enumerate_words(theta, (0, 1))}


class TestOracleEqual:
    def test_defect_free_identity(self, theta):
        model = GradedActionModel(theta)
        combo = gen(theta, "e1", "e1")
        for i in range(2, theta.m + 1):
            combo = combo + gen(theta, f"e{i}", f"e{i}")
        assert model.oracle_equal(combo, Element.unit(theta))

    def test_distinguishes(self, theta):
        model = GradedActionModel(theta)
        assert not model.oracle_equal(gen(theta, "e1", "id"), gen(theta, "e2", "id"))

    def test_random_products_match_symbolic(self, theta):
        """The product expansion is exactly the composed action."""
        model = GradedActionModel(theta)
        rng = rng_from_seed(31)
        for _ in range(100):
            t1 = GenTerm(random_word(rng, theta, (2, 2)), random_word(rng, theta, (2, 2)))
            t2 = GenTerm(random_word(rng, theta, (2, 2)), random_word(rng, theta, (2, 2)))
            a = Element(theta, {t1: ExactScalar.one()})
            b = Element(theta, {t2: ExactScalar.one()})
            product = mul(a, b)
            stratum = model._evaluation_stratum(a, b, product)
            for z in model.stratum(stratum):
                composed = {}
                for mid, c1 in model.act(b, z).items():
                    for out, c2 in model.act(a, mid).items():
                        total = composed.get(out, ExactScalar.zero()) + c1 * c2
                        if total.is_zero:
                            composed.pop(out, None)
                        else:
                            composed[out] = total
                assert model.act(product, z) == composed
            assert model.product_agrees(a, b, product)

    def test_product_agrees_rejects_the_wrong_order(self, theta):
        model = GradedActionModel(theta)
        a, b = gen(theta, "e1", "id"), gen(theta, "id", "e1")
        assert model.product_agrees(a, b, mul(a, b))
        assert not model.product_agrees(a, b, mul(b, a))

    def test_product_agrees_reads_only_a_and_the_product_on_the_deepest_draw(
            self, mixed33, monkeypatch):
        # a = S[w;w], b = S[id;w], d(w) = (3, 3): on the evaluation stratum
        # (7, 7) b has 6,561 rows, and a acts on 9 of their images; the
        # composite is built from a's rows, so b's action is never built
        w = Word((1, 2, 3), (3, 1, 2))
        a = Element.gen(mixed33, w, w)
        b = Element.gen(mixed33, EMPTY_WORD, w)
        product = mul(a, b)
        model = GradedActionModel(mixed33)
        acted = []
        action = GradedActionModel.action
        monkeypatch.setattr(GradedActionModel, "action",
                            lambda self, x, degree: acted.append(x) or action(self, x, degree))
        assert model.product_agrees(a, b, product)
        assert not model.product_agrees(a, b, product.scaled(2))
        # an extra term that acts only on rows the composite does not have
        far = Word((1,) * 6, (1,) * 6)
        assert not model.product_agrees(a, b, product + Element.gen(mixed33, far, far))
        assert acted and all(x is not b for x in acted)

    def test_oracle_equal_of_product_terms(self, theta):
        model = GradedActionModel(theta)
        rng = rng_from_seed(32)
        for _ in range(30):
            a = random_element(rng, theta, (1, 1), terms=2)
            b = random_element(rng, theta, (1, 1), terms=2)
            assert model.oracle_equal(mul(a, b), mul(b.adjoint(), a.adjoint()).adjoint())


class TestOracleTrace:
    def test_unit(self, theta):
        model = GradedActionModel(theta)
        assert model.oracle_trace(Element.unit(theta)) == ExactScalar.one()

    def test_rank_one_projection(self, theta):
        model = GradedActionModel(theta)
        got = model.oracle_trace(gen(theta, "e1.f1", "e1.f1"))
        assert got == ExactScalar.rational(Fraction(1, theta.m * theta.n))

    def test_agrees_with_state(self, theta):
        model = GradedActionModel(theta)
        rng = rng_from_seed(33)
        for _ in range(100):
            x = random_core_element(rng, theta, 2, terms=3)
            assert model.oracle_trace(x) == omega(x)

    def test_rejects_non_core(self, theta):
        model = GradedActionModel(theta)
        with pytest.raises(ValueError):
            model.oracle_trace(gen(theta, "e1", "id"))
