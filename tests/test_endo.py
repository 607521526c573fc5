"""Twisted pairs, the pair/endomorphism bijection, composition, examples."""

import sys

import pytest

from twograph import endo
from twograph.algebra import Element, gauge, is_unitary, mul, permutation_unitary
from twograph.cli import main
from twograph.endo import (
    Endomorphism,
    UnitaryPair,
    ad_product_check,
    automorphism_witness_check,
    canonical_endomorphism,
    canonical_endomorphism_apply,
    canonical_pair,
    compose,
    endo_from_pair,
    gallery,
    inner_pair,
    pair_from_generator_map,
    pair_product,
    preserves_subalgebra,
    twisted_check,
)
from twograph.errors import (
    MalformedInput,
    NotAPermutation,
    NotTwisted,
    NotUnitary,
    RelationsViolated,
    ThetaMismatch,
    WrongTheta,
)
from twograph.exprs import parse_expression
from twograph.sampling import random_element, random_unitary, rng_from_seed
from twograph.scalar import ExactScalar
from twograph.semigroup import EMPTY_WORD, Word, enumerate_words, make_theta, word


def gen(theta, u, v):
    return Element.gen(theta, word(theta, u), word(theta, v))


def generator_isometries(theta):
    out = [Element.gen(theta, Word((i,), ()), EMPTY_WORD) for i in range(1, theta.m + 1)]
    out += [Element.gen(theta, Word((), (j,)), EMPTY_WORD) for j in range(1, theta.n + 1)]
    return out


def conjugation_sum(theta, p, q, x):
    """The product definition: sum over d(w) = (p, q) of s_w x s_w*."""
    acc = Element.zero(theta)
    for w in enumerate_words(theta, (p, q)):
        sw = Element.gen(theta, w, EMPTY_WORD)
        acc = acc + mul(mul(sw, x), sw.adjoint())
    return acc.canonicalize()


class TestCanonicalEndomorphismApply:
    @pytest.mark.parametrize("theta", ["flip22", "id23", "mixed23"], indirect=True)
    @pytest.mark.parametrize("pq", [(1, 0), (0, 1), (1, 1), (2, 1)])
    def test_matches_product_definition(self, theta, pq):
        # degree difference (1, 0) at v-degrees (0, 0), (1, 0) and (0, 1):
        # the final canonicalize has to raise all three terms to (1, 1)
        mixed = (gen(theta, "e1", "id") + gen(theta, "e1.e2", "e2").scaled(2)
                 + gen(theta, "e2.f1", "f2").scaled(ExactScalar.imag_unit()))
        assert len(mixed.canonicalize()) > len(mixed)
        rng = rng_from_seed(63)
        for x in [mixed] + [random_element(rng, theta, (1, 1)) for _ in range(3)]:
            got = canonical_endomorphism_apply(theta, *pq, x)
            assert got.terms() == conjugation_sum(theta, *pq, x).terms()

    def test_zero_degree_is_identity(self, theta):
        rng = rng_from_seed(60)
        x = random_element(rng, theta, (2, 2))
        assert canonical_endomorphism_apply(theta, 0, 0, x) == x

    def test_unital(self, theta):
        one = Element.unit(theta)
        assert canonical_endomorphism_apply(theta, 1, 0, one) == one

    def test_shifts_commute(self, theta):
        rng = rng_from_seed(61)
        for _ in range(10):
            x = random_element(rng, theta, (1, 1), terms=2)
            ab = canonical_endomorphism_apply(
                theta, 1, 0, canonical_endomorphism_apply(theta, 0, 1, x)
            )
            ba = canonical_endomorphism_apply(
                theta, 0, 1, canonical_endomorphism_apply(theta, 1, 0, x)
            )
            both = canonical_endomorphism_apply(theta, 1, 1, x)
            assert ab == ba == both


class TestTwistedCheck:
    def test_identity_pair(self, theta):
        ok, residual = twisted_check(Element.unit(theta), Element.unit(theta))
        assert ok and residual is None

    def test_flip_any_unitary(self, flip22):
        u = gen(flip22, "e1", "e2") + gen(flip22, "e2", "e1")
        ok, _ = twisted_check(u, u)
        assert ok

    def test_failure_carries_residual(self, flip22):
        u = gen(flip22, "e1", "e2") + gen(flip22, "e2", "e1")
        ok, residual = twisted_check(u, Element.unit(flip22))
        assert not ok and residual is not None and not residual.is_zero()

    def test_non_unitary_rejected(self, theta):
        ok, residual = twisted_check(gen(theta, "e1", "e1"), Element.unit(theta))
        assert not ok and residual is None

    def test_a_repeated_operand_is_decided_unitary_once(self, flip22, monkeypatch):
        u = gen(flip22, "e1", "e2") + gen(flip22, "e2", "e1")
        calls = []
        monkeypatch.setattr(endo, "is_unitary", lambda x: calls.append(x) or is_unitary(x))
        assert twisted_check(u, u) == (True, None)
        assert calls == [u]

    @pytest.mark.parametrize("name, table, count", [
        ("ex39", "flip", 1), ("ex310", "flip", 1), ("ex311", "identity", 2),
        ("ex312", "flip", 2), ("ex313", "identity", 2),
    ])
    def test_the_gallery_decides_each_operand_unitary_once(self, monkeypatch, name, table, count):
        # unitarity is decided in `UnitaryPair` alone: once for the repeated
        # operand of ex39 and the default ex310, once per operand otherwise
        theta = make_theta(2, 2, table)
        calls = []
        monkeypatch.setattr(endo, "is_unitary", lambda x: calls.append(x) or is_unitary(x))
        gallery(theta, name)
        assert len(calls) == count

    def test_pair_constructor_enforces(self, flip22):
        u = gen(flip22, "e1", "e2") + gen(flip22, "e2", "e1")
        with pytest.raises(NotTwisted, match="; residual "):
            UnitaryPair(u, Element.unit(flip22))

    def test_pair_constructor_rejects_non_unitary(self, theta):
        with pytest.raises(NotTwisted) as info:
            UnitaryPair(gen(theta, "e1", "e1"), Element.unit(theta))
        assert str(info.value) == "pair is not twisted"

    def test_trusted_pair_makes_no_product(self, theta, monkeypatch):
        # the pair holds U and V alone; W is built on each read
        pair = canonical_pair(theta, 1, 0)
        calls = []
        monkeypatch.setattr(endo, "mul", lambda a, b: calls.append(a) or mul(a, b))
        trusted = UnitaryPair._trusted(pair.U, pair.V)
        assert calls == []
        assert trusted.W == pair.W == mul(pair.U, endo.shift_e(pair.V))
        assert len(calls) == 2


class TestCanonicalPairs:
    @pytest.mark.parametrize("pq", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)])
    def test_twisted(self, theta, pq):
        pair = canonical_pair(theta, *pq)
        ok, residual = twisted_check(pair.U, pair.V)
        assert ok, residual

    def test_trivial_pair(self, theta):
        pair = canonical_pair(theta, 0, 0)
        assert pair.U == Element.unit(theta) and pair.V == Element.unit(theta)

    def test_flip_10_shape(self, flip22):
        pair = canonical_pair(flip22, 1, 0)
        expected = Element.zero(flip22)
        for k in (1, 2):
            for i in (1, 2):
                expected = expected + gen(flip22, f"e{k}.e{i}", f"e{i}.e{k}")
        assert pair.U == expected

    def test_matches_canonical_action(self, theta):
        lam = canonical_endomorphism(theta, 1, 0)
        for g in generator_isometries(theta):
            assert lam.apply(g) == canonical_endomorphism_apply(theta, 1, 0, g)

    def test_intertwining_relation(self, theta):
        rng = rng_from_seed(62)
        for p, q in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            lam = canonical_endomorphism(theta, p, q)
            words = enumerate_words(theta, (p, q))
            for _ in range(5):
                x = random_element(rng, theta, (1, 1), terms=2)
                w = rng.choice(words)
                sw = Element.gen(theta, w, EMPTY_WORD)
                assert mul(lam.apply(x), sw) == mul(sw, x)


class TestEndomorphism:
    def test_identity(self, theta):
        lam = Endomorphism.identity(theta)
        rng = rng_from_seed(63)
        x = random_element(rng, theta, (2, 2))
        assert lam.apply(x) == x

    def test_homomorphism_laws(self, theta):
        rng = rng_from_seed(64)
        lam = canonical_endomorphism(theta, 1, 1)
        one = Element.unit(theta)
        assert lam.apply(one) == one
        for _ in range(10):
            x = random_element(rng, theta, (1, 1), terms=2)
            y = random_element(rng, theta, (1, 1), terms=2)
            assert lam.apply(mul(x, y)) == mul(lam.apply(x), lam.apply(y))
            assert lam.apply(x.adjoint()) == lam.apply(x).adjoint()

    def test_round_trip_canonical(self, theta):
        for pq in [(1, 0), (0, 1), (1, 1)]:
            pair = canonical_pair(theta, *pq)
            lam = Endomorphism(pair)
            e_imgs, f_imgs = lam.generator_images()
            assert pair_from_generator_map(theta, e_imgs, f_imgs).equals(pair)

    def test_letter_images_are_made_on_first_read(self, theta, monkeypatch):
        # the pair is the whole datum: construction makes no product, and
        # each letter image U s_{e_i} or V s_{f_j} is made once, when read
        pair = canonical_pair(theta, 1, 1)
        calls = []
        monkeypatch.setattr(endo, "mul", lambda a, b: calls.append(a) or mul(a, b))
        lam = Endomorphism(pair)
        assert calls == []
        e_imgs, f_imgs = lam.generator_images()
        assert len(calls) == theta.m + theta.n
        again = lam.generator_images()
        assert again == (e_imgs, f_imgs) and again[0] is not e_imgs
        assert len(calls) == theta.m + theta.n
        for i, img in e_imgs.items():
            assert img == mul(pair.U, Element.gen(theta, Word((i,), ()), EMPTY_WORD))
        for j, img in f_imgs.items():
            assert img == mul(pair.V, Element.gen(theta, Word((), (j,)), EMPTY_WORD))

    def test_generator_map_decides_unitarity_once(self, theta, monkeypatch):
        # its relation check already makes the assembled pair twisted, so
        # only its own two unitarity checks run
        pair = canonical_pair(theta, 1, 0)
        e_imgs, f_imgs = Endomorphism(pair).generator_images()
        calls = []
        monkeypatch.setattr(endo, "is_unitary", lambda x: calls.append(x) or is_unitary(x))
        assert pair_from_generator_map(theta, e_imgs, f_imgs).equals(pair)
        assert len(calls) == 2

    def test_round_trip_random_inner(self, theta):
        rng = rng_from_seed(65)
        for _ in range(5):
            pair = inner_pair(random_unitary(rng, theta))
            lam = Endomorphism(pair)
            e_imgs, f_imgs = lam.generator_images()
            assert pair_from_generator_map(theta, e_imgs, f_imgs).equals(pair)

    def test_word_image_of_a_word_longer_than_the_recursion_limit(self, flip22):
        # built leftward from the longest cached suffix, without recursion
        letters = sys.getrecursionlimit() + 100
        long_word = Word((1,) * letters, (2,))
        assert Endomorphism.identity(flip22).word_image(long_word) == Element.gen(
            flip22, long_word, EMPTY_WORD)
        lam, fresh = (Endomorphism(canonical_pair(flip22, 1, 0)) for _ in range(2))
        head, tail = Word((1,) * (letters - 1), ()), Word((1,), (2,))
        assert lam.word_image(long_word) == mul(fresh.word_image(head), fresh.word_image(tail))

    def test_bad_generator_map_rejected(self, theta):
        e_imgs = {i: Element.gen(theta, Word((1,), ()), EMPTY_WORD)
                  for i in range(1, theta.m + 1)}
        f_imgs = {j: Element.gen(theta, Word((), (1,)), EMPTY_WORD)
                  for j in range(1, theta.n + 1)}
        with pytest.raises(RelationsViolated):
            pair_from_generator_map(theta, e_imgs, f_imgs)


class TestCompose:
    def test_identity_neutral(self, theta):
        lam = canonical_endomorphism(theta, 1, 0)
        composed = compose(Endomorphism.identity(theta), lam)
        assert composed.equals(lam.pair)

    def test_shift_composition(self, theta):
        composed = compose(
            canonical_endomorphism(theta, 1, 0), canonical_endomorphism(theta, 0, 1)
        )
        assert composed.equals(canonical_pair(theta, 1, 1))

    def test_agreement_on_generators(self, theta):
        rng = rng_from_seed(66)
        lam1 = Endomorphism(inner_pair(random_unitary(rng, theta)))
        lam2 = canonical_endomorphism(theta, 0, 1)
        composed = Endomorphism(compose(lam2, lam1))
        for g in generator_isometries(theta):
            assert composed.apply(g) == lam2.apply(lam1.apply(g))

    def test_pair_product_associative(self, theta):
        rng = rng_from_seed(67)
        p1 = canonical_pair(theta, 1, 0)
        p2 = inner_pair(random_unitary(rng, theta))
        p3 = canonical_pair(theta, 0, 1)
        lhs = pair_product(pair_product(p3, p2), p1)
        rhs = pair_product(p3, pair_product(p2, p1))
        assert lhs.equals(rhs)


class TestInnerPair:
    def test_scalar_gives_identity_pair(self, theta):
        w = Element.unit(theta).scaled(ExactScalar.imag_unit())
        pair = inner_pair(w)
        assert pair.equals(UnitaryPair.identity(theta))

    def test_reproduces_conjugation(self, theta):
        rng = rng_from_seed(68)
        for _ in range(8):
            w = random_unitary(rng, theta)
            lam = Endomorphism(inner_pair(w))
            w_star = w.adjoint()
            for g in generator_isometries(theta):
                assert lam.apply(g) == mul(mul(w, g), w_star)

    def test_requires_unitary(self, theta):
        with pytest.raises(NotUnitary):
            inner_pair(gen(theta, "e1", "e1"))

    def test_passes_twisted_check(self, theta):
        rng = rng_from_seed(69)
        for _ in range(5):
            pair = inner_pair(random_unitary(rng, theta))
            ok, _ = twisted_check(pair.U, pair.V)
            assert ok


class TestWitnessCheck:
    def test_identity_witnesses(self, theta):
        lam = Endomorphism.identity(theta)
        one = Element.unit(theta)
        assert automorphism_witness_check(lam, one, one)

    def test_involution_witnesses(self, flip22):
        pair = gallery(flip22, "ex312")
        lam = Endomorphism(pair)
        # the pair itself witnesses invertibility since lam ** 2 = id
        assert automorphism_witness_check(lam, lam.apply(pair.U.adjoint()),
                                          lam.apply(pair.V.adjoint()))

    def test_shift_has_no_trivial_witness(self, theta):
        lam = canonical_endomorphism(theta, 1, 0)
        one = Element.unit(theta)
        assert not automorphism_witness_check(lam, one, one)


def count_apply(monkeypatch):
    """Record every `Endomorphism.apply` call, subclasses included."""
    calls = []
    original = Endomorphism.apply

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(Endomorphism, "apply", counting)
    return calls


class NegatedImage(Endomorphism):
    """A genuine endomorphism's word images with one of them negated."""

    def __init__(self, pair, negated):
        super().__init__(pair)
        self.genuine = Endomorphism(pair)
        self.negated = negated

    def word_image(self, w):
        img = self.genuine.word_image(w)
        return -img if w == self.negated else img


class TestAdProductCheck:
    @pytest.mark.parametrize("theta", ["flip22", "id23", "mixed23"], indirect=True)
    def test_pair_endomorphisms_need_no_generator_products(self, theta, flip22, monkeypatch):
        lams = [canonical_endomorphism(theta, 1, 1), Endomorphism.identity(theta)]
        if theta == flip22:
            lams.append(Endomorphism(gallery(flip22, "ex312")))
        calls = count_apply(monkeypatch)
        for lam in lams:
            assert ad_product_check(lam, 2)
        assert calls == []

    @pytest.mark.parametrize("k", [1, 2])
    def test_negated_word_image_fails(self, theta, k):
        words = enumerate_words(theta, (k, k))
        lam = NegatedImage(canonical_pair(theta, 1, 0), words[-1])
        assert not ad_product_check(lam, k)

    def test_identity_all_levels(self, theta):
        lam = Endomorphism.identity(theta)
        assert ad_product_check(lam, 1) and ad_product_check(lam, 2)

    def test_level_one_is_conjugation_by_w(self, theta):
        rng = rng_from_seed(70)
        pair = inner_pair(random_unitary(rng, theta))
        lam = Endomorphism(pair)
        w = pair.W
        for u in enumerate_words(theta, (1, 1)):
            for v in enumerate_words(theta, (1, 1)):
                x = Element.gen(theta, u, v)
                assert lam.apply(x) == mul(mul(w, x), w.adjoint())
        assert ad_product_check(lam, 1)

    def test_canonical_pair(self, theta):
        lam = canonical_endomorphism(theta, 1, 1)
        assert ad_product_check(lam, 1)

    def test_canonical_pair_at_level_two_on_a_wide_table(self, shuffled10x3):
        # 900 words of degree (2, 2) and a cascade unitary of 27,000 terms:
        # decided as one identity, with no product against P per word
        assert ad_product_check(canonical_endomorphism(shuffled10x3, 1, 1), 2)

    def test_rejects_bad_level(self, theta):
        with pytest.raises(ValueError):
            ad_product_check(Endomorphism.identity(theta), 0)


class TestPreservesSubalgebra:
    def test_identity(self, theta):
        lam = Endomorphism.identity(theta)
        assert preserves_subalgebra(lam, "core", 1)
        assert preserves_subalgebra(lam, "diagonal", 1)

    def test_canonical_pair_core(self, theta):
        lam = canonical_endomorphism(theta, 1, 1)
        assert preserves_subalgebra(lam, "core", 1)

    def test_mixing_pair_core_fixture(self, flip22):
        # regression fixture: the mixing pair acts trivially on the core
        lam = Endomorphism(gallery(flip22, "ex312"))
        assert preserves_subalgebra(lam, "core", 1)
        assert preserves_subalgebra(lam, "diagonal", 1)

    @pytest.mark.parametrize("theta", ["id22", "flip22"], indirect=True)
    def test_hadamard_conjugation_keeps_the_core_but_not_the_diagonal(self, theta):
        # H mixes e1 and e2 in degree (0, 0), so Ad H maps the core to
        # itself but sends a diagonal projection to off-diagonal terms
        h = parse_expression("2^(-1/2)*(S[e1;e1]+S[e1;e2]+S[e2;e1]-S[e2;e2])", theta)
        lam = Endomorphism(inner_pair(h))
        assert preserves_subalgebra(lam, "core", 1)
        assert not preserves_subalgebra(lam, "diagonal", 1)

    def test_rejects_unknown(self, theta):
        with pytest.raises(ValueError):
            preserves_subalgebra(Endomorphism.identity(theta), "masa", 1)


class TestGallery:
    def test_ex312_images(self, flip22):
        lam = Endomorphism(gallery(flip22, "ex312"))
        for i in (1, 2):
            assert lam.apply(gen(flip22, f"e{i}", "id")) == gen(flip22, f"f{i}", "id")
            assert lam.apply(gen(flip22, f"f{i}", "id")) == gen(flip22, f"e{i}", "id")

    def test_ex312_involution_and_centrality(self, flip22):
        pair = gallery(flip22, "ex312")
        lam = Endomorphism(pair)
        for g in generator_isometries(flip22):
            assert lam.apply(lam.apply(g)) == g
            assert mul(pair.U, g) == mul(g, pair.U)

    def test_ex312_derived_unitary_is_unit(self, flip22):
        assert gallery(flip22, "ex312").W == Element.unit(flip22)

    def test_ex312_needs_flip(self, id23):
        with pytest.raises(WrongTheta):
            gallery(id23, "ex312")

    def test_ex313(self, id22):
        pair = gallery(id22, "ex313")
        ok, _ = twisted_check(pair.U, pair.V)
        assert ok

    def test_ex313_needs_identity_square(self, flip22, id23):
        with pytest.raises(WrongTheta):
            gallery(flip22, "ex313")
        with pytest.raises(WrongTheta):
            gallery(id23, "ex313")

    def test_ex39_random_unitaries(self, flip22):
        rng = rng_from_seed(71)
        for _ in range(10):
            u = random_unitary(rng, flip22)
            pair = gallery(flip22, "ex39", u=u)
            assert pair.U == u and pair.V == u

    def test_ex39_commutant_criterion_both_ways(self, flip22, id22):
        """(U, U) is twisted iff U commutes with every s_{f_j}* s_{e_i}."""
        rng = rng_from_seed(72)
        for theta in (flip22, id22):
            commutant = [
                mul(Element.gen(theta, EMPTY_WORD, Word((), (j,))),
                    Element.gen(theta, Word((i,), ()), EMPTY_WORD))
                for i in range(1, theta.m + 1)
                for j in range(1, theta.n + 1)
            ]
            seen = {True: 0, False: 0}
            for _ in range(12):
                u = random_unitary(rng, theta)
                twisted, _ = twisted_check(u, u)
                commutes = all((mul(u, c) - mul(c, u)).is_zero() for c in commutant)
                assert twisted == commutes
                seen[twisted] += 1
            if theta is flip22:
                assert seen[False] == 0  # flip admits every unitary
            else:
                assert seen[False] > 0  # identity table rejects some

    def test_ex310_central_scalars(self, theta):
        scalar = Element.unit(theta).scaled(ExactScalar.imag_unit())
        pair = gallery(theta, "ex310", u=scalar, v=scalar)
        ok, _ = twisted_check(pair.U, pair.V)
        assert ok

    def test_ex310_rejects_bad_hypotheses(self, flip22):
        u = gen(flip22, "e1", "e2") + gen(flip22, "e2", "e1")
        with pytest.raises(WrongTheta):
            gallery(flip22, "ex310", u=u, v=Element.unit(flip22))

    def test_ex311_tensor_pair(self, id23):
        pair = gallery(id23, "ex311")
        ok, _ = twisted_check(pair.U, pair.V)
        assert ok

    def test_ex311_needs_identity(self, flip22):
        with pytest.raises(WrongTheta):
            gallery(flip22, "ex311")

    def test_unknown_name(self, theta):
        with pytest.raises(WrongTheta):
            gallery(theta, "ex999")


class TestGaugeConjugation:
    def test_pair_transforms_covariantly(self, theta):
        rng = rng_from_seed(73)
        i = ExactScalar.imag_unit()
        t = (i, i.conjugate())
        t_inv = (i.conjugate(), i)
        for _ in range(4):
            pair = inner_pair(random_unitary(rng, theta))
            lam = Endomorphism(pair)
            conjugated = UnitaryPair(gauge(pair.U, t), gauge(pair.V, t))
            lam_conj = Endomorphism(conjugated)
            for g in generator_isometries(theta):
                lhs = gauge(lam.apply(gauge(g, t_inv)), t)
                assert lhs == lam_conj.apply(g)


def test_endo_from_pair_matches_constructor(flip22):
    u = gen(flip22, "e1", "e2") + gen(flip22, "e2", "e1")
    lam = endo_from_pair(u, u)
    assert lam.apply(gen(flip22, "e1", "id")) == mul(u, gen(flip22, "e1", "id"))


def test_flip_conjugation_pair_components_coincide(flip22):
    """On the flip table the two shifts agree on every element, so the two
    components of a conjugation pair are the same unitary."""
    from twograph.endo import shift_e, shift_f

    rng = rng_from_seed(74)
    for _ in range(8):
        w = random_unitary(rng, flip22)
        assert shift_e(w) == shift_f(w)
        pair = inner_pair(w)
        assert pair.U == pair.V


def _flipflop(theta):
    return permutation_unitary(theta, (1, 0), [1, 0])


def _exit_code(argv):
    """Run the command line and raise its exit code as SystemExit."""
    raise SystemExit(main(argv))


# each refusal as (call on flip 2x2 and identity 2x3, its error, its text)
REFUSALS = {
    "ex39-non-unitary": (
        lambda flip, other: gallery(flip, "ex39", u=gen(flip, "e1", "e1")),
        NotTwisted, "pair is not twisted"),
    "ex310-u-and-v-do-not-commute": (
        lambda flip, other: gallery(flip, "ex310", u=_flipflop(flip),
                                    v=permutation_unitary(flip, (1, 0), phases=[(1, 0), (-1, 0)])),
        WrongTheta, "U and V do not commute"),
    "ex310-v-does-not-commute-with-e1": (
        lambda flip, other: gallery(flip, "ex310", u=Element.unit(flip), v=_flipflop(flip)),
        WrongTheta, "V does not commute with the e1 isometry"),
    "canonical-apply-other-table": (
        lambda flip, other: canonical_endomorphism_apply(flip, 1, 0, Element.unit(other)),
        ThetaMismatch, "element lives over a different table"),
    "endomorphism-apply-other-table": (
        lambda flip, other: Endomorphism.identity(flip).apply(Element.unit(other)),
        ThetaMismatch, "element lives over a different table"),
    "compose-other-table": (
        lambda flip, other: compose(Endomorphism.identity(flip), Endomorphism.identity(other)),
        ThetaMismatch, "endomorphisms live over different tables"),
    "preserves-core-level-0": (
        lambda flip, other: preserves_subalgebra(Endomorphism.identity(flip), "core", 0),
        MalformedInput, "level must be >= 1"),
    "permutation-unitary-phase-count": (
        lambda flip, other: permutation_unitary(flip, (1, 0), phases=[(1, 0)]),
        NotAPermutation, "expected 2 phases, got 1"),
    "cli-negative-canonical-degree": (
        lambda flip, other: _exit_code(["endo", "apply", "canonical(-1,0)", "I"]),
        SystemExit, "^2$"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_raises_its_error(case, flip22, id23, capsys):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call(flip22, id23)
    captured = capsys.readouterr()
    # the command line names its refusal in one `error:` line and nothing else
    expected = "error: degree must be nonnegative, got (-1, 0)\n" if error is SystemExit else ""
    assert (captured.out, captured.err) == ("", expected)
