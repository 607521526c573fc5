"""Generator algebra: product, involution, canonical form, predicates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twograph import algebra, endo, modular, semigroup
from twograph.algebra import (
    Element,
    GenTerm,
    _accumulate,
    degree_component,
    gauge,
    in_subalgebra,
    is_unitary,
    mul,
    permutation_unitary,
    raise_level,
)
from twograph.errors import (
    MalformedInput,
    NotAPermutation,
    NotUnitModulus,
    ThetaMismatch,
    TwoGraphError,
)
from twograph.sampling import (
    random_element,
    random_letters,
    random_unitary,
    random_word,
    rng_from_seed,
)
from twograph.scalar import ExactScalar, power_of_base
from twograph.semigroup import (
    EMPTY_WORD,
    Word,
    common_extensions,
    concat,
    deg_sub,
    enumerate_words,
    factor_at,
    make_theta,
    normal_form,
    prefix_at,
    word,
)

from conftest import random_theta


def gen(theta, u, v, coeff=None):
    return Element.gen(theta, word(theta, u), word(theta, v), coeff)


def all_pairs_mul(a, b):
    """The product by the all-pairs loop: every (left, right) term pair is
    sent to the common-extension cache, with no index to skip the pairs
    that cannot meet."""
    theta = a.theta
    acc = {}
    for t1, c1 in a._terms.items():
        for t2, c2 in b._terms.items():
            for w1, w2 in common_extensions(theta, t2.u, t1.v):
                _accumulate(
                    acc, GenTerm(concat(theta, t1.u, w1), concat(theta, t2.v, w2)), c1 * c2
                )
    return Element(theta, acc).canonicalize()


@pytest.fixture
def lookups(monkeypatch):
    """The (u, v) of every common-extension lookup that `mul` makes."""
    original = algebra._common_extensions_cached
    seen = []

    def counting_lookup(th, u, v):
        seen.append((str(u), str(v)))
        return original(th, u, v)

    monkeypatch.setattr(algebra, "_common_extensions_cached", counting_lookup)
    return seen


@st.composite
def random_operand(draw, theta):
    """An element whose terms take their degrees from a palette of one to
    three degrees in the (2, 2) box, so that a degree class of the right
    operand holds one term or several, and the degrees of v1 and u2 are often
    incomparable (their meet lies strictly below both)."""
    box = st.tuples(st.integers(0, 2), st.integers(0, 2))
    palette = draw(st.lists(box, min_size=1, max_size=3))

    def draw_word():
        a, b = draw(st.sampled_from(palette))
        return Word(tuple(draw(st.integers(1, theta.m)) for _ in range(a)),
                    tuple(draw(st.integers(1, theta.n)) for _ in range(b)))

    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        re, im = draw(st.integers(-2, 2)), draw(st.integers(-1, 1))
        _accumulate(terms, GenTerm(draw_word(), draw_word()), ExactScalar.gaussian(re, im))
    return Element(theta, terms)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_term_degree_is_the_difference_of_word_degrees(data):
    theta = data.draw(random_theta())

    def draw_word():
        a, b = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        return Word(tuple(data.draw(st.integers(1, theta.m)) for _ in range(a)),
                    tuple(data.draw(st.integers(1, theta.n)) for _ in range(b)))

    u, v = draw_word(), draw_word()
    assert GenTerm(u, v).degree == deg_sub(u.degree, v.degree)


class TestMul:
    def test_concatenation_case(self, theta):
        assert mul(gen(theta, "e1", "id"), gen(theta, "id", "e1")) == gen(theta, "e1", "e1")

    def test_orthogonal_ranges(self, theta):
        assert mul(gen(theta, "id", "e2"), gen(theta, "e1", "id")).is_zero()

    def test_flip_mixing_product(self, flip22):
        got = mul(gen(flip22, "id", "f1"), gen(flip22, "e1", "id"))
        assert got == gen(flip22, "e1", "f1") + gen(flip22, "e2", "f2")

    def test_multiplies_only_pairs_that_meet(self, theta, monkeypatch):
        # s_e1 s_e1* s_e1 = s_e1 meets; s_e2 s_e2* s_e1 = 0 does not
        a = gen(theta, "e1", "e1") + gen(theta, "e2", "e2")
        b = gen(theta, "e1", "id")
        original = ExactScalar.__mul__
        calls = []

        def counting_mul(x, y):
            calls.append((x, y))
            return original(x, y)

        monkeypatch.setattr(ExactScalar, "__mul__", counting_mul)
        product = mul(a, b)
        monkeypatch.undo()
        assert len(calls) == 1
        assert product == b

    def test_scans_only_the_bucket_of_the_meet_prefix(self, theta, lookups):
        # s_e1* s_e1 = 1 meets; s_e1* s_e2 = 0 has the prefix e2 at the meet (1, 0)
        product = mul(gen(theta, "id", "e1"), gen(theta, "e1", "id") + gen(theta, "e2", "id"))
        assert lookups == [("e1", "e1")]
        assert product == Element.unit(theta)

    def test_incomparable_degrees_share_the_empty_prefix(self, theta, lookups):
        # d(e1) ^ d(f_j) = (0, 0): every f_j is in the one bucket and is decided
        right = gen(theta, "f1", "id") + gen(theta, "f2", "id")
        product = mul(gen(theta, "id", "e1"), right)
        assert lookups == [("f1", "e1"), ("f2", "e1")]
        assert product == all_pairs_mul(gen(theta, "id", "e1"), right)

    @pytest.mark.parametrize("theta", ["flip22", "id23", "mixed23"], indirect=True)
    def test_every_pair_of_degrees_matches_all_pairs(self, theta):
        # four random words per degree of the (2, 2) box on each side, so every
        # (d(v1), d(u2)) combination, comparable or not, meets in one product;
        # the right operand's degree classes interleave
        rng = random.Random(31)
        box = [(a, b) for a in range(3) for b in range(3)]

        def words():
            out = [Word(tuple(rng.randint(1, theta.m) for _ in range(a)),
                        tuple(rng.randint(1, theta.n) for _ in range(b)))
                   for a, b in box for _ in range(4)]
            rng.shuffle(out)
            return out

        left = Element(theta, {GenTerm(EMPTY_WORD, v): ExactScalar.rational(k + 1)
                               for k, v in enumerate(words())})
        right = Element(theta, {GenTerm(u, EMPTY_WORD): ExactScalar.gaussian(1, k)
                                for k, u in enumerate(words())})
        got, expected = mul(left, right), all_pairs_mul(left, right)
        assert got._terms == expected._terms
        assert not got.is_empty

    @pytest.mark.parametrize("theta", ["flip22", "id23", "mixed23"], indirect=True)
    def test_term_order_of_the_right_operand_carries_no_meaning(self, theta):
        # b' holds b's terms in reverse order: the product has the same terms
        # with the same coefficients, and prints the same
        rng = rng_from_seed(29)
        nonempty = 0
        for _ in range(20):
            a, b = (random_element(rng, theta, (2, 2), terms=6) for _ in range(2))
            b_rev = Element._of(theta, dict(reversed(b._terms.items())))
            assert b_rev._terms == b._terms and list(b_rev._terms) != list(b._terms)
            got, rev = mul(a, b), mul(a, b_rev)
            assert got._terms == rev._terms and str(got) == str(rev)
            nonempty += not got.is_empty
        assert nonempty

    @pytest.mark.parametrize("theta", ["flip22", "id23", "mixed23"], indirect=True)
    def test_joins_each_nonempty_extension_block_once(self, theta, monkeypatch):
        # a pair that meets joins u1.w1 and v2.w2, and an empty block leaves
        # its word as it stands; canonicalize (which also joins) is held off
        rng = rng_from_seed(17)
        pairs = [(random_element(rng, theta, (2, 2), terms=4),
                  random_element(rng, theta, (2, 2), terms=4)) for _ in range(30)]
        expected = sum((w1 != EMPTY_WORD) + (w2 != EMPTY_WORD)
                       for a, b in pairs for t1 in a._terms for t2 in b._terms
                       for w1, w2 in common_extensions(theta, t2.u, t1.v))
        joins = []
        original = algebra.concat

        def counting_concat(th, w1, w2):
            joins.append(w2)
            return original(th, w1, w2)

        monkeypatch.setattr(algebra, "concat", counting_concat)
        monkeypatch.setattr(Element, "canonicalize", lambda self: self)
        for a, b in pairs:
            mul(a, b)
        assert len(joins) == expected > 0
        assert EMPTY_WORD not in joins

    def test_theta_mismatch(self, flip22, id22):
        with pytest.raises(ThetaMismatch):
            mul(Element.unit(flip22), Element.unit(id22))

    def test_zero_absorbs(self, theta):
        zero = Element.zero(theta)
        a = gen(theta, "e1", "f1")
        assert mul(zero, a).is_zero() and mul(a, zero).is_zero()

    def test_associativity_random(self, theta):
        rng = rng_from_seed(20)
        for _ in range(40):
            a = random_element(rng, theta, (2, 2))
            b = random_element(rng, theta, (2, 2))
            c = random_element(rng, theta, (2, 2))
            assert (mul(mul(a, b), c) - mul(a, mul(b, c))).is_zero()

    def test_unit_two_sided(self, theta):
        rng = rng_from_seed(21)
        one = Element.unit(theta)
        for _ in range(20):
            a = random_element(rng, theta, (2, 2))
            assert mul(one, a) == a and mul(a, one) == a


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_meet_index_matches_all_pairs_on_random_tables(data):
    """The indexed product and the all-pairs loop give the same terms with
    the same coefficients (term order carries no meaning)."""
    theta = data.draw(random_theta())
    a, b = data.draw(random_operand(theta)), data.draw(random_operand(theta))
    got, expected = mul(a, b), all_pairs_mul(a, b)
    assert got._terms == expected._terms
    # again with the table's prefix memo warm from both products
    mul(b, a)
    assert mul(a, b)._terms == expected._terms


class TestPrefixMemo:
    """`mul` reads the prefixes that need the kernel through a memo on the
    table; each table starts with an empty one and keeps it bounded."""

    @staticmethod
    def operands(theta):
        rng = rng_from_seed(5)
        return [random_element(rng, theta, (2, 2), terms=8) for _ in range(3)]

    @pytest.fixture
    def kernel_splits(self, monkeypatch):
        """The (word, meet) of every split that `prefix_at` sends to `factor_at`."""
        original = semigroup.factor_at
        seen = []

        def counting_factor_at(th, w, delta):
            seen.append((w, delta))
            return original(th, w, delta)

        monkeypatch.setattr(semigroup, "factor_at", counting_factor_at)
        return seen

    def test_kernel_runs_once_per_key(self, kernel_splits):
        theta = make_theta(2, 3, "identity")
        a, b, c = self.operands(theta)
        mul(a, b)
        first = list(kernel_splits)
        assert first and len(set(first)) == len(first)
        assert len(theta._prefixes) == len(first)
        mul(a, b)
        assert kernel_splits == first
        mul(c, a)
        later = kernel_splits[len(first):]
        assert later and len(set(later)) == len(later)
        assert not set(later) & set(first)

    def test_an_equal_table_starts_empty(self):
        warm = make_theta(2, 2, "flip")
        a, b, _ = self.operands(warm)
        mul(a, b)
        cold = make_theta(2, 2, "flip")
        assert cold == warm and warm._prefixes and not cold._prefixes

    def test_memo_stays_within_its_bound(self, monkeypatch):
        unbounded = make_theta(2, 3, "identity")
        a, b, c = self.operands(unbounded)
        for x, y in ((a, b), (b, c), (c, a)):
            mul(x, y)
        assert len(unbounded._prefixes) > 3
        monkeypatch.setattr(semigroup, "_CACHE_ENTRIES", 3)
        theta = make_theta(2, 3, "identity")
        a, b, c = self.operands(theta)
        for x, y in ((a, b), (b, c), (c, a)):
            got = mul(x, y)
            assert len(theta._prefixes) <= 3
            assert got._terms == all_pairs_mul(x, y)._terms
        assert len(theta._prefixes) == 3


class TestAdjoint:
    def test_swaps_words(self, theta):
        assert gen(theta, "e1", "f2").adjoint() == gen(theta, "f2", "e1")

    def test_conjugates_coefficients(self, theta):
        a = Element.unit(theta).scaled(ExactScalar.gaussian(1, 1))
        assert a.adjoint() == Element.unit(theta).scaled(ExactScalar.gaussian(1, -1))

    def test_involution_random(self, theta):
        rng = rng_from_seed(22)
        for _ in range(20):
            a = random_element(rng, theta, (2, 2))
            assert a.adjoint().adjoint() == a

    def test_anti_multiplicative(self, theta):
        rng = rng_from_seed(23)
        for _ in range(20):
            a = random_element(rng, theta, (2, 2))
            b = random_element(rng, theta, (2, 2))
            assert mul(a, b).adjoint() == mul(b.adjoint(), a.adjoint())


class TestRaiseLevel:
    def test_defect_free_diagonal(self, flip22):
        t = GenTerm(word(flip22, "e1"), word(flip22, "e1"))
        got = raise_level(flip22, t, (0, 1))
        assert got == gen(flip22, "e1.f1", "e1.f1") + gen(flip22, "e1.f2", "e1.f2")

    def test_unit_raises_to_defect_free_sum(self, theta):
        t = GenTerm(EMPTY_WORD, EMPTY_WORD)
        got = raise_level(theta, t, (1, 0))
        expected = sum(
            (gen(theta, f"e{i}", f"e{i}") for i in range(2, theta.m + 1)),
            gen(theta, "e1", "e1"),
        )
        assert got == expected == Element.unit(theta)

    def test_zero_delta_is_identity(self, theta):
        t = GenTerm(word(theta, "e1"), word(theta, "f1"))
        assert raise_level(theta, t, (0, 0)) == Element.gen(theta, t.u, t.v)

    def test_equality_invariant(self, theta):
        rng = rng_from_seed(24)
        for _ in range(20):
            a = random_element(rng, theta, (1, 1), terms=2)
            for t, c in a.terms().items():
                assert raise_level(theta, t, (1, 1)).scaled(c) == Element(
                    theta, {t: c}
                )


class TestCanonicalize:
    def test_defect_free_collapse(self, theta):
        combo = gen(theta, "e1", "e1")
        for i in range(2, theta.m + 1):
            combo = combo + gen(theta, f"e{i}", f"e{i}")
        assert (combo - Element.unit(theta)).canonicalize().is_empty

    def test_flip_identity_collapses(self, flip22):
        lhs = mul(gen(flip22, "id", "f1"), gen(flip22, "e1", "id"))
        rhs = gen(flip22, "e1", "f1") + gen(flip22, "e2", "f2")
        assert (lhs - rhs).canonicalize().is_empty

    def test_idempotent(self, theta):
        rng = rng_from_seed(25)
        for _ in range(20):
            a = random_element(rng, theta, (2, 2)).canonicalize()
            assert a.canonicalize() is a


class TestDegreeComponent:
    def test_picks_degree(self, theta):
        a = gen(theta, "e1", "id") + gen(theta, "e1", "f1")
        assert degree_component(a, (1, 0)) == gen(theta, "e1", "id")

    def test_core_fixed(self, theta):
        x = gen(theta, "e1.f1", "e2.f1")
        assert degree_component(x, (0, 0)) == x

    def test_kills_off_degree(self, theta):
        assert degree_component(gen(theta, "e1", "id"), (0, 0)).is_zero()

    def test_product_rule(self, theta):
        rng = rng_from_seed(26)
        from twograph.algebra import support_degrees
        from twograph.semigroup import deg_sub

        for _ in range(15):
            a = random_element(rng, theta, (1, 1), terms=2)
            b = random_element(rng, theta, (1, 1), terms=2)
            product = mul(a, b)
            deltas = {
                (da[0] + db[0], da[1] + db[1])
                for da in support_degrees(a)
                for db in support_degrees(b)
            }
            for delta in deltas:
                rhs = Element.zero(theta)
                for da in support_degrees(a):
                    rhs = rhs + mul(
                        degree_component(a, da),
                        degree_component(b, deg_sub(delta, da)),
                    )
                assert degree_component(product, delta) == rhs


class TestGauge:
    def test_scales_by_degree(self, theta):
        i = ExactScalar.imag_unit()
        got = gauge(gen(theta, "e1", "f1"), (i, ExactScalar.one()))
        assert got == gen(theta, "e1", "f1").scaled(i)

    def test_fixes_core(self, theta):
        x = gen(theta, "e1.f1", "e2.f1")
        assert gauge(x, (ExactScalar.imag_unit(), ExactScalar.gaussian(0, -1))) == x

    def test_square_of_sign_flip(self, theta):
        rng = rng_from_seed(27)
        minus = ExactScalar.rational(-1)
        for _ in range(10):
            a = random_element(rng, theta, (2, 2))
            once = gauge(a, (minus, ExactScalar.one()))
            assert gauge(once, (minus, ExactScalar.one())) == a

    def test_rejects_non_unit(self, theta):
        with pytest.raises(NotUnitModulus):
            gauge(Element.unit(theta), (ExactScalar.rational(2), ExactScalar.one()))

    def test_pythagorean_point(self, theta):
        t = ExactScalar.gaussian(Fraction(3, 5), Fraction(4, 5))
        a = gen(theta, "e1", "id")
        assert gauge(a, (t, ExactScalar.one())) == a.scaled(t)


class TestIsUnitary:
    def test_unit(self, theta):
        assert is_unitary(Element.unit(theta))

    def test_flip_flop(self, theta):
        assert is_unitary(gen(theta, "e1", "e2") + gen(theta, "e2", "e1"))

    def test_proper_projection(self, theta):
        assert not is_unitary(gen(theta, "e1", "e1"))


class TestMembership:
    def test_diagonal_generator(self, theta):
        x = gen(theta, "e1.f1", "e1.f1")
        assert in_subalgebra(x, "diagonal", 1)
        assert in_subalgebra(x, "core", 1)

    def test_core_not_diagonal(self, theta):
        x = gen(theta, "e1.f1", "e2.f1")
        assert in_subalgebra(x, "core", 1)
        assert not in_subalgebra(x, "diagonal", 1)

    def test_nonzero_degree_in_neither(self, theta):
        x = gen(theta, "e1", "id")
        assert not in_subalgebra(x, "core")
        assert not in_subalgebra(x, "diagonal")

    def test_level_bound(self, theta):
        x = gen(theta, "e1.e2.f1", "e1.e2.f1")
        assert in_subalgebra(x, "diagonal", 2)
        assert not in_subalgebra(x, "diagonal", 1)

    def test_unit_is_diagonal(self, theta):
        assert in_subalgebra(Element.unit(theta), "diagonal", 1)

    def test_rejects_unknown(self, theta):
        with pytest.raises(ValueError):
            in_subalgebra(Element.unit(theta), "masa")


class TestPermutationUnitary:
    def test_swap_on_edges(self, theta):
        perm = list(range(theta.m))
        perm[0], perm[1] = perm[1], perm[0]
        got = permutation_unitary(theta, (1, 0), perm)
        expected = gen(theta, "e1", "e2") + gen(theta, "e2", "e1")
        for i in range(3, theta.m + 1):
            expected = expected + gen(theta, f"e{i}", f"e{i}")
        assert got == expected

    def test_trivial_degree(self, theta):
        assert permutation_unitary(theta, (0, 0)) == Element.unit(theta)

    def test_diagonal_phases(self, id22):
        i = ExactScalar.imag_unit()
        one = ExactScalar.one()
        got = permutation_unitary(id22, (1, 1), None, [i, one, one, one])
        assert is_unitary(got)

    def test_always_unitary(self, theta):
        rng = rng_from_seed(28)
        for _ in range(10):
            assert is_unitary(random_unitary(rng, theta))

    def test_not_a_permutation(self, theta):
        with pytest.raises(NotAPermutation):
            permutation_unitary(theta, (1, 0), [0] * theta.m)

    def test_bad_phase(self, theta):
        with pytest.raises(NotUnitModulus):
            permutation_unitary(
                theta, (0, 0), None, [ExactScalar.rational(2)]
            )


def _gauge_e1(theta, value):
    """gauge of s_e1 at (value, 1): value times s_e1, at the term (e1, id)."""
    return gauge(gen(theta, "e1", "id"), (value, (1, 0)))


def _phase_first(theta, value):
    """The diagonal unitary on degree (1, 0) with phase value at (e1, e1)."""
    size = len(enumerate_words(theta, (1, 0)))
    return permutation_unitary(theta, (1, 0), None, [value] + [ExactScalar.one()] * (size - 1))


_UNIT_CALLERS = [("torus points", _gauge_e1), ("phases", _phase_first)]


@pytest.mark.parametrize("what, call", _UNIT_CALLERS)
@pytest.mark.parametrize("value, error, text", [
    (ExactScalar.zero(), NotUnitModulus, "must have modulus one: |t|^2 = 0 != 1"),
    ((0, 0), NotUnitModulus, "must have modulus one: |t|^2 = 0 != 1"),
    ((1, 1), NotUnitModulus, "must have modulus one: |t|^2 = 2 != 1"),
    (ExactScalar.gaussian(1, 1), NotUnitModulus, "must have modulus one: |t|^2 = 2 != 1"),
    ((Fraction(1, 2), 0), NotUnitModulus, "must have modulus one: |t|^2 = 1/4 != 1"),
    (ExactScalar.root(2, Fraction(1, 2)), NotUnitModulus,
     "must be plain Gaussian rationals, got 2^(1/2)"),
    (1j, MalformedInput, "must be ExactScalars or (re, im) pairs, got 1j"),
    ((1, 0, 0), MalformedInput, "must be ExactScalars or (re, im) pairs, got (1, 0, 0)"),
    (("x", "0"), MalformedInput, "must be ExactScalars or (re, im) pairs, got ('x', '0')"),
])
def test_unit_refusals_name_their_argument(id23, what, call, value, error, text):
    with pytest.raises(TwoGraphError) as info:
        call(id23, value)
    assert type(info.value) is error
    assert str(info.value) == f"{what} {text}"


@pytest.mark.parametrize("what, call", _UNIT_CALLERS)
@pytest.mark.parametrize("value", [
    (Fraction(3, 5), Fraction(4, 5)), ("3/5", "4/5"), [Fraction(3, 5), Fraction(4, 5)],
    ExactScalar.gaussian(Fraction(3, 5), Fraction(4, 5)),
])
def test_unit_gaussians_are_accepted_as_pairs_or_scalars(id23, what, call, value):
    t = ExactScalar.gaussian(Fraction(3, 5), Fraction(4, 5))
    got = call(id23, value)
    e1 = word(id23, "e1")
    if what == "phases":
        assert got.coefficient(GenTerm(e1, e1)) == t and is_unitary(got)
    else:
        assert got == gen(id23, "e1", "id").scaled(t)


def test_element_str_sorted_and_parseable(theta):
    from twograph.exprs import parse_expression

    rng = rng_from_seed(29)
    for _ in range(25):
        a = random_element(rng, theta, (2, 2)).canonicalize()
        assert parse_expression(str(a), theta) == a


@pytest.mark.parametrize("name", ["flip22", "mixed23"])
def test_hot_paths_build_exact_words_and_terms(name, request):
    # the package builds words and terms without NamedTuple's `__new__`;
    # each must still be an exact `Word` / `GenTerm`, equal to and printed
    # as the one the public constructor gives
    theta = request.getfixturevalue(name)
    rng = rng_from_seed(5)
    words = list(enumerate_words(theta, (1, 2)))
    elements = []
    for _ in range(20):
        u, v = random_word(rng, theta, (2, 2)), random_word(rng, theta, (2, 2))
        w = concat(theta, u, v)
        words += [w, concat(theta, Word(u.e_block, ()), Word((), v.f_block)),
                  *factor_at(theta, w, u.degree), prefix_at(theta, w, u.degree),
                  prefix_at(theta, w, (u.degree[0], 0)),
                  normal_form(theta, random_letters(rng, theta, 6))]
        words += [x for pair in common_extensions(theta, u, v) for x in pair]
        a, b = random_element(rng, theta, (2, 2)), random_element(rng, theta, (2, 2))
        lifted = Element.gen(theta, concat(theta, u, w), concat(theta, v, w))
        elements += [mul(a, b), a.adjoint(), (Element.gen(theta, u, v) + lifted).canonicalize(),
                     modular.modular_power(Fraction(1, 2), a), modular.modular_conjugation(b),
                     endo.shift_e(a), raise_level(theta, GenTerm(u, v), (1, 1))]
    terms = [t for x in elements for t in x.terms()]
    assert terms and all(type(t) is GenTerm for t in terms)
    assert all(str(t) == str(GenTerm(*t)) and t == GenTerm(*t) for t in terms)
    words += [part for t in terms for part in t]
    assert all(type(w) is Word for w in words)
    assert all(str(w) == str(Word(*w)) and w == Word(*w) for w in words)


def _radical_elements(theta):
    # a plus two modular powers of random elements: coefficients that are
    # sums of a Gaussian rational and radical monomials m^r n^s
    rng = rng_from_seed(23)
    for _ in range(6):
        a, b = random_element(rng, theta, (2, 2), terms=4), random_element(rng, theta, (1, 2))
        yield a + modular.modular_power(Fraction(1, 3), b) + modular.modular_power(Fraction(1, 2), a)


TORUS_POINT = ((0, 1), (Fraction(3, 5), Fraction(-4, 5)))


def _inner_endomorphism(theta):
    return endo.Endomorphism(endo.inner_pair(random_unitary(rng_from_seed(4), theta)))


def _filtered_reference(name, x):
    """The operator built as `Element(theta, ...)`, which drops zero
    coefficients, from the same terms in the same order."""
    theta = x.theta
    if name == "gauge":
        g1, g2 = (ExactScalar.gaussian(*g) for g in TORUS_POINT)
        return Element(theta, {t: c * g1 ** t.degree[0] * g2 ** t.degree[1]
                               for t, c in x._terms.items()})
    if name == "modular_power":
        return Element(theta, {t: c * power_of_base(theta, t.degree, Fraction(-1, 2))
                               for t, c in x._terms.items()})
    if name == "modular_conjugation":
        return Element(theta, {GenTerm(t.v, t.u): c.conjugate() * power_of_base(theta, t.degree, Fraction(1, 2))
                               for t, c in x._terms.items()})
    if name == "shift_e":
        return Element(theta, {GenTerm(concat(theta, w, t.u), concat(theta, w, t.v)): c
                               for w in enumerate_words(theta, (1, 0))
                               for t, c in x._terms.items()}).canonicalize()
    lam = _inner_endomorphism(theta)
    acc = {}
    for t, c in x._terms.items():
        for t2, c2 in mul(lam.word_image(t.u), lam.word_image(t.v).adjoint())._terms.items():
            _accumulate(acc, t2, c * c2)
    return Element(theta, acc).canonicalize()


_TRUSTED_BUILDS = {
    "gauge": lambda x: gauge(x, TORUS_POINT),
    "modular_power": lambda x: modular.modular_power(Fraction(1, 2), x),
    "modular_conjugation": modular.modular_conjugation,
    "shift_e": endo.shift_e,
    "Endomorphism.apply": lambda x: _inner_endomorphism(x.theta).apply(x),
}


@pytest.mark.parametrize("name", sorted(_TRUSTED_BUILDS))
@pytest.mark.parametrize("theta", ["flip22", "id23", "mixed23"], indirect=True)
def test_trusted_builds_hold_no_zero_and_match_the_filtered_build(name, theta):
    # these operators take their terms into `Element._of` unfiltered: each
    # factor is nonzero, so no coefficient of the result may be zero, and
    # the result is term for term, in order, the filtered build
    radical = 0
    for x in _radical_elements(theta):
        radical += any(c.as_gaussian() is None for c in x._terms.values())
        got = _TRUSTED_BUILDS[name](x)
        assert got._terms and not any(c.is_zero for c in got._terms.values())
        assert list(got._terms.items()) == list(_filtered_reference(name, x)._terms.items())
    assert radical
