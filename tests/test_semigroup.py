"""Word combinatorics: normal forms, factorization, enumeration."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from twograph import kernel, semigroup
from twograph.errors import (
    DegreeTooLarge,
    FlipRequiresSquare,
    IndexOutOfRange,
    MalformedInput,
    NotABijection,
    TableTooLarge,
)
from twograph.semigroup import (
    EMPTY_WORD,
    Permutation2D,
    Word,
    common_extensions,
    concat,
    enumerate_words,
    factor_at,
    make_theta,
    normal_form,
    parse_theta_text,
    theta_text,
    word,
    words_up_to,
)
from twograph.suites import brute_force_common_extensions, naive_normal_form

from conftest import random_entries, random_theta


class TestMakeTheta:
    def test_identity_builtin(self):
        th = make_theta(2, 3, "identity")
        assert th.apply(2, 3) == (2, 3)

    def test_flip_builtin(self):
        th = make_theta(2, 2, "flip")
        assert th.apply(1, 2) == (2, 1)

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (-1, -1), (-1, 2), (3, 1), (1, 4), (3, 4)])
    def test_apply_refuses_a_pair_out_of_range(self, id23, i, j):
        # no zero, negative or past-the-end index reaches the pair table
        assert id23.apply(2, 3) == (2, 3) and id23.apply(1, 1) == (1, 1)
        with pytest.raises(IndexOutOfRange) as refusal:
            id23.apply(i, j)
        assert str(refusal.value) == f"pair ({i},{j}) out of range (bounds 2, 3)"

    def test_flip_requires_square(self):
        with pytest.raises(FlipRequiresSquare):
            make_theta(2, 3, "flip")

    def test_table_over_the_cap_refused_before_its_entries_are_read(self, monkeypatch):
        monkeypatch.setattr(semigroup, "MAX_TABLE_PAIRS", 3)

        def entries():
            raise AssertionError("entries read")
            yield

        for spec in ("identity", "flip", entries()):
            with pytest.raises(TableTooLarge):
                make_theta(2, 2, spec)
        assert make_theta(1, 3, "identity").m == 1

    def test_every_constructor_refuses_a_table_over_the_cap(self, monkeypatch):
        # the builtins and the constructor itself pass the cap of `make_theta`
        # before they build or read a pair
        monkeypatch.setattr(semigroup, "MAX_TABLE_PAIRS", 3)

        class Unread(dict):
            def items(self):
                raise AssertionError("entries read")

        for build in (Permutation2D.identity, Permutation2D.flip,
                      lambda m, n: Permutation2D(m, n, Unread())):
            with pytest.raises(TableTooLarge) as refusal:
                build(2, 2)
            assert str(refusal.value) == "table 2x2 has 4 index pairs, capped at 3 for cost control"
        assert Permutation2D.identity(1, 3).m == 1

    def test_duplicate_image_rejected(self):
        with pytest.raises(NotABijection):
            make_theta(1, 2, [((1, 1), (1, 1)), ((1, 2), (1, 1))])

    def test_missing_pair_rejected(self):
        with pytest.raises(NotABijection):
            make_theta(2, 2, [((1, 1), (1, 1))])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange):
            make_theta(1, 1, [((1, 2), (1, 1))])

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            make_theta(2, 2, "swirl")


class TestNormalForm:
    def test_flip_relation(self, flip22):
        assert str(normal_form(flip22, [("f", 1), ("e", 2)])) == "e1.f2"

    def test_identity_relation(self, id23):
        assert str(normal_form(id23, [("f", 2), ("e", 1)])) == "e1.f2"

    def test_already_canonical(self, theta):
        assert str(normal_form(theta, [("e", 1), ("f", 1)])) == "e1.f1"

    def test_index_out_of_range(self, flip22):
        with pytest.raises(IndexOutOfRange):
            normal_form(flip22, [("e", 3)])

    @pytest.mark.parametrize("letter, error, text", [
        (("g", 1), MalformedInput, "bad letter ('g', 1)"),
        (("e", 1.0), MalformedInput, "bad letter ('e', 1.0)"),
        (1.5, MalformedInput, "bad letter 1.5"),
        (True, MalformedInput, "bad letter True"),
        (0, IndexOutOfRange, "f0 out of range (bound 3)"),
        (3, IndexOutOfRange, "e3 out of range (bound 2)"),
        (-4, IndexOutOfRange, "f4 out of range (bound 3)"),
        (("e", 0), IndexOutOfRange, "e0 out of range (bound 2)"),
        (("f", -2), IndexOutOfRange, "f-2 out of range (bound 3)"),
    ])
    def test_a_bad_letter_is_refused_by_name(self, id23, letter, error, text):
        # a kind other than e and f, or an index that is not an int, is
        # malformed; an int index out of range is named with its bound
        with pytest.raises(error) as refusal:
            normal_form(id23, [("e", 1), -1, letter])
        assert type(refusal.value) is error
        assert str(refusal.value) == text or str(refusal.value).startswith(text + ":")

    @pytest.mark.parametrize("kind", ["g", "E", "", None])
    def test_check_letter_refuses_a_kind_other_than_e_and_f(self, id23, kind):
        with pytest.raises(MalformedInput, match="bad letter kind"):
            id23.check_letter(kind, 1)

    @pytest.mark.parametrize("kind, index, text", [
        ("e", 0, "e0 out of range (bound 2)"),
        ("e", 3, "e3 out of range (bound 2)"),
        ("f", 4, "f4 out of range (bound 3)"),
    ])
    def test_check_letter_names_an_index_out_of_range_with_its_bound(self, id23, kind, index, text):
        assert id23.check_letter("e", 2) is None and id23.check_letter("f", 3) is None
        with pytest.raises(IndexOutOfRange) as refusal:
            id23.check_letter(kind, index)
        assert str(refusal.value) == text

    @pytest.mark.parametrize("digits", [6, 5000])
    def test_index_longer_than_any_table_refused_before_it_is_read(self, flip22, digits):
        # 5000 digits is past int()'s 4300-digit limit
        with pytest.raises(IndexOutOfRange, match=f"{digits} digits"):
            word(flip22, "e1.f" + "1" * digits)

    def test_empty(self, theta):
        w = normal_form(theta, [])
        assert w == EMPTY_WORD and str(w) == "id" and w.length == 0


class TestConcat:
    def test_unit(self, theta):
        w = word(theta, "e1.f2")
        assert concat(theta, EMPTY_WORD, w) == w
        assert concat(theta, w, EMPTY_WORD) == w

    def test_flip_example(self, flip22):
        assert str(concat(flip22, word(flip22, "f1"), word(flip22, "e2"))) == "e1.f2"

    def test_identity_example(self, id23):
        got = concat(id23, word(id23, "e1.f1"), word(id23, "e2"))
        assert str(got) == "e1.e2.f1"

    def test_degree_additive(self, theta):
        rng = random.Random(3)
        for _ in range(50):
            letters1 = [("e", rng.randint(1, theta.m))] * rng.randint(0, 3)
            letters2 = [("f", rng.randint(1, theta.n))] * rng.randint(0, 3)
            w1, w2 = normal_form(theta, letters1), normal_form(theta, letters2)
            prod = concat(theta, w1, w2)
            assert prod.degree == (
                w1.degree[0] + w2.degree[0],
                w1.degree[1] + w2.degree[1],
            )


class TestFactorAt:
    def test_flip_example(self, flip22):
        w1, w2 = factor_at(flip22, word(flip22, "e1.f2"), (0, 1))
        assert (str(w1), str(w2)) == ("f1", "e2")

    def test_prefix_case(self, flip22):
        w1, w2 = factor_at(flip22, word(flip22, "e1.f2"), (1, 0))
        assert (str(w1), str(w2)) == ("e1", "f2")

    def test_trivial_split(self, theta):
        w = word(theta, "e1.f1")
        assert factor_at(theta, w, (0, 0)) == (EMPTY_WORD, w)

    def test_degree_too_large(self, theta):
        with pytest.raises(DegreeTooLarge):
            factor_at(theta, word(theta, "e1"), (0, 1))

    def test_round_trip_exhaustive(self, theta):
        for w in words_up_to(theta, (2, 2)):
            for a in range(w.degree[0] + 1):
                for b in range(w.degree[1] + 1):
                    w1, w2 = factor_at(theta, w, (a, b))
                    assert w1.degree == (a, b)
                    assert concat(theta, w1, w2) == w

    def test_unique_splitter(self, theta):
        """Exhaustive search finds exactly the factor_at split."""
        for w in words_up_to(theta, (2, 1)):
            for a in range(w.degree[0] + 1):
                for b in range(w.degree[1] + 1):
                    rest = (w.degree[0] - a, w.degree[1] - b)
                    splits = [
                        (w1, w2)
                        for w1 in enumerate_words(theta, (a, b))
                        for w2 in enumerate_words(theta, rest)
                        if concat(theta, w1, w2) == w
                    ]
                    assert splits == [factor_at(theta, w, (a, b))]


# empty, e-only, f-only and mixed canonical words
BLOCK_SHAPES = ((0, 0), (2, 0), (0, 2), (1, 2))


@settings(max_examples=30, deadline=None)
@given(theta=random_theta(), data=st.data())
def test_block_juxtaposition_agrees_with_the_kernel(theta, data):
    """`concat` skips the kernel when no letter crosses; on every block
    shape it gives what the kernel gives."""

    def draw_word(a, b):
        e = data.draw(st.tuples(*[st.integers(1, theta.m)] * a))
        f = data.draw(st.tuples(*[st.integers(1, theta.n)] * b))
        return Word(e, f)

    words = [draw_word(a, b) for a, b in BLOCK_SHAPES]
    for w1 in words:
        for w2 in words:
            got = concat(theta, w1, w2)
            assert got == Word(*kernel.concat(theta._handle, *w1, *w2))
            if w1.is_empty:
                assert got is w2
            elif w2.is_empty:
                assert got is w1


class TestEnumerate:
    def test_count_11(self, id22):
        words = enumerate_words(id22, (1, 1))
        assert [str(w) for w in words] == ["e1.f1", "e1.f2", "e2.f1", "e2.f2"]

    def test_zero_degree(self, theta):
        assert enumerate_words(theta, (0, 0)) == [EMPTY_WORD]

    def test_count_formula(self, id23):
        assert len(enumerate_words(id23, (1, 2))) == 2 * 9

    def test_negative_rejected(self, theta):
        with pytest.raises(DegreeTooLarge):
            enumerate_words(theta, (-1, 0))

    def test_deterministic_order(self, theta):
        assert enumerate_words(theta, (1, 1)) == enumerate_words(theta, (1, 1))

    def test_words_over_the_cap_are_refused(self, id22, monkeypatch):
        monkeypatch.setattr(semigroup, "MAX_WORDS", 8)
        assert len(enumerate_words(id22, (1, 2))) == 8
        with pytest.raises(DegreeTooLarge, match=r"degree \(2, 2\) on 2x2 has 2\^2\*2\^2 words, "
                                                 r"capped at 8 for cost control"):
            enumerate_words(id22, (2, 2))
        with pytest.raises(DegreeTooLarge):
            semigroup.words_up_to(id22, (2, 2))

    def test_huge_degrees_are_refused_without_building_the_power(self, id22):
        with pytest.raises(DegreeTooLarge):
            enumerate_words(id22, (10 ** 9, 10 ** 9))
        # on a 1x1 table every degree has one word
        assert len(enumerate_words(semigroup.make_theta(1, 1, "identity"), (300, 300))) == 1


def direct_words(theta, delta):
    """A stratum straight from `itertools.product`, with no memo."""
    a, b = delta
    return [Word(e, f) for e in product(range(1, theta.m + 1), repeat=a)
            for f in product(range(1, theta.n + 1), repeat=b)]


class TestStrataMemo:
    """Each table keeps the strata it enumerated; callers get fresh lists."""

    def test_each_call_returns_a_new_list(self):
        theta = make_theta(2, 3, "identity")
        first = enumerate_words(theta, (1, 2))
        second = enumerate_words(theta, (1, 2))
        assert first == second and first is not second
        first.clear()
        second.reverse()
        assert enumerate_words(theta, (1, 2)) == direct_words(theta, (1, 2))

    @pytest.mark.parametrize("name", ["flip22", "mixed23"])
    def test_memoized_strata_equal_a_direct_enumeration(self, name, request):
        theta = request.getfixturevalue(name)
        direct = [w for a in range(3) for b in range(3) for w in direct_words(theta, (a, b))]
        assert words_up_to(theta, (2, 2)) == direct
        assert words_up_to(theta, (2, 2)) == direct
        assert all(enumerate_words(theta, degree) == list(stratum)
                   for degree, stratum in theta._strata.items())

    def test_an_equal_table_starts_empty(self):
        warm = make_theta(2, 2, "flip")
        words_up_to(warm, (2, 2))
        cold = make_theta(2, 2, "flip")
        assert cold == warm and len(warm._strata) == 9 and not cold._strata

    def test_a_stratum_over_the_budget_is_not_stored(self, monkeypatch):
        monkeypatch.setattr(semigroup, "_CACHE_ENTRIES", 10)
        theta = make_theta(2, 3, "identity")
        assert enumerate_words(theta, (1, 1)) == direct_words(theta, (1, 1))
        assert list(theta._strata) == [(1, 1)]
        # 6 words stored, 18 more would pass the budget of 10
        assert enumerate_words(theta, (1, 2)) == direct_words(theta, (1, 2))
        assert enumerate_words(theta, (0, 1)) == direct_words(theta, (0, 1))
        assert list(theta._strata) == [(1, 1), (0, 1)]
        assert sum(map(len, theta._strata.values())) == theta._strata_words == 9


class TestCommonExtensions:
    def test_flip_example(self, flip22):
        got = common_extensions(flip22, word(flip22, "e1"), word(flip22, "f1"))
        assert [(str(a), str(b)) for a, b in got] == [("e1", "f1"), ("e2", "f2")]

    def test_orthogonal(self, theta):
        assert common_extensions(theta, word(theta, "e1"), word(theta, "e2")) == []

    def test_mixed_table_profile(self, mixed23):
        counts = [
            len(common_extensions(mixed23, word(mixed23, f"e{i}"), word(mixed23, f"f{j}")))
            for i in (1, 2) for j in (1, 2, 3)
        ]
        assert counts == [2, 0, 1, 0, 2, 1]

    def test_isometry_cancellation(self, id23):
        got = common_extensions(id23, word(id23, "e1.f1"), word(id23, "e1"))
        assert [(str(a), str(b)) for a, b in got] == [("f1", "id")]

    def test_matches_brute_force(self, theta):
        rng = random.Random(11)
        for _ in range(60):
            u = normal_form(
                theta,
                [rng.choice([rng.randint(1, theta.m), -rng.randint(1, theta.n)])
                 for _ in range(rng.randint(0, 4))],
            )
            v = normal_form(
                theta,
                [rng.choice([rng.randint(1, theta.m), -rng.randint(1, theta.n)])
                 for _ in range(rng.randint(0, 4))],
            )
            fast = sorted(common_extensions(theta, u, v),
                          key=lambda p: (p[0].key, p[1].key))
            assert fast == brute_force_common_extensions(theta, u, v)

    def test_defining_property(self, theta):
        rng = random.Random(12)
        for _ in range(40):
            u = Word(tuple(rng.randint(1, theta.m) for _ in range(2)), ())
            v = Word((), tuple(rng.randint(1, theta.n) for _ in range(2)))
            for w1, w2 in common_extensions(theta, u, v):
                assert concat(theta, v, w1) == concat(theta, u, w2)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_confluence_three_orders(flip22, id23, data):
    """All rewrite orders and the kernel agree on random letter sequences,
    on the two fixture tables and on random tables."""
    theta = data.draw(st.one_of(st.sampled_from([flip22, id23]), random_theta()))
    letters = data.draw(
        st.lists(
            st.one_of(st.integers(1, theta.m), st.integers(-theta.n, -1)),
            max_size=9,
        )
    )
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    results = set()
    for order in ("ltr", "rtl", "random"):
        w, degree_ok = naive_normal_form(theta, letters, order, rng)
        assert degree_ok
        results.add(w)
    assert len(results) == 1
    assert results.pop() == normal_form(theta, letters)


def test_cancellativity_desk_scale(theta):
    """Left multiplication is injective on each degree class up to (2,2)."""
    words = words_up_to(theta, (2, 2))
    by_degree = {}
    for w in words:
        by_degree.setdefault(w.degree, []).append(w)
    for w in words:
        for group in by_degree.values():
            images = {concat(theta, w, a) for a in group}
            assert len(images) == len(group)


class TestThetaText:
    def test_builtin_round_trip(self, flip22):
        assert parse_theta_text("m 2\nn 2\nbuiltin flip\n") == flip22

    def test_explicit_round_trip(self, id23):
        assert parse_theta_text(theta_text(id23)) == id23

    @settings(max_examples=50, deadline=None)
    @given(random_entries(top=4))
    def test_random_round_trip(self, table):
        # the text lists the entries the table was built from, i-major
        m, n, entries = table
        theta = make_theta(m, n, entries.items())
        text = theta_text(theta)
        assert text == f"m {m}\nn {n}\n" + "".join(
            f"{i} {j} -> {i2} {j2}\n" for (i, j), (i2, j2) in sorted(entries.items()))
        assert parse_theta_text(text) == theta

    def test_duplicate_rejected(self):
        text = "m 1\nn 2\n1 1 -> 1 1\n1 2 -> 1 1\n"
        with pytest.raises(NotABijection):
            parse_theta_text(text)

    def test_missing_rejected(self):
        with pytest.raises(NotABijection):
            parse_theta_text("m 2\nn 2\n1 1 -> 1 1\n")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_theta_text("m 2\nn 2\nwat\n")


def test_word_ordering_and_str(theta):
    w = word(theta, "e1.e2.f1")
    assert w.key == ((2, 1), (1, 2), (1,))
    assert str(EMPTY_WORD) == "id"
    assert repr(w) == "Word(e1.e2.f1)"
