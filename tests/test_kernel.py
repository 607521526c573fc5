"""The word kernel on random tables: the pair tables against the table they
come from, `concat` and `factor` against each other and against
`normalize`, the table reads of each, and `common_ext` against a brute
force."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from twograph import kernel
from twograph.semigroup import Permutation2D

from conftest import random_entries


def random_table(rng, m, n):
    dsts = list(range(m * n))
    rng.shuffle(dsts)
    return tuple(dsts)


@st.composite
def table_and_letters(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fwd = random_table(rng, m, n)
    letters = draw(
        st.lists(
            st.one_of(st.integers(1, m), st.integers(-n, -1)),
            max_size=10,
        )
    )
    return m, n, fwd, letters


@settings(max_examples=150, deadline=None)
@given(table_and_letters())
def test_concat_of_factors_is_the_word(data):
    m, n, fwd, letters = data
    tables = kernel.prepare(m, n, fwd)
    es, fs = kernel.normalize(tables, letters)
    f_first, e_last = kernel.to_f_first(tables, es, fs)
    assert kernel.normalize(tables, [-j for j in f_first] + list(e_last)) == (es, fs)
    for p in range(len(es) + 1):
        for q in range(len(fs) + 1):
            e1, f1, e2, f2 = kernel.factor(tables, es, fs, p, q)
            assert (len(e1), len(f1)) == (p, q)
            assert kernel.concat(tables, e1, f1, e2, f2) == (es, fs)


def assert_pair_tables_match(theta, entries):
    """The kernel's pair tables, and `apply` that reads them, against the
    entries the table was built from."""
    m, n, fwd, inv = theta._handle
    assert (m, n) == (theta.m, theta.n) and len(entries) == m * n
    for (i, j), (i2, j2) in entries.items():
        assert theta.apply(i, j) == (i2, j2)
        assert fwd[i][j] == (i2, j2) and inv[i2][j2] == (i, j)


@settings(max_examples=100, deadline=None)
@given(random_entries(top=4))
def test_pair_tables_match_the_table_they_come_from(table):
    m, n, entries = table
    assert_pair_tables_match(Permutation2D(m, n, entries), entries)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (4, 1), (4, 4)])
def test_pair_tables_of_the_builtin_tables(m, n):
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    assert_pair_tables_match(Permutation2D.identity(m, n), {p: p for p in pairs})
    if m == n:
        assert_pair_tables_match(Permutation2D.flip(m, n), {(i, j): (j, i) for i, j in pairs})


class CountingTable(tuple):
    """A table of the kernel handle that counts its reads: each row read of
    a pair table is one letter crossing."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def counting_handle(m, n, seed):
    """A prepared random table, plain and with both tables counting reads."""
    plain = kernel.prepare(m, n, random_table(random.Random(seed), m, n))
    return plain, (m, n, CountingTable(plain[2]), CountingTable(plain[3]))


@pytest.mark.parametrize("p, q", [(2, 1), (0, 6), (6, 0), (3, 4), (6, 6)])
def test_factor_rewrites_only_the_letters_the_prefix_takes(p, q):
    # a split at (p, q) pulls the q f-letters the prefix takes past the
    # |e| - p e-letters it leaves, and pushes nothing back
    plain, counting = counting_handle(3, 3, 6)
    es, fs = (1, 2, 3, 1, 2, 3), (3, 2, 1, 1, 2, 3)
    got = kernel.factor(counting, es, fs, p, q)
    assert (counting[2].reads, counting[3].reads) == ((len(es) - p) * q, 0)
    assert got == kernel.factor(plain, es, fs, p, q)
    assert kernel.concat(plain, *got) == (es, fs)


@pytest.mark.parametrize("e1, f1, e2, f2", [
    ((), (), (1, 2), (3,)),
    ((1,), (2, 3), (), (1,)),
    ((1, 2), (3, 1, 2), (2, 3, 1), (1, 1)),
    ((), (3, 3, 3, 3), (1, 1, 1, 1, 1), ()),
])
def test_concat_pushes_each_right_e_letter_past_each_left_f_letter(e1, f1, e2, f2):
    plain, counting = counting_handle(3, 3, 8)
    got = kernel.concat(counting, e1, f1, e2, f2)
    assert (counting[2].reads, counting[3].reads) == (0, len(e2) * len(f1))
    assert got == kernel.concat(plain, e1, f1, e2, f2)
    assert got == kernel.normalize(plain, [*e1, *(-j for j in f1), *e2, *(-j for j in f2)])


@pytest.mark.parametrize("letters", [
    [],
    [1, 2, 3, -1, -2],
    [-1, -2, -3],
    [-1, 1, -2, 2, -3, 3],
    [1, -3, -2, 3, -1, 2, 2, -3],
])
def test_normalize_pushes_each_e_letter_past_the_f_letters_before_it(letters):
    plain, counting = counting_handle(3, 3, 9)
    crossings = sum(x > 0 and sum(y < 0 for y in letters[:k]) for k, x in enumerate(letters))
    got = kernel.normalize(counting, letters)
    assert (counting[2].reads, counting[3].reads) == (0, crossings)
    assert got == kernel.normalize(plain, letters)


@settings(max_examples=150, deadline=None)
@given(table_and_letters())
def test_normalize_of_juxtaposition_is_concat(data):
    m, n, fwd, letters = data
    tables = kernel.prepare(m, n, fwd)
    whole = kernel.normalize(tables, letters)
    for k in range(len(letters) + 1):
        a = kernel.normalize(tables, letters[:k])
        b = kernel.normalize(tables, letters[k:])
        assert kernel.concat(tables, *a, *b) == whole


def brute_force_common_ext(tables, eu, fu, ev, fv):
    """Every word z at the join degree that splits as v*w1 and as u*w2,
    found with `factor` alone, as (w1, w2) in lexicographic order of w1."""
    m, n, _, _ = tables
    au, bu, av, bv = len(eu), len(fu), len(ev), len(fv)
    out = []
    for ze in product(range(1, m + 1), repeat=max(au, av)):
        for zf in product(range(1, n + 1), repeat=max(bu, bv)):
            pve, pvf, w1e, w1f = kernel.factor(tables, ze, zf, av, bv)
            pue, puf, w2e, w2f = kernel.factor(tables, ze, zf, au, bu)
            if (pve, pvf) == (ev, fv) and (pue, puf) == (eu, fu):
                out.append((w1e, w1f, w2e, w2f))
    return sorted(out)


# how d(u) and d(v) compare: the first three and "empty" take the
# one-factorization branches of `common_ext`, "incomparable" the walk
SHAPES = ("v-below-u", "u-below-v", "equal", "empty", "incomparable")


@st.composite
def table_and_word_pair(draw, shape):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    tables = kernel.prepare(m, n, random_table(random.Random(draw(st.integers(0, 2**32))), m, n))
    small = st.integers(0, 2)
    lo = (draw(small), draw(small))
    if shape in ("v-below-u", "u-below-v"):
        step = draw(st.sampled_from([(0, 1), (1, 0), (1, 1)]))
        hi = (lo[0] + step[0], lo[1] + step[1])
        du, dv = (hi, lo) if shape == "v-below-u" else (lo, hi)
    elif shape == "equal":
        du = dv = lo
    elif shape == "empty":
        du, dv = lo, (0, 0)
    else:
        a, b = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        du, dv = (a, b + 1 + draw(st.integers(0, 1))), (a + 1 + draw(st.integers(0, 1)), b)
    if shape in ("empty", "incomparable") and draw(st.booleans()):
        du, dv = dv, du
    return (tables, *draw_words(draw, tables, du, dv))


def draw_words(draw, tables, du, dv):
    """Words u and v of degrees du and dv; half the time both are prefixes
    of one word z, so that they have a common extension."""
    m, n, _, _ = tables

    def letters(k, top):
        return tuple(draw(st.lists(st.integers(1, top), min_size=k, max_size=k)))

    if draw(st.booleans()):
        ze, zf = letters(max(du[0], dv[0]), m), letters(max(du[1], dv[1]), n)
        eu, fu = kernel.factor(tables, ze, zf, *du)[:2]
        ev, fv = kernel.factor(tables, ze, zf, *dv)[:2]
    else:
        eu, fu, ev, fv = letters(du[0], m), letters(du[1], n), letters(dv[0], m), letters(dv[1], n)
    return eu, fu, ev, fv


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_common_ext_matches_brute_force(shape, data):
    tables, eu, fu, ev, fv = data.draw(table_and_word_pair(shape))
    expected = brute_force_common_ext(tables, eu, fu, ev, fv)
    assert kernel.common_ext(tables, eu, fu, ev, fv) == expected


@st.composite
def table_and_far_pair(draw):
    """Incomparable u and v whose degrees differ by 1 to 3 in each component,
    in either orientation."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    tables = kernel.prepare(m, n, random_table(random.Random(draw(st.integers(0, 2**32))), m, n))
    a, b = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    gap = st.integers(1, 3)
    du, dv = (a, b + draw(gap)), (a + draw(gap), b)
    if draw(st.booleans()):
        du, dv = dv, du
    return (tables, *draw_words(draw, tables, du, dv))


@settings(max_examples=60, deadline=None)
@given(table_and_far_pair())
def test_common_ext_matches_brute_force_across_wide_gaps(data):
    tables, eu, fu, ev, fv = data
    assert kernel.common_ext(tables, eu, fu, ev, fv) == brute_force_common_ext(tables, eu, fu, ev, fv)


def test_common_ext_of_far_apart_degrees_walks_one_branch():
    # u = f1^40 and v = e1^40 commute on the identity table; the candidates
    # at the join number 2^40, the walk keeps one branch of 40 letters
    tables = kernel.prepare(2, 2, range(4))
    ones = (1,) * 40
    assert kernel.common_ext(tables, (), ones, ones, ()) == [((), ones, ones, ())]
    assert kernel.common_ext(tables, ones, (), (), ones) == [(ones, (), (), ones)]


def test_common_ext_walk_branches_in_lexicographic_order():
    # e_i f_j = f_i e_j: pushing f_j through e1 gives f1 whatever j is, so
    # every g extends e1^3 and leaves h = g
    tables = kernel.prepare(2, 2, [0, 2, 1, 3])
    u, v = ((), (1, 1, 1)), ((1, 1, 1), ())
    expected = [((), g, g, ()) for g in product((1, 2), repeat=3)]
    assert kernel.common_ext(tables, *u, *v) == expected == brute_force_common_ext(tables, *u, *v)
    mirrored = [(g, (), (), g) for g in product((1, 2), repeat=3)]
    assert kernel.common_ext(tables, *v, *u) == mirrored == brute_force_common_ext(tables, *v, *u)


def test_selected_backend_exposed():
    import twograph

    assert twograph.KERNEL_BACKEND == kernel.BACKEND == "pure"


def test_star_import_binds_every_public_name():
    import twograph

    namespace: dict = {}
    exec("from twograph import *", namespace)
    assert set(twograph.__all__) <= namespace.keys()
    assert namespace["KERNEL_BACKEND"] == twograph.KERNEL_BACKEND
