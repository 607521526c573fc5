"""The word kernel: `common_ext` against a brute force on random tables, and
backend parity (the compiled kernel must agree with the pure one)."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from twograph import _kernel_py as kpy

try:
    from twograph import _kernel_cy as kcy
except ImportError:
    kcy = None

needs_compiled = pytest.mark.skipif(kcy is None, reason="compiled kernel not built")


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


@needs_compiled
@settings(max_examples=150, deadline=None)
@given(table_and_letters())
def test_normalize_parity(data):
    m, n, fwd, letters = data
    hp, hc = kpy.prepare(m, n, fwd), kcy.prepare(m, n, fwd)
    assert kpy.normalize(hp, letters) == kcy.normalize(hc, letters)


@needs_compiled
@settings(max_examples=100, deadline=None)
@given(table_and_letters(), table_and_letters())
def test_concat_factor_parity(data1, data2):
    m, n, fwd, letters = data1
    hp, hc = kpy.prepare(m, n, fwd), kcy.prepare(m, n, fwd)
    e1, f1 = kpy.normalize(hp, letters)
    e2, f2 = kpy.normalize(hp, [x for x in data2[3] if 0 < x <= m or -n <= x < 0])
    assert kpy.concat(hp, e1, f1, e2, f2) == kcy.concat(hc, e1, f1, e2, f2)
    assert kpy.to_f_first(hp, e1, f1) == kcy.to_f_first(hc, e1, f1)
    for p in range(len(e1) + 1):
        for q in range(len(f1) + 1):
            assert kpy.factor(hp, e1, f1, p, q) == kcy.factor(hc, e1, f1, p, q)


@needs_compiled
@settings(max_examples=60, deadline=None)
@given(table_and_letters())
def test_common_ext_parity(data):
    m, n, fwd, letters = data
    hp, hc = kpy.prepare(m, n, fwd), kcy.prepare(m, n, fwd)
    eu, fu = kpy.normalize(hp, letters[:5])
    ev, fv = kpy.normalize(hp, letters[5:])
    assert kpy.common_ext(hp, eu, fu, ev, fv) == kcy.common_ext(hc, eu, fu, ev, fv)


def brute_force_common_ext(tables, eu, fu, ev, fv):
    """Every word z at the join degree that splits as v*w1 and as u*w2,
    found with `factor` alone, as (w1, w2) in lexicographic order of w1."""
    m, n, _, _ = tables
    au, bu, av, bv = len(eu), len(fu), len(ev), len(fv)
    out = []
    for ze in product(range(1, m + 1), repeat=max(au, av)):
        for zf in product(range(1, n + 1), repeat=max(bu, bv)):
            pve, pvf, w1e, w1f = kpy.factor(tables, ze, zf, av, bv)
            pue, puf, w2e, w2f = kpy.factor(tables, ze, zf, au, bu)
            if (pve, pvf) == (ev, fv) and (pue, puf) == (eu, fu):
                out.append((w1e, w1f, w2e, w2f))
    return sorted(out)


# how d(u) and d(v) compare: the first three and "empty" take the
# one-factorization branches of `common_ext`, "incomparable" the enumeration
SHAPES = ("v-below-u", "u-below-v", "equal", "empty", "incomparable")


@st.composite
def table_and_word_pair(draw, shape):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    tables = kpy.prepare(m, n, random_table(random.Random(draw(st.integers(0, 2**32))), m, n))
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

    def letters(k, top):
        return tuple(draw(st.lists(st.integers(1, top), min_size=k, max_size=k)))

    if draw(st.booleans()):
        # u and v both prefixes of one word z, so they have a common extension
        ze, zf = letters(max(du[0], dv[0]), m), letters(max(du[1], dv[1]), n)
        eu, fu = kpy.factor(tables, ze, zf, *du)[:2]
        ev, fv = kpy.factor(tables, ze, zf, *dv)[:2]
    else:
        eu, fu, ev, fv = letters(du[0], m), letters(du[1], n), letters(dv[0], m), letters(dv[1], n)
    return tables, eu, fu, ev, fv


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_common_ext_matches_brute_force(shape, data):
    tables, eu, fu, ev, fv = data.draw(table_and_word_pair(shape))
    expected = brute_force_common_ext(tables, eu, fu, ev, fv)
    assert kpy.common_ext(tables, eu, fu, ev, fv) == expected


def test_selected_backend_exposed():
    from twograph.kernel import BACKEND

    assert BACKEND in ("pure", "cython")


def test_star_import_binds_every_public_name():
    import twograph

    namespace: dict = {}
    exec("from twograph import *", namespace)
    assert set(twograph.__all__) <= namespace.keys()
    assert namespace["KERNEL_BACKEND"] == twograph.KERNEL_BACKEND
