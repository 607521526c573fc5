"""Backend parity: the compiled kernel must agree with the pure one."""

import random

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


def test_selected_backend_exposed():
    from twograph.kernel import BACKEND

    assert BACKEND in ("pure", "cython")


def test_star_import_binds_every_public_name():
    import twograph

    namespace: dict = {}
    exec("from twograph import *", namespace)
    assert set(twograph.__all__) <= namespace.keys()
    assert namespace["KERNEL_BACKEND"] == twograph.KERNEL_BACKEND
