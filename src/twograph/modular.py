"""The distinguished state and its modular objects.

The state is the trace on the gauge-invariant core composed with the
gauge-averaging expectation. On a standard generator it evaluates to

    omega(s_u s_v*) = [u == v] * m^(-a) n^(-b)   where d(u) = (a, b),

which makes it a faithful, gauge-invariant state, and <A|B> = omega(A* B)
an inner product (linear in the second slot). On the span of the
generators the Tomita involution A -> A*, its adjoint, the modular
conjugation and the powers of the modular operator all act termwise with
explicit monomial coefficients in m and n. They are computed here exactly;
real-time modular flow (irrational phases) is float-mode only. The flow at
the distinguished imaginary time is the grading operator entering the
equilibrium identity omega(AB) = omega(flow_i(B) A), checked exactly by
`kms_check`.

All coefficient factors depend only on the degree difference of a term, so
each operator is well-defined on any representation, not just canonical
ones.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .algebra import Element, _term, mul
from .errors import MalformedInput
from .scalar import ExactScalar, _rational, power_of_base
from .semigroup import Degree, Permutation2D


def omega(a: Element) -> ExactScalar:
    """The distinguished state, evaluated termwise."""
    total = ExactScalar.zero()
    for t, c in a._terms.items():
        if t.u == t.v:
            total = total + c * power_of_base(a.theta, t.u.degree, -1)
    return total


def inner(a: Element, b: Element) -> ExactScalar:
    """<a|b> = omega(a* b); conjugate-symmetric, linear in b."""
    a._require_same_theta(b)
    return omega(mul(a.adjoint(), b))


def tomita_s(a: Element) -> Element:
    """The closable involution A -> A* (anti-linear)."""
    return a.adjoint()


def tomita_f(a: Element) -> Element:
    """Adjoint of the involution: s_u s_v* -> m^a n^b s_v s_u* (anti-linear),
    where (a, b) = d(u) - d(v)."""
    return _scale_terms(a, 1, swap=True)


_HALF = Fraction(1, 2)


def modular_conjugation(a: Element) -> Element:
    """Anti-unitary J: s_u s_v* -> m^(a/2) n^(b/2) s_v s_u*, where
    (a, b) = d(u) - d(v)."""
    return _scale_terms(a, _HALF, swap=True)


def modular_power(z, a: Element) -> Element:
    """The z-th power of the modular operator, exact for rational z:
    scales s_u s_v* by m^(-z a) n^(-z b), where (a, b) = d(u) - d(v)."""
    return _scale_terms(a, -_rational(z), swap=False)


def modular_flow(t, a: Element):
    """Modular automorphism group on generators.

    At the special value t = "i" (analytic continuation) the action is the
    exact grading s_u s_v* -> m^a n^b s_u s_v*, (a, b) = d(u) - d(v), and an
    Element is returned. At real t the phases m^(-ita) n^(-itb) are
    irrational, so a float coefficient map {term: complex} is returned
    instead. The phase depends only on the degree difference, so it is
    computed once per degree difference per call; the coefficient's double
    is cached on the scalar (`ExactScalar.to_complex`).
    """
    if t == "i":
        return _scale_terms(a, 1, swap=False)
    t = float(t)
    lm, ln = math.log(a.theta.m), math.log(a.theta.n)
    phases: dict[Degree, complex] = {}
    out = {}
    for term, c in a._terms.items():
        (ue, uf), (ve, vf) = term
        d = (len(ue) - len(ve), len(uf) - len(vf))
        phase = phases.get(d)
        if phase is None:
            # (-d1, -d2) = d(v) - d(u)
            phase = phases[d] = cmath.exp(1j * t * (lm * -d[0] + ln * -d[1]))
        out[term] = c.to_complex() * phase
    return out


def _scale_terms(a: Element, z, swap: bool) -> Element:
    """s_u s_v* -> m^(z a) n^(z b) s_u s_v*, where (a, b) = d(u) - d(v); with
    `swap` the term becomes s_v s_u* and its coefficient is conjugated.

    Both maps are injective on terms, so no two images need merging, and
    the factors are positive reals, so no coefficient becomes zero."""
    theta = a.theta
    if swap:
        terms = {
            _term((t.v, t.u)): c.conjugate() * power_of_base(theta, t.degree, z)
            for t, c in a._terms.items()
        }
    else:
        terms = {t: c * power_of_base(theta, t.degree, z) for t, c in a._terms.items()}
    return Element._of(theta, terms)


def kms_check(a: Element, b: Element) -> tuple[bool, ExactScalar, ExactScalar]:
    """Exact equilibrium identity: omega(AB) == omega(flow_i(B) A).

    Returns (equal, lhs, rhs) so failures carry their witnesses.
    """
    lhs = omega(mul(a, b))
    rhs = omega(mul(modular_flow("i", b), a))
    return lhs == rhs, lhs, rhs


def gram_matrix(basis: list[Element]) -> list[list[ExactScalar]]:
    """G[a][b] = <basis_a | basis_b>; Hermitian by construction."""
    size = len(basis)
    gram: list[list[ExactScalar]] = [[ExactScalar.zero()] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            val = inner(basis[i], basis[j])
            gram[i][j] = val
            if i != j:
                gram[j][i] = val.conjugate()
    return gram


def gram_matrix_float(gram: list[list[ExactScalar]]) -> list[list[complex]]:
    """Double-precision view of an exact Gram matrix, row by row."""
    return [[entry.to_complex() for entry in row] for row in gram]


def gram_is_positive_definite(gram: list[list[ExactScalar]]) -> bool:
    """Sylvester's criterion, decided exactly: True iff every pivot of the
    Hermitian elimination of `gram` (no row exchanges; each pivot is a ratio
    of leading principal minors) is real and > 0. A pivot that is not a
    Gaussian rational is refused with MalformedInput."""
    rows = [list(row) for row in gram]
    for k, row in enumerate(rows):
        pivot = row[k].as_gaussian()
        if pivot is None:
            raise MalformedInput(f"pivot {row[k]} is not a Gaussian rational")
        if pivot[1] or pivot[0] <= 0:
            return False
        scale = row[k].inverse()
        for below in rows[k + 1:]:
            factor = below[k] * scale
            below[k + 1:] = [x - factor * y for x, y in zip(below[k + 1:], row[k + 1:])]
    return True


def modular_spectrum_window(theta: Permutation2D, window: int) -> list[ExactScalar]:
    """The points m^a n^b with |a|, |b| <= window, deduplicated exactly and
    sorted by numeric value. A finite shadow of the modular spectrum; no
    closure claim is made."""
    if window < 0:
        raise MalformedInput("window must be nonnegative")
    seen: dict[ExactScalar, float] = {}
    for a in range(-window, window + 1):
        for b in range(-window, window + 1):
            val = power_of_base(theta, (a, b), 1)
            if val not in seen:
                seen[val] = val.to_complex().real
    return [v for v, _ in sorted(seen.items(), key=lambda kv: kv[1])]


def flow_fixed_degree(theta: Permutation2D, delta: Degree) -> bool:
    """True iff generators of degree difference delta are fixed by the
    modular flow, i.e. m^(delta_1) n^(delta_2) = 1 exactly."""
    return power_of_base(theta, delta, 1) == ExactScalar.one()
