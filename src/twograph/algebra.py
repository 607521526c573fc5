"""The dense *-algebra spanned by the standard generators s_u s_v*.

An `Element` is a finite linear combination of `GenTerm`s (ordered word
pairs (u, v) standing for s_u s_v*) with exact scalar coefficients. The
product follows the common-extension expansion

    (s_{u1} s_{v1}*)(s_{u2} s_{v2}*) = sum s_{u1 w1} s_{v2 w2}*

over the pairs (w1, w2) with v1 w1 = u2 w2 at the join degree, so finite
sums stay finite and every identity is decided exactly. A pair can meet
only if v1 and u2 have the same prefix at the meet degree d(v1) ^ d(u2):
both are the prefix of v1 w1 = u2 w2 there, by unique factorization (the
Lambda^min condition of finitely aligned k-graphs). `mul` indexes the
right operand by that prefix and skips every other pair, which is exact.

Canonical form: terms are grouped by the degree difference d(u) - d(v);
within a group every term is raised (defect-free expansion) to the
componentwise-max v-degree of the group, then equal word pairs are merged
and zeros dropped. At a fixed degree difference and fixed v-degree the
generators are linearly independent, so an element is zero iff its
canonical form is empty; equality of elements is emptiness of the
canonical difference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, NamedTuple

from .errors import MalformedInput, NotAPermutation, NotUnitModulus, ThetaMismatch
from .scalar import ExactScalar
from .semigroup import (
    Degree,
    Permutation2D,
    Word,
    EMPTY_WORD,
    _common_extensions_cached,
    concat,
    deg_join,
    deg_le,
    deg_sub,
    enumerate_words,
    prefix_at,
)


class GenTerm(NamedTuple):
    """The standard generator s_u s_v*: an immutable pair of words whose
    equality and hash are the tuple's, computed on demand (a hot dict key;
    no hash is stored).

    The hot paths of the package build terms with `_term((u, v))`, which
    skips the Python-level `__new__` that `NamedTuple` generates; the
    result is the same exact `GenTerm` instance that `GenTerm(u, v)` gives,
    with the same equality, hash and `str`."""

    u: Word
    v: Word

    @property
    def degree(self) -> Degree:
        """d(u) - d(v), an integer pair, read off the four block lengths."""
        u, v = self
        return (len(u.e_block) - len(v.e_block), len(u.f_block) - len(v.f_block))

    @property
    def key(self):
        return (self.degree, self.v.key, self.u.key)

    def __str__(self) -> str:
        return f"S[{self.u};{self.v}]"

    def __repr__(self) -> str:
        return f"GenTerm({self})"


# `GenTerm` built at C level from a (u, v) pair of words, taken as it stands
_term = partial(tuple.__new__, GenTerm)


class Element:
    """Immutable finite linear combination of standard generators.

    The value is the term dict; the order of its terms carries no meaning.
    Printing sorts (`sorted_terms`), and equality is decided on the
    canonical form."""

    __slots__ = ("theta", "_terms")

    def __init__(
        self,
        theta: Permutation2D,
        terms: Mapping[GenTerm, ExactScalar] | None = None,
    ):
        self.theta = theta
        self._terms = {t: c for t, c in terms.items() if not c.is_zero} if terms else {}

    # --- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, theta: Permutation2D, terms: dict[GenTerm, ExactScalar]) -> "Element":
        """Trusted constructor: `terms` holds no zero coefficient and is
        taken as it stands, neither copied nor filtered."""
        self = cls.__new__(cls)
        self.theta = theta
        self._terms = terms
        return self

    @classmethod
    def zero(cls, theta: Permutation2D) -> "Element":
        return cls(theta, {})

    @classmethod
    def unit(cls, theta: Permutation2D) -> "Element":
        return cls.gen(theta, EMPTY_WORD, EMPTY_WORD)

    @classmethod
    def gen(cls, theta: Permutation2D, u: Word, v: Word, coeff=None) -> "Element":
        c = ExactScalar.one() if coeff is None else coeff
        return cls(theta, {GenTerm(u, v): c})

    # --- views --------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._terms

    def terms(self) -> dict[GenTerm, ExactScalar]:
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[GenTerm, ExactScalar]]:
        return sorted(self._terms.items(), key=lambda tc: tc[0].key)

    def coefficient(self, t: GenTerm) -> ExactScalar:
        return self._terms.get(t, ExactScalar.zero())

    def __len__(self) -> int:
        return len(self._terms)

    # --- linear structure -----------------------------------------------------

    def _require_same_theta(self, other: "Element") -> None:
        if self.theta != other.theta:
            raise ThetaMismatch("elements live over different tables")

    def __add__(self, other) -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_theta(other)
        acc = dict(self._terms)
        for t, c in other._terms.items():
            _accumulate(acc, t, c)
        return Element._of(self.theta, acc)

    def __sub__(self, other) -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_theta(other)
        acc = dict(self._terms)
        for t, c in other._terms.items():
            _accumulate(acc, t, -c)
        return Element._of(self.theta, acc)

    def __neg__(self) -> "Element":
        return Element(
            self.theta, {t: -c for t, c in self._terms.items()}
        )

    def scaled(self, c) -> "Element":
        if isinstance(c, (int, Fraction)):
            c = ExactScalar.rational(c)
        if c.is_zero:
            return Element.zero(self.theta)
        return Element(
            self.theta, {t: c * x for t, x in self._terms.items()}
        )

    def __mul__(self, other) -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return mul(self, other)

    # --- *-structure ----------------------------------------------------------

    def adjoint(self) -> "Element":
        """Termwise s_u s_v* -> s_v s_u* with conjugated coefficients."""
        return Element._of(
            self.theta,
            {_term((t.v, t.u)): c.conjugate() for t, c in self._terms.items()},
        )

    # --- canonical form ---------------------------------------------------------

    def canonicalize(self) -> "Element":
        """Raise each degree-difference group to its common v-degree and merge.

        One pass reads each group's target, the join of its v-degrees (off
        the four block lengths); a level-aligned element, where no term
        sits below its target, is returned as it stands."""
        targets: dict[Degree, Degree] = {}
        aligned = True
        for (ue, uf), (ve, vf) in self._terms:
            dv = (len(ve), len(vf))
            d = (len(ue) - dv[0], len(uf) - dv[1])
            target = targets.setdefault(d, dv)
            if target != dv:
                aligned = False
                targets[d] = deg_join(target, dv)
        if aligned:
            return self
        theta = self.theta
        acc: dict[GenTerm, ExactScalar] = {}
        for t, c in self._terms.items():
            gap = deg_sub(targets[t.degree], t.v.degree)
            if gap == (0, 0):
                _accumulate(acc, t, c)
            else:
                for w in enumerate_words(theta, gap):
                    _accumulate(acc, _term((concat(theta, t.u, w), concat(theta, t.v, w))), c)
        return Element._of(theta, acc)

    def is_zero(self) -> bool:
        return self.canonicalize().is_empty

    def equals(self, other: "Element") -> bool:
        self._require_same_theta(other)
        return (self - other).is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.equals(other)

    __hash__ = None  # algebraic equality is not hash-compatible

    # --- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for t, c in self.sorted_terms():
            if c.is_one:
                parts.append(str(t))
            else:
                parts.append(f"({c})*{t}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Element({self})"


def _accumulate(acc: dict[GenTerm, ExactScalar], t: GenTerm, c: ExactScalar) -> None:
    prev = acc.get(t)
    if prev is None:
        if not c.is_zero:
            acc[t] = c
    else:
        s = prev + c
        if s.is_zero:
            del acc[t]
        else:
            acc[t] = s


def mul(a: Element, b: Element) -> Element:
    """Exact product via common extensions, canonicalized.

    A pair (s_{u1} s_{v1}*)(s_{u2} s_{v2}*) contributes only if v1 w1 = u2 w2
    = z for some w1, w2. By unique factorization z has one prefix of degree
    meet = d(v1) ^ d(u2), and it is the prefix of v1 and of u2 at meet; a
    pair whose prefixes differ there has no common extension, so skipping it
    is exact. The right operand is grouped by d(u2); each class is bucketed
    by the prefix of u2 at each meet the left operand asks for (built once
    per (class, meet) on first use), and only the bucket of v1's prefix is
    scanned. A word whose degree is the meet is its own prefix there; any
    other bucket key and v1's prefix are read through `prefix_at`, so a
    split that the kernel made for the table once, in this call or an
    earlier one, comes from the table's prefix memo. The common-extension
    cache decides every surviving pair, and an empty extension block is
    not joined.
    """
    a._require_same_theta(b)
    theta = a.theta
    acc: dict[GenTerm, ExactScalar] = {}
    classes: dict[Degree, list[tuple[Word, Word, ExactScalar]]] = {}
    for (u2, v2), c2 in b._terms.items():
        classes.setdefault((len(u2.e_block), len(u2.f_block)), []).append((u2, v2, c2))
    buckets: dict[tuple[Degree, Degree], dict[Word, list]] = {}
    for (u1, v1), c1 in a._terms.items():
        p, q = len(v1.e_block), len(v1.f_block)
        for dc, members in classes.items():
            e2, f2 = dc
            meet = (p if p < e2 else e2, q if q < f2 else f2)
            bucket = buckets.get((dc, meet))
            if bucket is None:
                bucket = buckets[(dc, meet)] = {}
                if meet == dc:  # u2 is its own prefix at the meet
                    for member in members:
                        bucket.setdefault(member[0], []).append(member)
                else:
                    for member in members:
                        bucket.setdefault(prefix_at(theta, member[0], meet), []).append(member)
            for u2, v2, c2 in bucket.get(v1 if meet == (p, q) else prefix_at(theta, v1, meet), ()):
                # multiply the coefficients only for pairs that meet
                exts = _common_extensions_cached(theta, u2, v1)
                if not exts:
                    continue
                c = c1 * c2
                for w1, w2 in exts:
                    # an empty extension leaves its word as it stands
                    _accumulate(acc, _term((
                        concat(theta, u1, w1) if w1 != EMPTY_WORD else u1,
                        concat(theta, v2, w2) if w2 != EMPTY_WORD else v2,
                    )), c)
    return Element._of(theta, acc).canonicalize()


def raise_level(theta: Permutation2D, t: GenTerm, delta: Degree) -> Element:
    """Defect-free expansion: s_u s_v* = sum over d(w)=delta of s_{uw} s_{vw}*."""
    acc = {
        _term((concat(theta, t.u, w), concat(theta, t.v, w))): ExactScalar.one()
        for w in enumerate_words(theta, delta)
    }
    return Element(theta, acc)


def degree_component(a: Element, delta: Degree) -> Element:
    """Projection onto the terms of degree difference delta.

    Rewriting never mixes degree differences, so the projection is
    well-defined on any representation. delta = (0, 0) is the expectation
    onto the gauge-invariant core.
    """
    return Element(
        a.theta,
        {t: c for t, c in a._terms.items() if t.degree == delta},
    )


def support_degrees(a: Element) -> set[Degree]:
    """Degree differences present in the canonical form."""
    return {t.degree for t in a.canonicalize()._terms}


def _unit_gaussian(x, what: str) -> ExactScalar:
    """x as an ExactScalar of modulus one; x is an ExactScalar or an (re, im)
    pair of rationals, and a refusal names `what` (say "phases"). |x| = 1 is
    decided on the int triple (re, im, den): re^2 + im^2 == den^2."""
    if not isinstance(x, ExactScalar):
        try:
            re, im = x
            x = ExactScalar.gaussian(re, im)
        except (TypeError, ValueError, ZeroDivisionError):
            raise MalformedInput(f"{what} must be ExactScalars or (re, im) pairs, "
                                 f"got {x!r}") from None
    if x._terms.keys() - {()}:
        raise NotUnitModulus(f"{what} must be plain Gaussian rationals, got {x}")
    re, im, den = x._terms.get((), (0, 0, 1))
    if re * re + im * im != den * den:
        raise NotUnitModulus(f"{what} must have modulus one: "
                             f"|t|^2 = {Fraction(re * re + im * im, den * den)} != 1")
    return x


def gauge(a: Element, t) -> Element:
    """The torus action: scales s_u s_v* by t^(d(u) - d(v)), exactly.

    `t` is a pair of unit-modulus Gaussian rationals, each given as an
    ExactScalar or an (re, im) pair.
    """
    g1, g2 = (_unit_gaussian(x, "torus points") for x in t)
    acc = {}
    for term, c in a._terms.items():
        d1, d2 = term.degree
        acc[term] = c * g1 ** d1 * g2 ** d2
    # unit-modulus factors keep every coefficient nonzero
    return Element._of(a.theta, acc)


def gauge_float(a: Element, t: tuple[complex, complex]) -> dict[GenTerm, complex]:
    """Float-mode torus action; returns coefficient map, not an Element.

    The powers t1^d1 and t2^d2 are computed once per degree difference."""
    t1, t2 = complex(t[0]), complex(t[1])
    powers: dict[Degree, tuple[complex, complex]] = {}
    out = {}
    for term, c in a._terms.items():
        (ue, uf), (ve, vf) = term
        d = (len(ue) - len(ve), len(uf) - len(vf))
        pw = powers.get(d)
        if pw is None:
            pw = powers[d] = (t1 ** d[0], t2 ** d[1])
        out[term] = c.to_complex() * pw[0] * pw[1]
    return out


def is_unitary(a: Element) -> bool:
    """True iff a a* = I = a* a exactly."""
    one = Element.unit(a.theta)
    star = a.adjoint()
    return (mul(a, star) - one).is_zero() and (mul(star, a) - one).is_zero()


def in_subalgebra(a: Element, which: str, level: int | None = None) -> bool:
    """Membership in the gauge-invariant core ("core") or its diagonal
    ("diagonal"), decided on the canonical form.

    With `level` = k the word degrees are additionally required to fit
    inside (k, k). Raising maps diagonal terms to diagonal terms injectively,
    so the structural tests below are faithful.
    """
    if which not in ("core", "diagonal"):
        raise ValueError(f"which must be 'core' or 'diagonal', got {which!r}")
    canon = a.canonicalize()
    for t in canon._terms:
        if t.degree != (0, 0):
            return False
        if which == "diagonal" and t.u != t.v:
            return False
        if level is not None and not deg_le(t.v.degree, (level, level)):
            return False
    return True


def permutation_unitary(
    theta: Permutation2D,
    delta: Degree,
    perm: Iterable[int] | None = None,
    phases: Iterable | None = None,
) -> Element:
    """sum over k of phase_k * s_{w_{perm(k)}} s_{w_k}* on the degree-delta words.

    `perm` is a list of image indices (identity when omitted); phases are
    unit-modulus Gaussian rationals (all 1 when omitted). The result is
    always unitary.
    """
    words = enumerate_words(theta, delta)
    size = len(words)
    perm = list(range(size)) if perm is None else list(perm)
    if sorted(perm) != list(range(size)):
        raise NotAPermutation(f"expected a permutation of 0..{size - 1}")
    if phases is None:
        phase_list = [ExactScalar.one()] * size
    else:
        phase_list = [_unit_gaussian(ph, "phases") for ph in phases]
        if len(phase_list) != size:
            raise NotAPermutation(f"expected {size} phases, got {len(phase_list)}")
    acc = {
        GenTerm(words[perm[k]], words[k]): phase_list[k] for k in range(size)
    }
    return Element(theta, acc)
