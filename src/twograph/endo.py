"""Unital endomorphisms from twisted unitary pairs.

A pair of unitaries (U, V) is *twisted* when U shift_e(V) = V shift_f(U),
where shift_e and shift_f are the canonical endomorphisms of multidegree
(1, 0) and (0, 1). Twisted pairs are exactly the pairs for which

    s_{e_i} -> U s_{e_i},   s_{f_j} -> V s_{f_j}

extends to a unital endomorphism; the inverse direction recovers the pair
from the generator images as (sum lam(s_{e_i}) s_{e_i}*,
sum lam(s_{f_j}) s_{f_j}*). The canonical endomorphisms act termwise by

    s_w s_u s_v* s_w* = s_{wu} s_{wv}*,

with no element product. The pair holds only U and V; the derived unitary
W = U shift_e(V), which determines the action on all words of degree (1, 1)
(lam(s_w) = W s_w), is built where it is read. `UnitaryPair(u, v)` decides
twistedness through `twisted_check`; `compose`, `pair_product`, `inner_pair`
and `pair_from_generator_map` build their pairs without a decision, each
trusting the theorem it names. Composition multiplies pairs by
(U2, V2) . (U1, V1) = (lam2(U1) U2, lam2(V1) V2), and conjugation by a
unitary W corresponds to the pair (W shift_e(W)*, W shift_f(W)*).

Since the canonical endomorphism lam_(1,1) of degree (1, 1) gives
lam_(1,1)(W) s_w = s_w W, a word u of degree (k, k) maps to
lam(s_u) = P s_u with the cascade unitary P = W lam_(1,1)(W) ...
lam_(1,1)^(k-1)(W). `ad_product_check` decides these N word identities as
the one identity P = sum_u lam(s_u) s_u*, which implies conjugation by P
on all N^2 generators of the level-k core.

The subalgebra-preservation questions are answered here only at finite
level: the checks run over a spanning set of the level-k core (or its
diagonal) and are necessary conditions for the full statements.
"""

from __future__ import annotations

from .algebra import (
    Element,
    GenTerm,
    _accumulate,
    _term,
    in_subalgebra,
    is_unitary,
    mul,
    permutation_unitary,
)
from .errors import (
    MalformedInput,
    NotTwisted,
    NotUnitary,
    RelationsViolated,
    ThetaMismatch,
    WrongTheta,
)
from .scalar import ExactScalar
from .semigroup import (
    EMPTY_WORD,
    Degree,
    Permutation2D,
    Word,
    concat,
    enumerate_words,
    make_theta,
)


def canonical_endomorphism_apply(theta: Permutation2D, p: int, q: int, x: Element) -> Element:
    """The canonical endomorphism of multidegree (p, q):
    X -> sum over d(w) = (p, q) of s_w X s_w*.

    Each term maps to s_w s_u s_v* s_w* = s_{wu} s_{wv}*. By unique
    factorization the images of distinct (w, term) are distinct, so the
    coefficients are copied without merging.
    """
    if x.theta != theta:
        raise ThetaMismatch("element lives over a different table")
    acc: dict[GenTerm, ExactScalar] = {}
    for w in enumerate_words(theta, (p, q)):
        for t, c in x._terms.items():
            acc[_term((concat(theta, w, t.u), concat(theta, w, t.v)))] = c
    return Element._of(theta, acc).canonicalize()


def shift_e(x: Element) -> Element:
    """Canonical endomorphism of multidegree (1, 0)."""
    return canonical_endomorphism_apply(x.theta, 1, 0, x)


def shift_f(x: Element) -> Element:
    """Canonical endomorphism of multidegree (0, 1)."""
    return canonical_endomorphism_apply(x.theta, 0, 1, x)


def twisted_check(u: Element, v: Element) -> tuple[bool, Element | None]:
    """Whether (u, v) is a twisted unitary pair; the one place the twist is
    decided.

    Returns (True, None) on success and (False, residual) with the nonzero
    residual u*shift_e(v) - v*shift_f(u) (or None if a unitarity check
    failed first; an operand passed as both u and v is checked once).
    """
    u._require_same_theta(v)
    if not (is_unitary(u) and (v is u or is_unitary(v))):
        return False, None
    residual = (mul(u, shift_e(v)) - mul(v, shift_f(u))).canonicalize()
    if residual.is_empty:
        return True, None
    return False, residual


class UnitaryPair:
    """A twisted pair (U, V); the pair is the whole datum of its endomorphism.

    `UnitaryPair(u, v)` decides twistedness with `twisted_check` and raises
    `NotTwisted` with the residual. `_trusted` builds a pair that a theorem
    already makes twisted; `compose`, `pair_product`, `inner_pair` and
    `pair_from_generator_map` use it, each naming its theorem.
    """

    __slots__ = ("theta", "U", "V")

    def __init__(self, u: Element, v: Element):
        twisted, residual = twisted_check(u, v)
        if residual is not None:
            raise NotTwisted(f"pair is not twisted; residual {residual}")
        if not twisted:
            raise NotTwisted("pair is not twisted")
        self.theta, self.U, self.V = u.theta, u.canonicalize(), v.canonicalize()

    @classmethod
    def _trusted(cls, u: Element, v: Element) -> "UnitaryPair":
        """The pair (u, v) without deciding it, and without a product. Each
        caller names the theorem that makes its pair twisted;
        `tests/test_random_tables.py` decides those pairs on random tables."""
        pair = cls.__new__(cls)
        pair.theta, pair.U, pair.V = u.theta, u.canonicalize(), v.canonicalize()
        return pair

    @property
    def W(self) -> Element:
        """The derived unitary W = U shift_e(V), built on each read; it gives
        the action on words of degree (1, 1): lam(s_w) = W s_w."""
        return mul(self.U, shift_e(self.V))

    @classmethod
    def identity(cls, theta: Permutation2D) -> "UnitaryPair":
        """The pair (1, 1) of the identity endomorphism."""
        one = Element.unit(theta)
        return cls._trusted(one, one)

    def equals(self, other: "UnitaryPair") -> bool:
        return self.U == other.U and self.V == other.V

    def __repr__(self) -> str:
        return f"UnitaryPair(U={self.U}, V={self.V})"


class Endomorphism:
    """A unital endomorphism given by its twisted pair; applies to elements.

    The pair is the whole datum: nothing is built up front. A letter's image
    U s_{e_i} or V s_{f_j} is made on its first read, and word images are
    built from them and memoized in the one word cache; the action on a
    generator is lam(s_u) lam(s_v)*. Well-definedness over the choice of
    spelling is guaranteed by the twisted property, which `UnitaryPair`
    decides before any pair reaches this class, or which a theorem
    guarantees for the pairs built by `UnitaryPair._trusted`.
    """

    __slots__ = ("pair", "theta", "_word_cache")

    def __init__(self, pair: UnitaryPair):
        self.pair = pair
        self.theta = pair.theta
        self._word_cache: dict[Word, Element] = {EMPTY_WORD: Element.unit(pair.theta)}

    @classmethod
    def identity(cls, theta: Permutation2D) -> "Endomorphism":
        return cls(UnitaryPair.identity(theta))

    def word_image(self, w: Word) -> Element:
        """lam(s_w), leftward from the longest cached suffix of w one letter
        image at a time, memoizing each suffix on the way; a letter's image
        is made and memoized the first time it is read."""
        cache = self._word_cache
        out = cache.get(w)
        if out is not None:
            return out
        pending = []
        while out is None:
            e, f = w
            pending.append((w, Word(e[:1], ()) if e else Word((), f[:1])))
            w = Word(e[1:], f) if e else Word((), f[1:])
            out = cache.get(w)
        for w, letter in reversed(pending):
            head = cache.get(letter)
            if head is None:
                unitary = self.pair.U if letter.e_block else self.pair.V
                head = cache[letter] = mul(unitary, Element.gen(self.theta, letter, EMPTY_WORD))
            out = cache[w] = head if w == letter else mul(head, out)
        return out

    def apply(self, x: Element) -> Element:
        """Multiplicative *-extension to the whole dense algebra."""
        if x.theta != self.theta:
            raise ThetaMismatch("element lives over a different table")
        acc: dict[GenTerm, ExactScalar] = {}
        for t, c in x._terms.items():
            img = mul(self.word_image(t.u), self.word_image(t.v).adjoint())
            for t2, c2 in img._terms.items():
                _accumulate(acc, t2, c * c2)
        return Element._of(self.theta, acc).canonicalize()

    def generator_images(self) -> tuple[dict[int, Element], dict[int, Element]]:
        """Fresh dicts {i: lam(s_{e_i})} and {j: lam(s_{f_j})}."""
        theta = self.theta
        return ({i: self.word_image(Word((i,), ())) for i in range(1, theta.m + 1)},
                {j: self.word_image(Word((), (j,))) for j in range(1, theta.n + 1)})


def endo_from_pair(u: Element, v: Element) -> Endomorphism:
    """Validate the twisted property and build the endomorphism."""
    return Endomorphism(UnitaryPair(u, v))


def pair_from_generator_map(
    theta: Permutation2D,
    e_images: dict[int, Element],
    f_images: dict[int, Element],
) -> UnitaryPair:
    """Inverse direction: recover (U, V) from prospective generator images.

    The images must satisfy the commutation relations and assemble into
    unitaries; otherwise RelationsViolated is raised.
    """
    # decided here, not by `UnitaryPair`: that gave the same records but was about
    # 2x slower on a random 10x3 table (0.116 -> 0.225 s for six pairs, CPython 3.11)
    for i in range(1, theta.m + 1):
        for j in range(1, theta.n + 1):
            i2, j2 = theta.apply(i, j)
            lhs = mul(e_images[i], f_images[j])
            rhs = mul(f_images[j2], e_images[i2])
            if not (lhs - rhs).is_zero():
                raise RelationsViolated(
                    f"images of e{i} f{j} and f{j2} e{i2} disagree"
                )
    u = Element.zero(theta)
    for i in range(1, theta.m + 1):
        u = u + mul(e_images[i], Element.gen(theta, EMPTY_WORD, Word((i,), ())))
    v = Element.zero(theta)
    for j in range(1, theta.n + 1):
        v = v + mul(f_images[j], Element.gen(theta, EMPTY_WORD, Word((), (j,))))
    if not (is_unitary(u) and is_unitary(v)):
        raise RelationsViolated("images do not assemble into unitaries")
    # twisted without a second decision: X_i = u s_{e_i} and Y_j = v s_{f_j},
    # because s_{e_i}* s_{e_k} = [i = k]; so the m n relations
    # X_i Y_j = Y_{j'} X_{i'} say u shift_e(v) s_w = v shift_f(u) s_w for
    # every word w of degree (1, 1), and sum_w s_w s_w* = 1 turns that into
    # the twist identity
    return UnitaryPair._trusted(u, v)


def canonical_pair(theta: Permutation2D, p: int, q: int) -> UnitaryPair:
    """The twisted pair of the canonical endomorphism of multidegree (p, q):

        U = sum_i sum_{d(w)=(p,q)} s_{w e_i} s_{e_i w}*,
        V = sum_j sum_{d(w)=(p,q)} s_{w f_j} s_{f_j w}*.

    A pair that is not twisted is refused with `NotTwisted`, whose text
    names the degree: `(p,q)=(1,0): pair is not twisted...` for (1, 0).
    """
    words = enumerate_words(theta, (p, q))
    one = ExactScalar.one()
    u_terms: dict[GenTerm, ExactScalar] = {}
    v_terms: dict[GenTerm, ExactScalar] = {}
    for w in words:
        for i in range(1, theta.m + 1):
            ei = Word((i,), ())
            u_terms[GenTerm(concat(theta, w, ei), concat(theta, ei, w))] = one
        for j in range(1, theta.n + 1):
            fj = Word((), (j,))
            v_terms[GenTerm(concat(theta, w, fj), concat(theta, fj, w))] = one
    try:
        return UnitaryPair(Element(theta, u_terms), Element(theta, v_terms))
    except NotTwisted as exc:
        raise NotTwisted(f"(p,q)=({p},{q}): {exc}") from None


def canonical_endomorphism(theta: Permutation2D, p: int, q: int) -> Endomorphism:
    return Endomorphism(canonical_pair(theta, p, q))


def compose(outer: Endomorphism, inner: Endomorphism) -> UnitaryPair:
    """Pair of the composite outer o inner:
    (outer(U1) U2, outer(V1) V2) for inner pair (U1, V1), outer pair (U2, V2).

    The pair is twisted without a decision: unital endomorphisms and twisted
    pairs are isomorphic semigroups, and the composite of two unital
    endomorphisms is one whose pair is this product."""
    if outer.theta != inner.theta:
        raise ThetaMismatch("endomorphisms live over different tables")
    u = mul(outer.apply(inner.pair.U), outer.pair.U)
    v = mul(outer.apply(inner.pair.V), outer.pair.V)
    return UnitaryPair._trusted(u, v)


def pair_product(p2: UnitaryPair, p1: UnitaryPair) -> UnitaryPair:
    """Semigroup product on twisted pairs, mirroring composition."""
    return compose(Endomorphism(p2), Endomorphism(p1))


def inner_pair(w: Element) -> UnitaryPair:
    """The twisted pair (W shift_e(W)*, W shift_f(W)*) of conjugation by W.

    The pair is twisted without a decision once W is decided unitary: Ad W
    is a unital endomorphism, and this is its pair."""
    if not is_unitary(w):
        raise NotUnitary("conjugation requires a unitary")
    u = mul(w, shift_e(w).adjoint())
    v = mul(w, shift_f(w).adjoint())
    return UnitaryPair._trusted(u, v)


def automorphism_witness_check(
    endo: Endomorphism, u0: Element, v0: Element
) -> bool:
    """Verify candidate witnesses for invertibility: lam(U0) = U* and
    lam(V0) = V* exactly. (Being an automorphism in general is not decided.)"""
    return (
        endo.apply(u0) == endo.pair.U.adjoint()
        and endo.apply(v0) == endo.pair.V.adjoint()
    )


def _cascade_unitary(endo: Endomorphism, k: int) -> Element:
    """W * lam_(1,1)(W) * ... * lam_(1,1)^(k-1)(W)."""
    theta = endo.theta
    w = endo.pair.W
    acc = w
    stage = w
    for _ in range(1, k):
        stage = canonical_endomorphism_apply(theta, 1, 1, stage)
        acc = mul(acc, stage)
    return acc


def ad_product_check(endo: Endomorphism, k: int) -> bool:
    """Exact finite identity on the level-k core: lam(s_u) = P s_u for every
    word u of degree (k, k), P the cascade unitary.

    The N word identities hold iff P = sum_u lam(s_u) s_u*, which is decided
    as one identity: s_u* s_u' = [u = u'] on one degree and
    sum_u s_u s_u* = 1, and the sum is termwise, since each term s_x s_y* of
    lam(s_u) gives s_x s_{uy}*. No product against P is formed. The word
    identities imply conjugation by P on all N^2 generators s_u s_v* of the
    core: `apply(s_u s_v*)` is lam(s_u) lam(s_v)*, and
    (P s_u)(P s_v)* = P s_u s_v* P*. Every endomorphism built from a
    twisted pair satisfies them: lam(s_w) = W s_w on degree (1, 1), and the
    canonical endomorphism lam_(1,1) of degree (1, 1) gives
    lam_(1,1)(W) s_w = s_w W.
    """
    if k < 1:
        raise MalformedInput("level must be >= 1")
    theta = endo.theta
    acc: dict[GenTerm, ExactScalar] = {}
    for u in enumerate_words(theta, (k, k)):
        for (x, y), c in endo.word_image(u)._terms.items():
            _accumulate(acc, _term((x, concat(theta, u, y))), c)
    return Element._of(theta, acc) == _cascade_unitary(endo, k)


def preserves_subalgebra(endo: Endomorphism, which: str, k: int) -> bool:
    """Level-k necessary condition for preserving the core ("core") or its
    diagonal ("diagonal"): checks membership of the image of every spanning
    generator at level k."""
    if k < 1:
        raise MalformedInput("level must be >= 1")
    theta = endo.theta
    words = enumerate_words(theta, (k, k))
    if which == "core":
        pairs = ((u, v) for u in words for v in words)
    elif which == "diagonal":
        pairs = ((w, w) for w in words)
    else:
        raise ValueError(f"which must be 'core' or 'diagonal', got {which!r}")
    for u, v in pairs:
        img = endo.apply(Element.gen(theta, u, v))
        if not in_subalgebra(img, which):
            return False
    return True


# --- built-in example pairs -------------------------------------------------

def _mixing_unitary(theta: Permutation2D) -> Element:
    """sum_j s_{f_j} s_{e_j}*; needs m = n."""
    acc = {
        GenTerm(Word((), (j,)), Word((j,), ())): ExactScalar.one()
        for j in range(1, theta.m + 1)
    }
    return Element(theta, acc)


def gallery(theta: Permutation2D, name: str, u: Element | None = None, v: Element | None = None) -> UnitaryPair:
    """Built-in example pairs. The table and the commuting hypotheses are
    decided here (`WrongTheta`), unitarity and the twist in `UnitaryPair`.

    ex39   flip table, m = n: (U, U) for any supplied unitary U
           (default: the flip-flop on the first two e-generators).
    ex310  any table: a supplied pair (U, V) with U V = V U, U commuting
           with every s_{f_j} and V with every s_{e_i} (default: scalar
           pair (iI, iI)).
    ex311  identity table: U a unitary word in the e-generators only, V in
           the f-generators only (defaults: flip-flops); checked as ex310.
    ex312  flip table, m = n: the central mixing unitary
           U = sum_j s_{f_j} s_{e_j}* with pair (U, U*).
    ex313  identity table, m = n: same U with pair (U, U*).
    """
    # the table each example needs; all but ex311 also need m = n
    table = {"ex39": "flip", "ex311": "identity", "ex312": "flip", "ex313": "identity"}.get(name)
    if table is not None:
        _require(theta.m == theta.n or name == "ex311", f"{name} needs m = n")
        _require(theta == make_theta(theta.m, theta.n, table), f"{name} needs the {table} table")
    if name == "ex39":
        u = _default_flipflop(theta, (1, 0)) if u is None else u
        return UnitaryPair(u, u)
    if name == "ex310":
        if u is None or v is None:
            scalar_i = Element.unit(theta).scaled(ExactScalar.imag_unit())
            u = scalar_i if u is None else u
            v = scalar_i if v is None else v
        _check_commuting_hypotheses(theta, u, v)
        return UnitaryPair(u, v)
    if name == "ex311":
        u = _default_flipflop(theta, (1, 0)) if u is None else u
        v = _default_flipflop(theta, (0, 1)) if v is None else v
        _require(all(not t.u.f_block and not t.v.f_block for t in u._terms),
                 "ex311 needs U in the e-generated subalgebra")
        _require(all(not t.u.e_block and not t.v.e_block for t in v._terms),
                 "ex311 needs V in the f-generated subalgebra")
        _check_commuting_hypotheses(theta, u, v)
        return UnitaryPair(u, v)
    if name in ("ex312", "ex313"):
        w = _mixing_unitary(theta)
        return UnitaryPair(w, w.adjoint())
    raise WrongTheta(f"unknown gallery name {name!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongTheta(message)


def _default_flipflop(theta: Permutation2D, delta: Degree) -> Element:
    """Swap the first two generators of degree delta, (1, 0) or (0, 1)."""
    kind, size = ("e", theta.m) if delta == (1, 0) else ("f", theta.n)
    _require(size >= 2, f"default flip-flop needs at least two {kind}-generators")
    perm = list(range(size))
    perm[0], perm[1] = perm[1], perm[0]
    return permutation_unitary(theta, delta, perm)


def _check_commuting_hypotheses(theta: Permutation2D, u: Element, v: Element) -> None:
    if not (mul(u, v) - mul(v, u)).is_zero():
        raise WrongTheta("U and V do not commute")
    letters = [("U", u, Word((), (j,))) for j in range(1, theta.n + 1)]
    letters += [("V", v, Word((i,), ())) for i in range(1, theta.m + 1)]
    for name, x, letter in letters:
        s = Element.gen(theta, letter, EMPTY_WORD)
        if not (mul(x, s) - mul(s, x)).is_zero():
            raise WrongTheta(f"{name} does not commute with the {letter} isometry")
