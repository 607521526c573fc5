"""Brute-force cross-check model: generators acting on words.

Standard generators act on the graded set of all words z:

    s_u s_v* : z  ->  u z'   if z = v z' (unique factorization),
                      nothing otherwise.

`act` and `act_term` are this definition, word by word: they factor z at
d(v) and keep the image only when the head is v. They are the reference.
The comparisons use `action`, which gets the same rows by walking
preimages instead. Unique factorization makes z' -> v z' a bijection from
the words of degree d(z) - d(v) onto the words of degree d(z) whose head
is v, so each term visits exactly the rows it acts on, where the
word-by-word action would factor every word of the stratum to find the
one in m^p n^q that matches.

On strata of strictly positive degree the defect-free sums act as the
identity, so comparing the sparse matrix actions of two elements on a high
enough stratum decides equality of the elements (`oracle_equal`) and
checks a symbolic product against the composed action of its factors
(`product_agrees`) — by a code path that never touches the symbolic
product or canonical form. Only the public word-level operations
(enumerate, factor, concatenate) are shared with the symbolic side. The
rows are built only for the words the operands reach, so the one limit is
`MAX_WORDS` on a stratum of tails that a term walks.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, GenTerm
from .scalar import ExactScalar
from .semigroup import (
    Degree,
    Permutation2D,
    Word,
    concat,
    deg_add,
    deg_join,
    deg_le,
    deg_sub,
    enumerate_words,
    factor_at,
)


class GradedActionModel:
    """Graded action of the dense algebra on words, used as an oracle."""

    def __init__(self, theta: Permutation2D):
        self.theta = theta

    def act_term(self, t: GenTerm, z: Word) -> Word | None:
        """Image of the basis word z under s_u s_v*, or None if annihilated."""
        dv = t.v.degree
        if not deg_le(dv, z.degree):
            return None
        head, tail = factor_at(self.theta, z, dv)
        if head != t.v:
            return None
        return concat(self.theta, t.u, tail)

    def act(self, a: Element, z: Word) -> dict[Word, ExactScalar]:
        """Linear extension of the action; sparse vector keyed by words."""
        out: dict[Word, ExactScalar] = {}
        for t, c in a._terms.items():
            image = self.act_term(t, z)
            if image is not None:
                _add_to(out, image, c)
        return out

    def action(self, a: Element, degree: Degree) -> dict[Word, dict[Word, ExactScalar]]:
        """The nonzero rows {z: act(a, z)} over the words z of `degree`.

        Each term s_u s_v* with d(v) <= degree walks the tails z' of degree
        degree - d(v) and adds its coefficient at u z' in row v z'.
        """
        rows: dict[Word, dict[Word, ExactScalar]] = {}
        for t, c in a._terms.items():
            u, v = t
            if not deg_le(v.degree, degree):
                continue
            for tail in enumerate_words(self.theta, deg_sub(degree, v.degree)):
                z = concat(self.theta, v, tail)
                row = rows.get(z)
                if row is None:
                    row = rows[z] = {}
                _add_to(row, concat(self.theta, u, tail), c)
        return {z: row for z, row in rows.items() if row}

    def _evaluation_stratum(self, *elements: Element) -> Degree:
        """Max v-degree over all raw terms plus (1, 1), so defect-free sums
        act as the identity (strictly positive headroom everywhere)."""
        top = (0, 0)
        for a in elements:
            for t in a._terms:
                top = deg_join(top, t.v.degree)
        return deg_add(top, (1, 1))

    def oracle_equal(self, a: Element, b: Element) -> bool:
        """Equality of elements via their matrix actions on one stratum."""
        a._require_same_theta(b)
        degree = self._evaluation_stratum(a, b)
        return self.action(a, degree) == self.action(b, degree)

    def product_agrees(self, a: Element, b: Element, product: Element) -> bool:
        """Whether `product` acts as the composed action (b, then a) on the
        evaluation stratum of all three elements.

        The composition is built from a's side: a term s_{u2} s_{v2}* of b
        maps v2 z' to u2 z', so each row `mid` of a at b's image degree
        whose head is u2 is a row of the composite at v2 z'. Rows of b that
        a annihilates are never built, and b's own action is never read.
        """
        a._require_same_theta(b)
        a._require_same_theta(product)
        theta = self.theta
        degree = self._evaluation_stratum(a, b, product)
        composed: dict[Word, dict[Word, ExactScalar]] = {}
        for (u2, v2), c2 in b._terms.items():
            # the stratum lies above every v-degree, so each term of b acts
            image_degree = deg_add(u2.degree, deg_sub(degree, v2.degree))
            for mid, a_row in self.action(a, image_degree).items():
                head, tail = factor_at(theta, mid, u2.degree)
                if head == u2:
                    row = composed.setdefault(concat(theta, v2, tail), {})
                    for out, c_out in a_row.items():
                        _add_to(row, out, c2 * c_out)
        return {z: row for z, row in composed.items() if row} == self.action(product, degree)

    def oracle_trace(self, x: Element) -> ExactScalar:
        """Diagonal sum on the square stratum (L, L) containing x, over (m n)^L.

        x must lie in the gauge-invariant core (each raw term of degree
        difference zero); the result agrees with the distinguished state.
        """
        level = 0
        for t in x._terms:
            if t.degree != (0, 0):
                raise ValueError("trace oracle needs a core element, term "
                                 f"{t} has degree {t.degree}")
            level = max(level, t.v.degree[0], t.v.degree[1])
        total = ExactScalar.zero()
        for z, row in self.action(x, (level, level)).items():
            if z in row:
                total = total + row[z]
        return total * ExactScalar.rational(Fraction(1, (self.theta.m * self.theta.n) ** level))


def _add_to(vec: dict[Word, ExactScalar], w: Word, c: ExactScalar) -> None:
    """The oracle's one merge: add c at w, dropping the entry if it cancels."""
    total = vec[w] + c if w in vec else c
    if total.is_zero:
        vec.pop(w, None)
    else:
        vec[w] = total
