"""Named verification suites with seeded randomness and aggregated reports.

Each suite returns a `SuiteReport` whose cases carry pass counts and, on
failure, the first witness (inputs, both sides, residual). Reports are
fully determined by (theta, seed, level, samples).

Every case is recorded through `SuiteReport.run` from one outcome per
decision, in order: None when the decision held, else its witness string.
A sampled case is a trial drawn `count` times; an exhaustive case is a
generator over its decisions. Each case consumes its outcomes before the
next case draws, so the seeded draws follow the order of the cases. The
code under check runs while `run` draws, so a package error fails a case.

This module also hosts the deliberately naive second implementations used
as oracles: a step-by-step rewriter driven directly by the table dict (for
confluence) and a brute-force common-extension filter over a full word
stratum.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from . import endo as en
from . import modular as md
from . import sampling as smp
from .algebra import (
    Element,
    GenTerm,
    degree_component,
    gauge,
    gauge_float,
    mul,
    raise_level,
    support_degrees,
)
from .errors import DegreeTooLarge, TwoGraphError
from .oracle import GradedActionModel
from .scalar import ExactScalar, power_of_base
from .semigroup import (
    EMPTY_WORD,
    Degree,
    Permutation2D,
    Word,
    common_extensions,
    concat,
    deg_join,
    deg_sub,
    enumerate_words,
    factor_at,
    normal_form,
    words_up_to,
)

SUITE_NAMES = ("semigroup", "algebra", "modular", "kms", "endo")
# a term's float flow and float gauge agree when they differ by less than this;
# at level 2,2 on the reference tables they differ by less than 1e-15
FLOAT_TOL = 1e-9


@dataclass
class CaseResult:
    case_id: str
    passed: bool
    detail: str


@dataclass
class SuiteReport:
    name: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def add(self, case_id: str, total: int, failures: list[str]) -> None:
        detail = f"{total - len(failures)}/{total} exact"
        if failures:
            detail += f"; first witness: {failures[0]}"
        self.cases.append(CaseResult(case_id, not failures, detail))

    def run(self, case_id: str, outcomes: Iterable[str | None]) -> None:
        """Record a case from one outcome per decision: None when the
        decision held, else its witness. k of the N decisions passed, so
        0 <= k <= N, and the first failed decision's witness is shown.

        A `TwoGraphError` raised while a decision is drawn is that
        decision's failure, with the error's text as its witness, and ends
        the case. `DegreeTooLarge` propagates: a stratum over `MAX_WORDS` is
        the checker's own limit, not the code under check wrong. Any other
        exception is a bug and propagates."""
        drawn = []
        try:
            for outcome in outcomes:
                drawn.append(outcome)
        except DegreeTooLarge:
            raise
        except TwoGraphError as exc:
            drawn.append(str(exc))
        self.add(case_id, len(drawn), [o for o in drawn if o is not None])


def _trials(count: int, trial: Callable[[], str | None]) -> Iterator[str | None]:
    """The outcomes of a sampled case: `count` draws of `trial`."""
    return (trial() for _ in range(count))


# --- independent oracles -----------------------------------------------------

def naive_normal_form(
    theta: Permutation2D, letters, order: str = "ltr", rng: random.Random | None = None
) -> tuple[Word, bool]:
    """One-step-at-a-time rewriter driven by the table entries (`apply`).

    Rewrites a single adjacent (f, e) pair per step, site chosen by
    `order` in {"ltr", "rtl", "random"}. Returns (word, degree_ok);
    degree_ok is always True, because each step swaps one f-letter with
    one e-letter and so keeps the letter counts. Deliberately independent
    of the kernel.
    """
    inv = {theta.apply(i, j): (i, j)
           for i in range(1, theta.m + 1) for j in range(1, theta.n + 1)}
    seq = list(letters)
    while True:
        sites = [k for k in range(len(seq) - 1) if seq[k] < 0 < seq[k + 1]]
        if not sites:
            break
        if order == "ltr":
            k = sites[0]
        elif order == "rtl":
            k = sites[-1]
        elif order == "random":
            k = rng.choice(sites)
        else:
            raise ValueError(f"unknown order {order!r}")
        j2, i2 = -seq[k], seq[k + 1]
        i, j = inv[(i2, j2)]
        seq[k], seq[k + 1] = i, -j
    es = tuple(x for x in seq if x > 0)
    fs = tuple(-x for x in seq if x < 0)
    return Word(es, fs), True


def brute_force_common_extensions(
    theta: Permutation2D, u: Word, v: Word
) -> list[tuple[Word, Word]]:
    """Filter a full stratum for words with the two prescribed prefixes."""
    join = deg_join(u.degree, v.degree)
    out = []
    for z in enumerate_words(theta, join):
        head_v, w1 = factor_at(theta, z, v.degree)
        if head_v != v:
            continue
        head_u, w2 = factor_at(theta, z, u.degree)
        if head_u != u:
            continue
        out.append((w1, w2))
    return sorted(out, key=lambda pair: (pair[0].key, pair[1].key))


# --- suites ----------------------------------------------------------------

def semigroup_suite(
    theta: Permutation2D, seed: int, level: Degree, samples: int
) -> SuiteReport:
    rng = smp.rng_from_seed(seed)
    report = SuiteReport("semigroup")

    degree_outcomes = []  # degree-conservation decides on the same draws

    def three_orders():
        letters = smp.random_letters(rng, theta, rng.randint(0, 8))
        results = [naive_normal_form(theta, letters, order, rng)[0]
                   for order in ("ltr", "rtl", "random")]
        kernel_word = normal_form(theta, letters)
        counts = (sum(1 for x in letters if x > 0), sum(1 for x in letters if x < 0))
        degree_outcomes.append(None if kernel_word.degree == counts else f"letters={letters}")
        if not results[0] == results[1] == results[2] == kernel_word:
            return f"letters={letters} -> {[str(w) for w in results]} vs kernel {kernel_word}"

    report.run("confluence-3-orders", _trials(5 * samples, three_orders))
    report.run("degree-conservation", degree_outcomes)

    words = words_up_to(theta, level)
    splits = [
        (w, a, b) for w in words
        for a in range(w.degree[0] + 1) for b in range(w.degree[1] + 1)
    ]

    def round_trip(w, a, b):
        w1, w2 = factor_at(theta, w, (a, b))
        if concat(theta, w1, w2) != w or w1.degree != (a, b):
            return f"w={w} delta=({a},{b}) -> ({w1},{w2})"
    report.run("factor-round-trip", (round_trip(*split) for split in splits))

    def unique_splits():
        # each split degree (a, b) of d joins the |S(d)| block pairs of
        # S(a, b) x S(d - (a, b)) once, when the first word of degree d asks
        # for it; then each word of d reads its count. Only the counts of one
        # degree are kept.
        degree, counts = None, {}
        for w, a, b in splits:
            if w.degree != degree:
                degree, counts = w.degree, {}
            count = counts.get((a, b))
            if count is None:
                rests = enumerate_words(theta, deg_sub(degree, (a, b)))
                count = counts[(a, b)] = Counter(
                    concat(theta, w1, w2) for w1 in enumerate_words(theta, (a, b)) for w2 in rests
                )
            hits = count[w]
            yield None if hits == 1 else f"w={w} delta=({a},{b}) has {hits} splits"
    report.run("factor-uniqueness", unique_splits())

    by_degree: dict[Degree, list[Word]] = {}
    for w in words:
        by_degree.setdefault(w.degree, []).append(w)
    report.run("cancellativity", (
        None if len({concat(theta, w, a) for a in group}) == len(group)
        else f"left factor {w} collapses degree class"
        for w in words for group in by_degree.values()
    ))

    def extensions():
        u = smp.random_word(rng, theta, level)
        v = smp.random_word(rng, theta, level)
        fast = sorted(common_extensions(theta, u, v), key=lambda p: (p[0].key, p[1].key))
        brute = brute_force_common_extensions(theta, u, v)
        if fast != brute:
            return f"u={u} v={v}: {len(fast)} vs {len(brute)} pairs"
    report.run("common-extensions-vs-brute", _trials(samples, extensions))
    return report


def algebra_suite(
    theta: Permutation2D, seed: int, level: Degree, samples: int
) -> SuiteReport:
    rng = smp.rng_from_seed(seed)
    report = SuiteReport("algebra")
    one = Element.unit(theta)

    def associativity():
        a = smp.random_element(rng, theta, level)
        b = smp.random_element(rng, theta, level)
        c = smp.random_element(rng, theta, level)
        if not (mul(mul(a, b), c) - mul(a, mul(b, c))).is_zero():
            return f"A={a} B={b} C={c}"
    report.run("associativity", _trials(samples, associativity))

    def unit_and_involution():
        a = smp.random_element(rng, theta, level)
        b = smp.random_element(rng, theta, level)
        ok = (
            (mul(one, a) - a).is_zero()
            and (mul(a, one) - a).is_zero()
            and (mul(a, b).adjoint() - mul(b.adjoint(), a.adjoint())).is_zero()
            and (a.adjoint().adjoint() - a).is_zero()
        )
        if not ok:
            return f"A={a} B={b}"
    report.run("unit-and-involution", _trials(samples, unit_and_involution))

    def raising():
        t = GenTerm(
            smp.random_word(rng, theta, level), smp.random_word(rng, theta, level)
        )
        delta = (rng.randint(0, 1), rng.randint(0, 1))
        raised = raise_level(theta, t, delta)
        base = Element(theta, {t: ExactScalar.one()})
        if not (raised - base).is_zero():
            return f"t={t} delta={delta}"
    report.run("defect-free-raising", _trials(samples, raising))

    def product_rule():
        a = smp.random_element(rng, theta, level, terms=2)
        b = smp.random_element(rng, theta, level, terms=2)
        product = mul(a, b)
        degrees = {(0, 0)}  # always test (0,0)
        degrees.update(
            (da[0] + db[0], da[1] + db[1])
            for da in support_degrees(a)
            for db in support_degrees(b)
        )
        for delta in sorted(degrees):
            lhs = degree_component(product, delta)
            rhs = Element.zero(theta)
            for da in support_degrees(a):
                db = deg_sub(delta, da)
                rhs = rhs + mul(degree_component(a, da), degree_component(b, db))
            if not (lhs - rhs).is_zero():
                return f"A={a} B={b} delta={delta}"
    report.run("grading-product-rule", _trials(samples, product_rule))

    def gauge_automorphism():
        a = smp.random_element(rng, theta, level, terms=2)
        b = smp.random_element(rng, theta, level, terms=2)
        t = (rng.choice(smp.FOURTH_ROOTS), rng.choice(smp.FOURTH_ROOTS))
        s = (rng.choice(smp.FOURTH_ROOTS), rng.choice(smp.FOURTH_ROOTS))
        ts = (t[0] * s[0], t[1] * s[1])
        ok = (
            (gauge(mul(a, b), t) - mul(gauge(a, t), gauge(b, t))).is_zero()
            and (gauge(a.adjoint(), t) - gauge(a, t).adjoint()).is_zero()
            and (gauge(gauge(a, s), t) - gauge(a, ts)).is_zero()
        )
        if not ok:
            return f"A={a} t={tuple(map(str, t))}"
    report.run("gauge-star-automorphism", _trials(samples, gauge_automorphism))

    def bimodule():
        a = smp.random_core_element(rng, theta, 1, terms=2)
        b = smp.random_core_element(rng, theta, 1, terms=2)
        x = smp.random_element(rng, theta, level, terms=2)
        lhs = degree_component(mul(mul(a, x), b), (0, 0)).canonicalize()
        rhs = mul(mul(a, degree_component(x, (0, 0))), b)
        if not (lhs - rhs).is_zero():
            return f"A={a} X={x} B={b}"
    report.run("core-expectation-bimodule", _trials(samples, bimodule))

    model = GradedActionModel(theta)

    def product_vs_oracle():
        t1 = GenTerm(smp.random_word(rng, theta, level), smp.random_word(rng, theta, level))
        t2 = GenTerm(smp.random_word(rng, theta, level), smp.random_word(rng, theta, level))
        a = Element(theta, {t1: smp.random_coeff(rng)})
        b = Element(theta, {t2: smp.random_coeff(rng)})
        if not model.product_agrees(a, b, mul(a, b)):
            return f"t1={t1} t2={t2}"
    report.run("product-vs-oracle", _trials(samples, product_vs_oracle))

    def trace_vs_oracle():
        x = smp.random_core_element(rng, theta, 2, terms=3)
        if model.oracle_trace(x) != md.omega(x):
            return f"X={x}"
    report.run("state-vs-oracle-trace", _trials(samples, trace_vs_oracle))
    return report


def modular_suite(
    theta: Permutation2D, seed: int, level: Degree, samples: int
) -> SuiteReport:
    rng = smp.rng_from_seed(seed)
    report = SuiteReport("modular")

    def compression():
        degree = smp.random_degree(rng, level)
        u = rng.choice(enumerate_words(theta, degree))
        v = rng.choice(enumerate_words(theta, degree))
        x = smp.random_core_element(rng, theta, 2, terms=2)
        su = Element.gen(theta, u, EMPTY_WORD)
        sv_star = Element.gen(theta, EMPTY_WORD, v)
        lhs = md.omega(mul(mul(su, x), sv_star))
        expected = (
            md.omega(x) * power_of_base(theta, degree, -1) if u == v else ExactScalar.zero()
        )
        if lhs != expected:
            return f"u={u} v={v} X={x}: {lhs} vs {expected}"
    report.run("compression-trace-identity", _trials(samples, compression))

    def commutativity():
        x = smp.random_core_element(rng, theta, 1, terms=3)
        y = smp.random_core_element(rng, theta, 2, terms=2)
        if md.omega(mul(x, y)) != md.omega(mul(y, x)):
            return f"X={x} Y={y}"
    report.run("trace-commutativity-on-core", _trials(samples, commutativity))

    def gauge_invariance():
        a = smp.random_element(rng, theta, level)
        t = (rng.choice(smp.FOURTH_ROOTS), rng.choice(smp.FOURTH_ROOTS))
        if md.omega(gauge(a, t)) != md.omega(a):
            return f"A={a} t={tuple(map(str, t))}"
    report.run("state-gauge-invariance", _trials(samples, gauge_invariance))

    def adjoint_pairing():
        a = smp.random_element(rng, theta, level, terms=2)
        b = smp.random_element(rng, theta, level, terms=2)
        if md.inner(md.tomita_s(a), b) != md.inner(md.tomita_f(b), a):
            return f"A={a} B={b}"
    report.run("involution-adjoint-pairing", _trials(samples, adjoint_pairing))

    half = Fraction(1, 2)

    def polar(t):
        x = Element(theta, {t: ExactScalar.gaussian(1, -1)})
        ok = (
            (md.tomita_s(x) - md.modular_conjugation(md.modular_power(half, x))).is_zero()
            and (md.tomita_f(x) - md.modular_conjugation(md.modular_power(-half, x))).is_zero()
            and (md.modular_power(1, x) - md.tomita_f(md.tomita_s(x))).is_zero()
            and (md.modular_conjugation(md.modular_conjugation(x)) - x).is_zero()
        )
        if not ok:
            return f"t={t}"

    small = words_up_to(theta, (1, 1))
    report.run("polar-relations", (polar(GenTerm(u, v)) for u in small for v in small))

    exponents = [Fraction(1), Fraction(-1), half, Fraction(2)]

    def multiplicative():
        a = smp.random_element(rng, theta, level, terms=2)
        b = smp.random_element(rng, theta, level, terms=2)
        ab = mul(a, b)
        ok = all(
            (md.modular_power(z, ab)
             - mul(md.modular_power(z, a), md.modular_power(z, b))).is_zero()
            for z in exponents
        )
        if not ok:
            return f"A={a} B={b}"
    report.run("modular-powers-multiplicative", _trials(samples, multiplicative))

    def gram_positivity():
        basis = smp.random_independent_basis(rng, theta, rng.randint(2, 8), level)
        if not md.gram_is_positive_definite(md.gram_matrix(basis)):
            return f"Gram matrix not positive definite on basis size {len(basis)}"
    report.run("gram-positivity", _trials(max(1, samples // 20), gram_positivity))

    def faithfulness():
        a = smp.random_element(rng, theta, level, terms=3)
        if md.omega(mul(a.adjoint(), a)).is_zero and not a.is_zero():
            return f"A={a}"
    report.run("state-faithfulness-spot", _trials(max(1, samples // 10), faithfulness))
    return report


def kms_suite(
    theta: Permutation2D, seed: int, level: Degree, samples: int
) -> SuiteReport:
    rng = smp.rng_from_seed(seed)
    report = SuiteReport("kms")

    def kms_identity():
        a = smp.random_element(rng, theta, level)
        b = smp.random_element(rng, theta, level)
        ok, lhs, rhs = md.kms_check(a, b)
        if not ok:
            return f"A={a} B={b}: {lhs} vs {rhs}"
    report.run("kms-identity-exact", _trials(samples, kms_identity))

    words = words_up_to(theta, level)
    one = ExactScalar.one()

    times = [(t, (theta.m ** (-1j * t), theta.n ** (-1j * t))) for t in (0.37, 1.0, 3.14159)]

    def flow_vs_gauge():
        # one row {S[u;v]: 1 for every v} per call, built once for all three
        # times; both maps act termwise, so each term is compared exactly as
        # if it were flowed alone
        tol = FLOAT_TOL
        for u in words:
            row = Element(theta, {GenTerm(u, v): one for v in words})
            for t, torus_point in times:
                gauged = gauge_float(row, torus_point)
                for term, value in md.modular_flow(t, row).items():
                    residual = abs(value - gauged[term])
                    yield (None if residual < tol
                           else f"t={t} term={term} residual={residual}")
    report.run("flow-equals-gauge-float", flow_vs_gauge())

    def imaginary_time():
        a = smp.random_element(rng, theta, level)
        if md.modular_power(1, md.modular_flow("i", a)) != a:
            return f"A={a}"
    report.run("imaginary-time-flow-is-inverse-modular", _trials(samples, imaginary_time))
    return report


def endo_suite(
    theta: Permutation2D, seed: int, level: Degree, samples: int
) -> SuiteReport:
    rng = smp.rng_from_seed(seed)
    report = SuiteReport("endo")

    # s_{e_i} and s_{f_j}, in that order
    gens = [Element.gen(theta, Word((i,), ()), EMPTY_WORD) for i in range(1, theta.m + 1)]
    gens += [Element.gen(theta, Word((), (j,)), EMPTY_WORD) for j in range(1, theta.n + 1)]

    # `UnitaryPair` decides twistedness: a pair that is not twisted fails
    # this case with its degree and residual, and the later cases run on
    # the pairs that were built
    pairs = {}

    def build(p, q):
        pairs[(p, q)] = en.canonical_pair(theta, p, q)
    report.run("canonical-pairs-twisted",
               (build(p, q) for p, q in ((1, 0), (0, 1), (1, 1), (2, 1))))

    def intertwining():
        for (p, q), pair in pairs.items():
            lam = en.Endomorphism(pair)
            words = enumerate_words(theta, (p, q))
            for _ in range(max(1, samples // 2)):
                x = smp.random_element(rng, theta, level, terms=2)
                w = rng.choice(words)
                sw = Element.gen(theta, w, EMPTY_WORD)
                yield (None if (mul(lam.apply(x), sw) - mul(sw, x)).is_zero()
                       else f"(p,q)=({p},{q}) X={x} w={w}")
    report.run("canonical-intertwining", intertwining())

    def recovers(pair):
        e_imgs, f_imgs = en.Endomorphism(pair).generator_images()
        return en.pair_from_generator_map(theta, e_imgs, f_imgs).equals(pair)

    def pair_round_trips():
        for p, q in ((1, 0), (0, 1), (1, 1)):
            if (p, q) in pairs:
                yield None if recovers(pairs[(p, q)]) else f"canonical ({p},{q})"
        for _ in range(3):
            w = smp.random_unitary(rng, theta)
            yield None if recovers(en.inner_pair(w)) else f"inner pair of {w}"
    report.run("pair-endo-round-trip", pair_round_trips())

    def shift_composition():
        composite = en.compose(en.Endomorphism(pairs[(1, 0)]), en.Endomorphism(pairs[(0, 1)]))
        if not composite.equals(pairs[(1, 1)]):
            return "shift composition mismatch"
    if {(1, 0), (0, 1), (1, 1)} <= pairs.keys():
        report.run("shift-composition", _trials(1, shift_composition))

    def inner_conjugation():
        w = smp.random_unitary(rng, theta)
        lam = en.Endomorphism(en.inner_pair(w))
        w_star = w.adjoint()
        if not all((lam.apply(g) - mul(mul(w, g), w_star)).is_zero() for g in gens):
            return f"W={w}"
    report.run("inner-pairs-give-conjugation", _trials(max(1, samples // 5), inner_conjugation))

    def associative():
        p1, p2 = pairs[(1, 0)], pairs[(0, 1)]
        p3 = en.inner_pair(smp.random_unitary(rng, theta))
        lhs = en.pair_product(en.pair_product(p3, p2), p1)
        rhs = en.pair_product(p3, en.pair_product(p2, p1))
        if not lhs.equals(rhs):
            return "associativity of the pair product"
    if {(1, 0), (0, 1)} <= pairs.keys():
        report.run("pair-product-associative", _trials(1, associative))

    def gauge_conjugation():
        w = smp.random_unitary(rng, theta)
        pair = en.inner_pair(w)
        lam = en.Endomorphism(pair)
        t = (rng.choice(smp.FOURTH_ROOTS), rng.choice(smp.FOURTH_ROOTS))
        t_inv = (t[0].conjugate(), t[1].conjugate())
        lam_conj = en.Endomorphism(en.UnitaryPair(gauge(pair.U, t), gauge(pair.V, t)))
        ok = all(
            (gauge(lam.apply(gauge(g, t_inv)), t) - lam_conj.apply(g)).is_zero()
            for g in (gens[0], gens[theta.m])  # s_e1 and s_f1
        )
        if not ok:
            return f"W={w} t={tuple(map(str, t))}"
    report.run("gauge-conjugation-of-pairs", _trials(max(1, samples // 10), gauge_conjugation))

    lam_id = en.Endomorphism.identity(theta)
    lams = [("identity", lam_id)]
    if (1, 1) in pairs:
        lams.append(("canonical(1,1)", en.Endomorphism(pairs[(1, 1)])))
    report.run("conjugation-cascade-on-core", (
        None if en.ad_product_check(lam, k) else f"{label} at level {k}"
        for label, lam in lams for k in (1, 2)
    ))

    fixtures = [("identity-core", lam_id, "core", 1), ("identity-diagonal", lam_id, "diagonal", 2)]
    if (1, 1) in pairs:
        fixtures.append(("canonical11-core", lams[1][1], "core", 1))
    # every fixture must be preserved; a witness reads `<label>: <got> != <wanted>`
    report.run("subalgebra-preservation-fixtures", (
        None if en.preserves_subalgebra(lam, which, k) else f"{label}: False != True"
        for label, lam, which, k in fixtures
    ))

    _gallery_cases(theta, rng, samples, report, gens)
    return report


def _gallery_cases(theta, rng, samples, report, gens) -> None:
    is_flip = theta.m == theta.n and theta == Permutation2D.flip(theta.m, theta.n)
    is_identity = theta == Permutation2D.identity(theta.m, theta.n)

    commutant = [
        mul(Element.gen(theta, EMPTY_WORD, Word((), (j,))), gens[i - 1])
        for i in range(1, theta.m + 1)
        for j in range(1, theta.n + 1)
    ]

    def commutant_criterion():
        u = smp.random_unitary(rng, theta)
        twisted, _ = en.twisted_check(u, u)
        commutes = all((mul(u, c) - mul(c, u)).is_zero() for c in commutant)
        if twisted != commutes:
            return f"U={u}: twisted={twisted} commutant={commutes}"
        if is_flip and not twisted:
            return f"U={u}: flip table must make (U,U) twisted"
    report.run("pair-UU-commutant-criterion",
               _trials(max(1, samples // 5), commutant_criterion))

    # each gallery case is one decision: the gallery builds its pair through
    # `UnitaryPair`, and a refusal (NotTwisted with its residual) is the witness
    def builds(name):
        en.gallery(theta, name)

    if is_flip:
        report.run("gallery-ex312", _trials(1, lambda: _ex312_failure(theta, gens)))

    if is_identity and theta.m == theta.n:
        report.run("gallery-ex313", _trials(1, lambda: builds("ex313")))

    if is_identity and theta.m >= 2 and theta.n >= 2:
        report.run("gallery-ex311", _trials(1, lambda: builds("ex311")))

    report.run("gallery-ex310-central-scalars", _trials(1, lambda: builds("ex310")))


def _ex312_failure(theta: Permutation2D, gens: list[Element]) -> str | None:
    """The mixing pair of the flip table, decided as one: the first failure
    of centrality, involution, the mixing relation and the cascade identity
    on the generators `gens`; None when all hold."""
    pair = en.gallery(theta, "ex312")
    lam = en.Endomorphism(pair)
    for g in gens:
        if not (mul(pair.U, g) - mul(g, pair.U)).is_zero():
            return f"centrality at {g}"
        if not (lam.apply(lam.apply(g)) - g).is_zero():
            return f"involution at {g}"
    # the mixing relation s_{f_j}* s_{e_i} = [i==j] sum_k s_{e_k} s_{f_k}*
    mixing = Element(theta, {
        GenTerm(Word((k,), ()), Word((), (k,))): ExactScalar.one()
        for k in range(1, theta.m + 1)
    })
    for i in range(1, theta.m + 1):
        for j in range(1, theta.n + 1):
            prod = mul(Element.gen(theta, EMPTY_WORD, Word((), (j,))), gens[i - 1])
            expected = mixing if i == j else Element.zero(theta)
            if not (prod - expected).is_zero():
                return f"mixing relation at (i,j)=({i},{j})"
    if not en.ad_product_check(lam, 1) or not en.ad_product_check(lam, 2):
        return "cascade identity for the mixing pair"
    return None


def run_suite(
    name: str,
    theta: Permutation2D,
    seed: int,
    level: Degree,
    samples: int,
) -> list[SuiteReport]:
    if name == "all":
        names = SUITE_NAMES
    elif name in SUITE_NAMES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}")
    out = []
    for suite_name in names:
        # looked up when called, so a suite wrapped on this module runs wrapped
        suite = globals()[f"{suite_name}_suite"]
        out.append(suite(theta, seed, level, samples))
    return out
