"""Named verification suites with seeded randomness and aggregated reports.

Each suite returns a `SuiteReport` whose cases carry pass counts and, on
failure, the first witness (inputs, both sides, residual). Reports are
fully determined by (theta, seed, level, samples, float_tol).

This module also hosts the deliberately naive second implementations used
as oracles: a step-by-step rewriter driven directly by the table dict (for
confluence and degree conservation) and a brute-force common-extension
filter over a full word stratum.
"""

from __future__ import annotations

import random
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
from .errors import NotTwisted, TwoGraphError
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
        if failures:
            self.cases.append(
                CaseResult(case_id, False,
                           f"{total - len(failures)}/{total} exact; first witness: {failures[0]}")
            )
        else:
            self.cases.append(CaseResult(case_id, True, f"{total}/{total} exact"))


# --- independent oracles -----------------------------------------------------

def naive_normal_form(
    theta: Permutation2D, letters, order: str = "ltr", rng: random.Random | None = None
) -> tuple[Word, bool]:
    """One-step-at-a-time rewriter driven by the table dict.

    Rewrites a single adjacent (f, e) pair per step, site chosen by
    `order` in {"ltr", "rtl", "random"}. Returns (word, degree_ok) where
    degree_ok records that every individual step preserved the letter
    counts. Deliberately independent of the kernel.
    """
    inv = {img: src for src, img in theta.table.items()}
    seq = list(letters)
    degree_ok = True
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
        before = (sum(1 for x in seq if x > 0), sum(1 for x in seq if x < 0))
        seq[k], seq[k + 1] = i, -j
        after = (sum(1 for x in seq if x > 0), sum(1 for x in seq if x < 0))
        if before != after:
            degree_ok = False
    es = tuple(x for x in seq if x > 0)
    fs = tuple(-x for x in seq if x < 0)
    return Word(es, fs), degree_ok


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

    total = 5 * samples
    confluence_failures: list[str] = []
    degree_failures: list[str] = []
    for _ in range(total):
        letters = smp.random_letters(rng, theta, rng.randint(0, 8))
        results = []
        deg_ok_all = True
        for order in ("ltr", "rtl", "random"):
            w, deg_ok = naive_normal_form(theta, letters, order, rng)
            results.append(w)
            deg_ok_all = deg_ok_all and deg_ok
        kernel_word = normal_form(theta, letters)
        if not (results[0] == results[1] == results[2] == kernel_word):
            confluence_failures.append(
                f"letters={letters} -> {[str(w) for w in results]} vs kernel {kernel_word}"
            )
        if not deg_ok_all:
            degree_failures.append(f"letters={letters}")
    report.add("confluence-3-orders", total, confluence_failures)
    report.add("degree-conservation", total, degree_failures)

    words = words_up_to(theta, level)
    split_failures: list[str] = []
    split_total = 0
    for w in words:
        for a in range(w.degree[0] + 1):
            for b in range(w.degree[1] + 1):
                split_total += 1
                w1, w2 = factor_at(theta, w, (a, b))
                if concat(theta, w1, w2) != w or w1.degree != (a, b):
                    split_failures.append(f"w={w} delta=({a},{b}) -> ({w1},{w2})")
    report.add("factor-round-trip", split_total, split_failures)

    unique_failures: list[str] = []
    unique_total = 0
    for w in words:
        for a in range(w.degree[0] + 1):
            for b in range(w.degree[1] + 1):
                unique_total += 1
                rest = deg_sub(w.degree, (a, b))
                hits = sum(
                    1
                    for w1 in enumerate_words(theta, (a, b))
                    for w2 in enumerate_words(theta, rest)
                    if concat(theta, w1, w2) == w
                )
                if hits != 1:
                    unique_failures.append(f"w={w} delta=({a},{b}) has {hits} splits")
    report.add("factor-uniqueness", unique_total, unique_failures)

    cancel_failures: list[str] = []
    cancel_total = 0
    by_degree: dict[Degree, list[Word]] = {}
    for w in words:
        by_degree.setdefault(w.degree, []).append(w)
    for w in words:
        for group in by_degree.values():
            cancel_total += 1
            products = {concat(theta, w, a) for a in group}
            if len(products) != len(group):
                cancel_failures.append(f"left factor {w} collapses degree class")
    report.add("cancellativity", cancel_total, cancel_failures)

    ce_failures: list[str] = []
    for _ in range(samples):
        u = smp.random_word(rng, theta, level)
        v = smp.random_word(rng, theta, level)
        fast = sorted(common_extensions(theta, u, v), key=lambda p: (p[0].key, p[1].key))
        brute = brute_force_common_extensions(theta, u, v)
        if fast != brute:
            ce_failures.append(f"u={u} v={v}: {len(fast)} vs {len(brute)} pairs")
    report.add("common-extensions-vs-brute", samples, ce_failures)
    return report


def algebra_suite(
    theta: Permutation2D, seed: int, level: Degree, samples: int
) -> SuiteReport:
    rng = smp.rng_from_seed(seed)
    report = SuiteReport("algebra")
    one = Element.unit(theta)

    failures: list[str] = []
    for _ in range(samples):
        a = smp.random_element(rng, theta, level)
        b = smp.random_element(rng, theta, level)
        c = smp.random_element(rng, theta, level)
        if not (mul(mul(a, b), c) - mul(a, mul(b, c))).is_zero():
            failures.append(f"A={a} B={b} C={c}")
    report.add("associativity", samples, failures)

    failures = []
    for _ in range(samples):
        a = smp.random_element(rng, theta, level)
        b = smp.random_element(rng, theta, level)
        ok = (
            (mul(one, a) - a).is_zero()
            and (mul(a, one) - a).is_zero()
            and (mul(a, b).adjoint() - mul(b.adjoint(), a.adjoint())).is_zero()
            and (a.adjoint().adjoint() - a).is_zero()
        )
        if not ok:
            failures.append(f"A={a} B={b}")
    report.add("unit-and-involution", samples, failures)

    failures = []
    for _ in range(samples):
        t = GenTerm(
            smp.random_word(rng, theta, level), smp.random_word(rng, theta, level)
        )
        delta = (rng.randint(0, 1), rng.randint(0, 1))
        raised = raise_level(theta, t, delta)
        base = Element(theta, {t: ExactScalar.one()})
        if not (raised - base).is_zero():
            failures.append(f"t={t} delta={delta}")
    report.add("defect-free-raising", samples, failures)

    failures = []
    for _ in range(samples):
        a = smp.random_element(rng, theta, level, terms=2)
        b = smp.random_element(rng, theta, level, terms=2)
        product = mul(a, b)
        degrees = {(0, 0)}  # always test (0,0)
        degrees.update(
            (da[0] + db[0], da[1] + db[1])
            for da in support_degrees(a)
            for db in support_degrees(b)
        )
        ok = True
        for delta in sorted(degrees):
            lhs = degree_component(product, delta)
            rhs = Element.zero(theta)
            for da in support_degrees(a):
                db = deg_sub(delta, da)
                rhs = rhs + mul(degree_component(a, da), degree_component(b, db))
            if not (lhs - rhs).is_zero():
                ok = False
                break
        if not ok:
            failures.append(f"A={a} B={b} delta={delta}")
    report.add("grading-product-rule", samples, failures)

    failures = []
    for _ in range(samples):
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
            failures.append(f"A={a} t={tuple(map(str, t))}")
    report.add("gauge-star-automorphism", samples, failures)

    failures = []
    for _ in range(samples):
        a = smp.random_core_element(rng, theta, 1, terms=2)
        b = smp.random_core_element(rng, theta, 1, terms=2)
        x = smp.random_element(rng, theta, level, terms=2)
        lhs = degree_component(mul(mul(a, x), b), (0, 0)).canonicalize()
        rhs = mul(mul(a, degree_component(x, (0, 0))), b)
        if not (lhs - rhs).is_zero():
            failures.append(f"A={a} X={x} B={b}")
    report.add("core-expectation-bimodule", samples, failures)

    window = max(level) + 3
    model = GradedActionModel(theta, window=window)
    failures = []
    for _ in range(samples):
        t1 = GenTerm(smp.random_word(rng, theta, level), smp.random_word(rng, theta, level))
        t2 = GenTerm(smp.random_word(rng, theta, level), smp.random_word(rng, theta, level))
        a = Element(theta, {t1: smp.random_coeff(rng)})
        b = Element(theta, {t2: smp.random_coeff(rng)})
        if not model.product_agrees(a, b, mul(a, b)):
            failures.append(f"t1={t1} t2={t2}")
    report.add("product-vs-oracle", samples, failures)

    failures = []
    for _ in range(samples):
        x = smp.random_core_element(rng, theta, 2, terms=3)
        if model.oracle_trace(x) != md.omega(x):
            failures.append(f"X={x}")
    report.add("state-vs-oracle-trace", samples, failures)
    return report


def modular_suite(
    theta: Permutation2D, seed: int, level: Degree, samples: int
) -> SuiteReport:
    rng = smp.rng_from_seed(seed)
    report = SuiteReport("modular")

    failures: list[str] = []
    for _ in range(samples):
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
            failures.append(f"u={u} v={v} X={x}: {lhs} vs {expected}")
    report.add("compression-trace-identity", samples, failures)

    failures = []
    for _ in range(samples):
        x = smp.random_core_element(rng, theta, 1, terms=3)
        y = smp.random_core_element(rng, theta, 2, terms=2)
        if md.omega(mul(x, y)) != md.omega(mul(y, x)):
            failures.append(f"X={x} Y={y}")
    report.add("trace-commutativity-on-core", samples, failures)

    failures = []
    for _ in range(samples):
        a = smp.random_element(rng, theta, level)
        t = (rng.choice(smp.FOURTH_ROOTS), rng.choice(smp.FOURTH_ROOTS))
        if md.omega(gauge(a, t)) != md.omega(a):
            failures.append(f"A={a} t={tuple(map(str, t))}")
    report.add("state-gauge-invariance", samples, failures)

    failures = []
    for _ in range(samples):
        a = smp.random_element(rng, theta, level, terms=2)
        b = smp.random_element(rng, theta, level, terms=2)
        if md.inner(md.tomita_s(a), b) != md.inner(md.tomita_f(b), a):
            failures.append(f"A={a} B={b}")
    report.add("involution-adjoint-pairing", samples, failures)

    half = Fraction(1, 2)
    failures = []
    gens = [
        GenTerm(u, v)
        for u in words_up_to(theta, (1, 1))
        for v in words_up_to(theta, (1, 1))
    ]
    for t in gens:
        x = Element(theta, {t: ExactScalar.gaussian(1, -1)})
        ok = (
            (md.tomita_s(x) - md.modular_conjugation(md.modular_power(half, x))).is_zero()
            and (md.tomita_f(x) - md.modular_conjugation(md.modular_power(-half, x))).is_zero()
            and (md.modular_power(1, x) - md.tomita_f(md.tomita_s(x))).is_zero()
            and (md.modular_conjugation(md.modular_conjugation(x)) - x).is_zero()
        )
        if not ok:
            failures.append(f"t={t}")
    report.add("polar-relations", len(gens), failures)

    failures = []
    exponents = [Fraction(1), Fraction(-1), half, Fraction(2)]
    for _ in range(samples):
        a = smp.random_element(rng, theta, level, terms=2)
        b = smp.random_element(rng, theta, level, terms=2)
        ok = all(
            (md.modular_power(z, mul(a, b))
             - mul(md.modular_power(z, a), md.modular_power(z, b))).is_zero()
            for z in exponents
        )
        if not ok:
            failures.append(f"A={a} B={b}")
    report.add("modular-powers-multiplicative", samples, failures)

    failures = []
    trials = max(1, samples // 20)
    for _ in range(trials):
        basis = smp.random_independent_basis(rng, theta, rng.randint(2, 8), level)
        if not md.gram_is_positive_definite(md.gram_matrix(basis)):
            failures.append(f"Gram matrix not positive definite on basis size {len(basis)}")
    report.add("gram-positivity", trials, failures)

    failures = []
    spot_trials = max(1, samples // 10)
    for _ in range(spot_trials):
        a = smp.random_element(rng, theta, level, terms=3)
        if md.omega(mul(a.adjoint(), a)).is_zero and not a.is_zero():
            failures.append(f"A={a}")
    report.add("state-faithfulness-spot", spot_trials, failures)
    return report


def kms_suite(
    theta: Permutation2D, seed: int, level: Degree, samples: int, float_tol: float
) -> SuiteReport:
    rng = smp.rng_from_seed(seed)
    report = SuiteReport("kms")

    failures: list[str] = []
    for _ in range(samples):
        a = smp.random_element(rng, theta, level)
        b = smp.random_element(rng, theta, level)
        ok, lhs, rhs = md.kms_check(a, b)
        if not ok:
            failures.append(f"A={a} B={b}: {lhs} vs {rhs}")
    report.add("kms-identity-exact", samples, failures)

    failures = []
    words = words_up_to(theta, level)
    one = ExactScalar.one()
    times = (0.37, 1.0, 3.14159)
    for t in times:
        torus_point = (theta.m ** (-1j * t), theta.n ** (-1j * t))
        # one row {S[u;v]: 1 for every v} per call; both maps act termwise,
        # so each term is compared exactly as if it were flowed alone
        for u in words:
            row = Element(theta, {GenTerm(u, v): one for v in words})
            flowed = md.modular_flow(t, row)
            gauged = gauge_float(row, torus_point)
            for term, value in flowed.items():
                residual = abs(value - gauged[term])
                if residual >= float_tol:
                    failures.append(f"t={t} term={term} residual={residual}")
    report.add("flow-equals-gauge-float", len(words) ** 2 * len(times), failures)

    failures = []
    for _ in range(samples):
        a = smp.random_element(rng, theta, level)
        if not (md.modular_flow("i", a) - md.modular_power(-1, a)).is_zero():
            failures.append(f"A={a}")
    report.add("imaginary-time-flow-is-inverse-modular", samples, failures)
    return report


def endo_suite(
    theta: Permutation2D, seed: int, level: Degree, samples: int
) -> SuiteReport:
    rng = smp.rng_from_seed(seed)
    report = SuiteReport("endo")
    one = Element.unit(theta)

    multidegrees = [(1, 0), (0, 1), (1, 1), (2, 1)]
    # `UnitaryPair` decides twistedness: a pair that is not twisted fails
    # this case with its residual, and the later cases run on the pairs
    # that were built
    pairs = {}
    failures = []
    for p, q in multidegrees:
        try:
            pairs[(p, q)] = en.canonical_pair(theta, p, q)
        except NotTwisted as exc:
            failures.append(f"(p,q)=({p},{q}): {exc}")
    report.add("canonical-pairs-twisted", len(multidegrees), failures)

    failures = []
    per = max(1, samples // 2)
    for (p, q), pair in pairs.items():
        lam = en.Endomorphism(pair)
        words = enumerate_words(theta, (p, q))
        for _ in range(per):
            x = smp.random_element(rng, theta, level, terms=2)
            w = rng.choice(words)
            sw = Element.gen(theta, w, EMPTY_WORD)
            if not (mul(lam.apply(x), sw) - mul(sw, x)).is_zero():
                failures.append(f"(p,q)=({p},{q}) X={x} w={w}")
    report.add("canonical-intertwining", len(pairs) * per, failures)

    failures = []
    round_total = 0
    for p, q in ((1, 0), (0, 1), (1, 1)):
        pair = pairs.get((p, q))
        if pair is None:
            continue
        round_total += 1
        lam = en.Endomorphism(pair)
        e_imgs, f_imgs = lam.generator_images()
        recovered = en.pair_from_generator_map(theta, e_imgs, f_imgs)
        if not recovered.equals(pair):
            failures.append(f"canonical ({p},{q})")
    for _ in range(3):
        round_total += 1
        w = smp.random_unitary(rng, theta)
        pair = en.inner_pair(w)
        lam = en.Endomorphism(pair)
        e_imgs, f_imgs = lam.generator_images()
        recovered = en.pair_from_generator_map(theta, e_imgs, f_imgs)
        if not recovered.equals(pair):
            failures.append(f"inner pair of {w}")
    report.add("pair-endo-round-trip", round_total, failures)

    if {(1, 0), (0, 1), (1, 1)} <= pairs.keys():
        failures = []
        composite = en.compose(
            en.Endomorphism(pairs[(1, 0)]), en.Endomorphism(pairs[(0, 1)])
        )
        if not composite.equals(pairs[(1, 1)]):
            failures.append("shift composition mismatch")
        report.add("shift-composition", 1, failures)

    failures = []
    count = max(1, samples // 5)
    for _ in range(count):
        w = smp.random_unitary(rng, theta)
        lam = en.Endomorphism(en.inner_pair(w))
        w_star = w.adjoint()
        gens = [Element.gen(theta, Word((i,), ()), EMPTY_WORD) for i in range(1, theta.m + 1)]
        gens += [Element.gen(theta, Word((), (j,)), EMPTY_WORD) for j in range(1, theta.n + 1)]
        ok = all(
            (lam.apply(g) - mul(mul(w, g), w_star)).is_zero() for g in gens
        )
        if not ok:
            failures.append(f"W={w}")
    report.add("inner-pairs-give-conjugation", count, failures)

    if {(1, 0), (0, 1)} <= pairs.keys():
        failures = []
        p1, p2 = pairs[(1, 0)], pairs[(0, 1)]
        p3 = en.inner_pair(smp.random_unitary(rng, theta))
        lhs = en.pair_product(en.pair_product(p3, p2), p1)
        rhs = en.pair_product(p3, en.pair_product(p2, p1))
        if not lhs.equals(rhs):
            failures.append("associativity of the pair product")
        report.add("pair-product-associative", 1, failures)

    failures = []
    count = max(1, samples // 10)
    for _ in range(count):
        w = smp.random_unitary(rng, theta)
        pair = en.inner_pair(w)
        lam = en.Endomorphism(pair)
        t = (rng.choice(smp.FOURTH_ROOTS), rng.choice(smp.FOURTH_ROOTS))
        t_inv = (t[0].conjugate(), t[1].conjugate())
        conjugated = en.UnitaryPair(gauge(pair.U, t), gauge(pair.V, t))
        lam_conj = en.Endomorphism(conjugated)
        gens = [Element.gen(theta, Word((1,), ()), EMPTY_WORD),
                Element.gen(theta, Word((), (1,)), EMPTY_WORD)]
        ok = all(
            (gauge(lam.apply(gauge(g, t_inv)), t) - lam_conj.apply(g)).is_zero()
            for g in gens
        )
        if not ok:
            failures.append(f"W={w} t={tuple(map(str, t))}")
    report.add("gauge-conjugation-of-pairs", count, failures)

    failures = []
    lam_id = en.Endomorphism.identity(theta)
    checks = [("identity", lam_id, (1, 2))]
    if (1, 1) in pairs:
        checks.append(("canonical(1,1)", en.Endomorphism(pairs[(1, 1)]), (1, 2)))
    total = 0
    for label, lam, levels in checks:
        for k in levels:
            total += 1
            if not en.ad_product_check(lam, k):
                failures.append(f"{label} at level {k}")
    report.add("conjugation-cascade-on-core", total, failures)

    failures = []
    fixtures = [
        ("identity-core", en.preserves_subalgebra(lam_id, "core", 1), True),
        ("identity-diagonal", en.preserves_subalgebra(lam_id, "diagonal", 2), True),
    ]
    if (1, 1) in pairs:
        lam = en.Endomorphism(pairs[(1, 1)])
        fixtures.append(("canonical11-core", en.preserves_subalgebra(lam, "core", 1), True))
    for label, got, want in fixtures:
        if got != want:
            failures.append(f"{label}: {got} != {want}")
    report.add("subalgebra-preservation-fixtures", len(fixtures), failures)

    _gallery_cases(theta, rng, samples, report)
    return report


def _gallery_cases(theta, rng, samples, report) -> None:
    is_flip = theta.m == theta.n and theta == Permutation2D.flip(theta.m, theta.n)
    is_identity = theta == Permutation2D.identity(theta.m, theta.n)

    failures: list[str] = []
    count = max(1, samples // 5)
    commutant = [
        mul(Element.gen(theta, EMPTY_WORD, Word((), (j,))),
            Element.gen(theta, Word((i,), ()), EMPTY_WORD))
        for i in range(1, theta.m + 1)
        for j in range(1, theta.n + 1)
    ]
    for _ in range(count):
        u = smp.random_unitary(rng, theta)
        twisted, _ = en.twisted_check(u, u)
        commutes = all((mul(u, c) - mul(c, u)).is_zero() for c in commutant)
        if twisted != commutes:
            failures.append(f"U={u}: twisted={twisted} commutant={commutes}")
        if is_flip and not twisted:
            failures.append(f"U={u}: flip table must make (U,U) twisted")
    report.add("pair-UU-commutant-criterion", count, failures)

    # the gallery builds each pair through `UnitaryPair`, which decides
    # twistedness and raises NotTwisted with the residual
    if is_flip:
        report.add("gallery-ex312", 1, _ex312_failures(theta))

    if is_identity and theta.m == theta.n:
        report.add("gallery-ex313", 1, _refusal(lambda: en.gallery(theta, "ex313")))

    if is_identity and theta.m >= 2 and theta.n >= 2:
        report.add("gallery-ex311", 1, _refusal(lambda: en.gallery(theta, "ex311")))

    scalar_i = Element.unit(theta).scaled(ExactScalar.imag_unit())
    report.add("gallery-ex310-central-scalars", 1,
               _refusal(lambda: en.gallery(theta, "ex310", u=scalar_i, v=scalar_i)))


def _ex312_failures(theta: Permutation2D) -> list[str]:
    """The mixing pair of the flip table: centrality, involution, the
    mixing relation and the cascade identity, or the NotTwisted text with
    its residual when the gallery's pair is not twisted."""
    try:
        pair = en.gallery(theta, "ex312")
    except NotTwisted as exc:
        return [str(exc)]
    failures = []
    lam = en.Endomorphism(pair)
    gens = [Element.gen(theta, Word((i,), ()), EMPTY_WORD) for i in range(1, theta.m + 1)]
    gens += [Element.gen(theta, Word((), (j,)), EMPTY_WORD) for j in range(1, theta.n + 1)]
    for g in gens:
        if not (mul(pair.U, g) - mul(g, pair.U)).is_zero():
            failures.append(f"centrality at {g}")
        if not (lam.apply(lam.apply(g)) - g).is_zero():
            failures.append(f"involution at {g}")
    # the mixing relation s_{f_j}* s_{e_i} = [i==j] sum_k s_{e_k} s_{f_k}*
    mixing = Element(theta, {
        GenTerm(Word((k,), ()), Word((), (k,))): ExactScalar.one()
        for k in range(1, theta.m + 1)
    })
    for i in range(1, theta.m + 1):
        for j in range(1, theta.n + 1):
            prod = mul(Element.gen(theta, EMPTY_WORD, Word((), (j,))),
                       Element.gen(theta, Word((i,), ()), EMPTY_WORD))
            expected = mixing if i == j else Element.zero(theta)
            if not (prod - expected).is_zero():
                failures.append(f"mixing relation at (i,j)=({i},{j})")
    if not en.ad_product_check(lam, 1) or not en.ad_product_check(lam, 2):
        failures.append("cascade identity for the mixing pair")
    return failures


def _refusal(build) -> list[str]:
    """The failures of a case whose only decision is that `build()` makes its
    pair: empty, or the text of the package error that refused it (NotTwisted
    carries its residual); any other exception is a bug and propagates."""
    try:
        build()
    except TwoGraphError as exc:
        return [str(exc)]
    return []


def run_suite(
    name: str,
    theta: Permutation2D,
    seed: int,
    level: Degree,
    samples: int,
    float_tol: float,
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
        tol = (float_tol,) if suite_name == "kms" else ()
        out.append(suite(theta, seed, level, samples, *tol))
    return out
