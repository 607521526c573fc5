"""Every named verification suite passes for both reference tables."""

import itertools
import re
import sys

import pytest

from twograph import algebra, endo, kernel, modular, sampling, scalar, semigroup, suites
from twograph.algebra import Element, GenTerm
from twograph.cli import main
from twograph.endo import gallery
from twograph.errors import DegreeTooLarge
from twograph.oracle import GradedActionModel
from twograph.scalar import ExactScalar
from twograph.semigroup import EMPTY_WORD, Word, theta_text, word
from twograph.suites import SUITE_NAMES, kms_suite, run_suite


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(theta, name):
    reports = run_suite(name, theta, seed=7, level=(2, 2), samples=10)
    for report in reports:
        for case in report.cases:
            assert case.passed, f"{report.name}.{case.case_id}: {case.detail}"


def test_all_expands_to_every_suite(flip22):
    reports = run_suite("all", flip22, seed=1, level=(1, 1), samples=2)
    assert [r.name for r in reports] == list(SUITE_NAMES)


def test_unknown_suite_rejected(flip22):
    with pytest.raises(ValueError):
        run_suite("everything", flip22, 0, (1, 1), 1)


def test_reports_are_deterministic(id23):
    first = run_suite("modular", id23, seed=5, level=(1, 1), samples=5)
    second = run_suite("modular", id23, seed=5, level=(1, 1), samples=5)
    assert [(c.case_id, c.passed, c.detail) for r in first for c in r.cases] == \
        [(c.case_id, c.passed, c.detail) for r in second for c in r.cases]


def _case_detail(report, case_id):
    (case,) = [c for c in report.cases if c.case_id == case_id]
    return case.detail


def _flow_gauge_detail(theta):
    report = kms_suite(theta, seed=0, level=(2, 2), samples=2)
    return _case_detail(report, "flow-equals-gauge-float")


def test_flow_equals_gauge_float_names_its_first_witness(flip22, monkeypatch):
    # 49 words up to (2, 2) on flip 2x2: 49^2 terms at each of 3 times
    assert _flow_gauge_detail(flip22) == "7203/7203 exact"
    target = GenTerm(word(flip22, "e2.f1"), word(flip22, "f2"))
    original = modular.modular_flow

    def shifted(t, a):
        out = original(t, a)
        if t == 1.0 and target in out:
            out[target] += 1e-6
        return out

    monkeypatch.setattr(modular, "modular_flow", shifted)
    assert _flow_gauge_detail(flip22) == (
        "7202/7203 exact; first witness: t=1.0 term=S[e2.f1;f2] "
        "residual=1.0000000000287557e-06"
    )


def test_imaginary_time_case_fails_on_a_wrong_modular_power(flip22, monkeypatch):
    # flow_i(a) and modular_power(-1, a) share one termwise loop, so their
    # comparison could not fail; the round trip modular_power(1, flow_i(a))
    # == a fails once power_of_base drops the sign of its exponent
    def detail():
        report = kms_suite(flip22, seed=0, level=(1, 1), samples=4)
        return _case_detail(report, "imaginary-time-flow-is-inverse-modular")

    assert detail() == "4/4 exact"
    original = modular.power_of_base
    monkeypatch.setattr(modular, "power_of_base",
                        lambda theta, delta, z: original(theta, delta, abs(z)))
    assert re.fullmatch(r"0/4 exact; first witness: A=.*", detail())


def test_oracle_trace_fails_on_a_negated_exponent_everywhere(theta, monkeypatch):
    # the oracle normalizes its trace by 1/(m n)^L itself, so a wrong
    # `power_of_base` moves the state but not the oracle, wherever it is bound
    original = scalar.power_of_base
    bound = [module for name, module in sys.modules.items()
             if name.startswith("twograph") and getattr(module, "power_of_base", None) is original]
    assert scalar in bound and modular in bound

    def detail():
        (report,) = run_suite("algebra", theta, seed=0, level=(2, 2), samples=20)
        return _case_detail(report, "state-vs-oracle-trace")

    assert detail() == "20/20 exact"
    for module in bound:
        monkeypatch.setattr(module, "power_of_base",
                            lambda theta, delta, z: original(theta, delta, -z))
    assert re.fullmatch(r"\d+/20 exact; first witness: X=.*", detail())


def test_degree_conservation_fails_on_a_kernel_that_drops_a_letter(monkeypatch,
                                                                   cold_extension_cache):
    # each step of the naive rewriter swaps one f-letter with one e-letter,
    # so its counts cannot change; the case decides the kernel's word
    # against the letters drawn. A fresh table keeps the defect's words out
    # of the shared fixtures' caches
    theta = semigroup.make_theta(2, 2, "flip")

    def detail():
        return _case_detail(suites.semigroup_suite(theta, seed=0, level=(1, 1), samples=4),
                            "degree-conservation")

    assert detail() == "20/20 exact"
    original = kernel.normalize

    def dropping(tables, letters):
        es, fs = original(tables, letters)
        return es[:-1], fs

    monkeypatch.setattr(kernel, "normalize", dropping)
    assert re.fullmatch(r"\d+/20 exact; first witness: letters=\[.*\]", detail())


def test_a_gallery_bug_is_not_recorded_as_a_failed_check(id22, monkeypatch):
    # the gallery cases record only the package's own refusals; any other
    # exception is a bug in the program and propagates
    def broken_gallery(theta, name, **kwargs):
        if name == "ex311":
            raise ZeroDivisionError(name)
        return gallery(theta, name, **kwargs)

    monkeypatch.setattr(endo, "gallery", broken_gallery)
    with pytest.raises(ZeroDivisionError, match="ex311"):
        run_suite("endo", id22, seed=0, level=(1, 1), samples=2)


def _pass_counts(reports):
    """(passed, total) read off every case line's `k/N exact`."""
    return [tuple(map(int, re.match(r"(-?\d+)/(\d+) exact", c.detail).groups()))
            for r in reports for c in r.cases]


def _ex39_for_ex312(theta, name, **kwargs):
    # the flip-flop pair (U, U) of ex39 is twisted but U is not central
    return gallery(theta, "ex39" if name == "ex312" else name, **kwargs)


@pytest.mark.parametrize("case_id, attr, patch, witness", [
    pytest.param("pair-UU-commutant-criterion", "twisted_check", lambda u, v: (False, None),
                 r"U=.*: twisted=False commutant=True", id="commutant-criterion"),
    pytest.param("gallery-ex312", "gallery", _ex39_for_ex312,
                 r"centrality at S\[e1;id\]", id="gallery-ex312"),
])
def test_a_failed_decision_counts_once(flip22, monkeypatch, case_id, attr, patch, witness):
    # each case makes one decision per draw (here one), whatever number of
    # its checks fail: the count reads 0/1, never below 0
    monkeypatch.setattr(endo, attr, patch)
    reports = run_suite("endo", flip22, seed=0, level=(1, 1), samples=2)
    (case,) = [c for c in reports[0].cases if c.case_id == case_id]
    assert not case.passed
    assert re.fullmatch(r"0/1 exact; first witness: " + witness, case.detail), case.detail
    assert all(0 <= passed <= total for passed, total in _pass_counts(reports))


def test_run_counts_one_outcome_per_decision():
    report = suites.SuiteReport("demo")
    report.run("held", iter([None, None]))
    report.run("broke", ["first", None, "second"])
    report.run("empty", [])
    assert [(c.case_id, c.passed, c.detail) for c in report.cases] == [
        ("held", True, "2/2 exact"),
        ("broke", False, "1/3 exact; first witness: first"),
        ("empty", True, "0/0 exact"),
    ]
    assert not report.passed


def test_add_is_called_once_per_printed_case(monkeypatch, capsys):
    # the benchmark times each case by wrapping `SuiteReport.add`, so every
    # case line of `check` must pass through it exactly once
    calls = []
    add = suites.SuiteReport.add

    def counted_add(self, case_id, total, failures):
        calls.append(case_id)
        return add(self, case_id, total, failures)

    monkeypatch.setattr(suites.SuiteReport, "add", counted_add)
    code = main(["check", "all", "--m", "2", "--n", "2", "--theta", "flip",
                 "--level", "1,1", "--samples", "4", "--format", "records"])
    lines = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
    cases = [key.split(".", 2)[2] for key in lines if key.startswith("case.")]
    assert code == 0
    assert cases == calls and len(cases) == 37


# --- a defect in the code under check is a FAIL, never an exit 2 -------------

_MUL, _FACTOR, _CONCAT = algebra.mul, kernel.factor, kernel.concat


def _adjoint_without_conjugation(self):
    return Element._of(self.theta, {GenTerm(t.v, t.u): c for t, c in self._terms.items()})


def _mul_dropping_a_term(a, b):
    # drops the last term of any product of more than 3 terms
    terms = dict(_MUL(a, b)._terms)
    if len(terms) > 3:
        terms.popitem()
    return Element._of(a.theta, terms)


def _factor_reversing_f1(tables, es, fs, p, q):
    e1, f1, e2, f2 = _FACTOR(tables, es, fs, p, q)
    return e1, f1[::-1], e2, f2


def _pulls_to_reversing_f1(fwd, es, fs, want):
    # the f-letters that `common_ext` pulls across a cut come out reversed
    f1, es[:] = kernel.to_f_first((None, None, fwd, None), es, fs)
    return f1[::-1] == want[:len(f1)]


def _concat_reading_the_forward_table(tables, e1, f1, e2, f2):
    m, n, fwd, _ = tables
    return _CONCAT((m, n, fwd, fwd), e1, f1, e2, f2)


# (table, the defect's patches, the case it fails, that case's witness): each
# defect makes the code under check raise a package error inside the case,
# on a table where it shows (forward and inverse tables differ only on
# mixed23, which is not an involution)
DEFECTS = {
    "adjoint": ("id23", [(Element, "adjoint", _adjoint_without_conjugation)],
                "pair-endo-round-trip", "conjugation requires a unitary"),
    "mul": ("flip22", [(module, "mul", _mul_dropping_a_term)
                       for module in (algebra, endo, modular, suites)],
            "pair-endo-round-trip", "conjugation requires a unitary"),
    "factor": ("id23", [(kernel, "_pulls_to", _pulls_to_reversing_f1)],
               "pair-endo-round-trip", "images do not assemble into unitaries"),
    "concat": ("mixed23", [(kernel, "concat", _concat_reading_the_forward_table)],
               "pair-endo-round-trip", "images of e1 f1 and f3 e2 disagree"),
}
CHECK_TABLES = {
    "flip22": ["--theta", "flip", "--m", "2", "--n", "2"],
    "id23": ["--theta", "identity", "--m", "2", "--n", "3"],
    "mixed23": ["--theta", "mixed23.txt"],
}
# cases that run only on canonical pairs that were built
NEED_CANONICAL_PAIRS = {"case.endo.shift-composition", "case.endo.pair-product-associative"}


def _check_all(table, capsys):
    code = main(["check", "all", *CHECK_TABLES[table], "--samples", "4", "--level", "1,1"])
    lines = capsys.readouterr().out.splitlines()
    return code, {ln.split(": ")[0]: ln.split(": ", 1)[1] for ln in lines}


@pytest.fixture
def cold_extension_cache():
    # the common-extension cache is keyed by equal tables across invocations:
    # clear it so that a defect is not hidden by the correct run's entries,
    # and so that the defect's entries do not outlive the test
    semigroup._common_extensions_cached.cache_clear()
    yield
    semigroup._common_extensions_cached.cache_clear()


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_a_defect_that_raises_fails_its_case(defect, mixed23, tmp_path, monkeypatch, capsys,
                                             cold_extension_cache):
    table, patches, case_id, witness = DEFECTS[defect]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mixed23.txt").write_text(theta_text(mixed23))
    code, correct = _check_all(table, capsys)
    assert code == 0 and correct["result"] == "PASS"
    for owner, name, planted in patches:
        monkeypatch.setattr(owner, name, planted)
    semigroup._common_extensions_cached.cache_clear()
    code, broken = _check_all(table, capsys)
    assert code == 1 and broken["result"] == "FAIL"
    assert re.fullmatch(rf"FAIL \d+/\d+ exact; first witness: {witness}",
                        broken[f"case.endo.{case_id}"])
    # every case line of the correct run, in its order, but the cases that
    # need a canonical pair the defect kept from being built
    cases = [key for key in correct if key.startswith("case.")]
    assert [key for key in broken if key.startswith("case.")] == [
        key for key in cases if key in broken or key not in NEED_CANONICAL_PAIRS
    ]


# --- every case can fail: one planted defect per failure witness -----------

_WORD_CONCAT, _COMMON_EXT, _NORMALIZE = semigroup.concat, kernel.common_ext, kernel.normalize
_RAISE_LEVEL, _DEGREE_COMPONENT = algebra.raise_level, algebra.degree_component
_POWER_OF_BASE, _INNER_PAIR = scalar.power_of_base, endo.inner_pair
_ENDOMORPHISM_INIT = endo.Endomorphism.__init__
_E1, _E2 = Word((1,), ()), Word((2,), ())


def _concat_taking_e2_for_e1(theta, w1, w2):
    return _WORD_CONCAT(theta, w1, _E1 if w2 == _E2 else w2)


def _normalize_reversing_the_f_block(tables, letters):
    es, fs = _NORMALIZE(tables, letters)
    return es, fs[::-1]


def _common_ext_dropping_the_last(tables, eu, fu, ev, fv):
    return _COMMON_EXT(tables, eu, fu, ev, fv)[:-1]


def _common_ext_with_no_f_word_over_an_e_word(tables, eu, fu, ev, fv):
    # s_v* s_u with u all e-letters and v all f-letters comes out zero
    return () if eu and not fu and fv and not ev else _COMMON_EXT(tables, eu, fu, ev, fv)


def _raise_level_dropping_a_word(theta, t, delta):
    terms = dict(_RAISE_LEVEL(theta, t, delta)._terms)
    terms.popitem()
    return Element._of(theta, terms)


def _degree_component_without_the_diagonal(a, delta):
    return Element(a.theta, {t: c for t, c in _DEGREE_COMPONENT(a, delta)._terms.items()
                             if t.u != t.v})


def _omega_of_every_balanced_term(a):
    # counts s_u s_v* whenever d(u) = d(v), not only when u = v
    total = ExactScalar.zero()
    for t, c in a._terms.items():
        if t.degree == (0, 0):
            total = total + c * scalar.power_of_base(a.theta, t.u.degree, -1)
    return total


def _omega_of_the_unit_term(a):
    return a._terms.get(GenTerm(EMPTY_WORD, EMPTY_WORD), ExactScalar.zero())


def _gauge_by_the_degree_of_u(a, t):
    # scales s_u s_v* by t^d(u) in place of t^(d(u) - d(v))
    g1, g2 = t
    return Element._of(a.theta, {term: c * g1 ** len(term.u.e_block) * g2 ** len(term.u.f_block)
                                 for term, c in a._terms.items()})


def _power_of_base_of_the_absolute_degree(theta, delta, z):
    return _POWER_OF_BASE(theta, (abs(delta[0]), abs(delta[1])), z)


def _apply_without_the_adjoint(self, x):
    # lam(s_u s_v*) read as lam(s_u) lam(s_v)
    out = Element.zero(self.theta)
    for t, c in x._terms.items():
        out = out + algebra.mul(self.word_image(t.u), self.word_image(t.v)).scaled(c)
    return out


def _compose_multiplying_in_reverse(outer, inner):
    # U2 outer(U1) in place of outer(U1) U2
    return endo.UnitaryPair._trusted(algebra.mul(outer.pair.U, outer.apply(inner.pair.U)),
                                     algebra.mul(outer.pair.V, outer.apply(inner.pair.V)))


def _inner_pair_shifting_f_for_both(w):
    pair = _INNER_PAIR(w)
    return endo.UnitaryPair._trusted(pair.V, pair.V)


def _is_zero_without_the_canonical_form(self):
    return self.is_empty


def _endomorphism_reading_swapped_unitaries(self, pair):
    # U acts on the f-letters and V on the e-letters
    _ENDOMORPHISM_INIT(self, endo.UnitaryPair._trusted(pair.V, pair.U))


# (suite, case, table, level, samples, [(owner, name, defect)], the case's
# witness): each row reaches one failure witness of its case, on the smallest
# table, level and sample count found to show it. The defect is planted in
# package code, on a class or in every twograph module that binds the name.
PLANTED = {
    "confluence-3-orders": (
        "semigroup", "confluence-3-orders", (1, 2, "identity"), (0, 0), 1,
        [(kernel, "normalize", _normalize_reversing_the_f_block)],
        r"letters=\[.*\] -> \[.*\] vs kernel \S+"),
    "factor-round-trip": (
        "semigroup", "factor-round-trip", (1, 2, "identity"), (0, 2), 1,
        [(kernel, "factor", _factor_reversing_f1)],
        r"w=f1\.f2 delta=\(0,2\) -> \(f2\.f1,id\)"),
    "cancellativity": (
        "semigroup", "cancellativity", (2, 2, "flip"), (1, 0), 1,
        [(semigroup, "concat", _concat_taking_e2_for_e1)],
        r"left factor id collapses degree class"),
    "common-extensions-vs-brute": (
        "semigroup", "common-extensions-vs-brute", (1, 1, "identity"), (0, 0), 1,
        [(kernel, "common_ext", _common_ext_dropping_the_last)],
        r"u=id v=id: 0 vs 1 pairs"),
    "defect-free-raising": (
        "algebra", "defect-free-raising", (1, 1, "identity"), (0, 0), 1,
        [(algebra, "raise_level", _raise_level_dropping_a_word)],
        r"t=S\[id;id\] delta=\(\d, \d\)"),
    "core-expectation-bimodule": (
        "algebra", "core-expectation-bimodule", (2, 2, "flip"), (0, 0), 2,
        [(algebra, "degree_component", _degree_component_without_the_diagonal)],
        r"A=.* X=.* B=.*"),
    "compression-trace-identity": (
        "modular", "compression-trace-identity", (2, 2, "flip"), (1, 0), 1,
        [(modular, "omega", _omega_of_every_balanced_term)],
        r"u=e\d v=e\d X=.*: .* vs 0"),
    "trace-commutativity-on-core": (
        "modular", "trace-commutativity-on-core", (2, 2, "flip"), (0, 0), 1,
        [(modular, "omega", _omega_of_every_balanced_term)],
        r"X=.* Y=.*"),
    "state-gauge-invariance": (
        "modular", "state-gauge-invariance", (1, 1, "identity"), (1, 0), 1,
        [(algebra, "gauge", _gauge_by_the_degree_of_u)],
        r"A=.* t=\(.*\)"),
    "modular-powers-multiplicative": (
        "modular", "modular-powers-multiplicative", (2, 2, "flip"), (1, 0), 2,
        [(scalar, "power_of_base", _power_of_base_of_the_absolute_degree)],
        r"A=.* B=.*"),
    "state-faithfulness-spot": (
        "modular", "state-faithfulness-spot", (1, 1, "identity"), (1, 0), 2,
        [(modular, "omega", _omega_of_the_unit_term)],
        r"A=.*"),
    "canonical-intertwining": (
        "endo", "canonical-intertwining", (1, 1, "identity"), (1, 0), 1,
        [(endo.Endomorphism, "apply", _apply_without_the_adjoint)],
        r"\(p,q\)=\(1,0\) X=.* w=e1"),
    "shift-composition": (
        "endo", "shift-composition", (2, 2, "flip"), (0, 0), 1,
        [(endo, "compose", _compose_multiplying_in_reverse)],
        r"shift composition mismatch"),
    "inner-pairs-give-conjugation": (
        "endo", "inner-pairs-give-conjugation", (2, 2, "identity"), (0, 0), 4,
        [(endo, "inner_pair", _inner_pair_shifting_f_for_both)],
        r"W=.*"),
    "pair-product-associative": (
        "endo", "pair-product-associative", (2, 2, "flip"), (0, 0), 1,
        [(endo, "compose", _compose_multiplying_in_reverse)],
        r"associativity of the pair product"),
    "gauge-conjugation-of-pairs": (
        "endo", "gauge-conjugation-of-pairs", (1, 1, "identity"), (0, 0), 1,
        [(algebra, "gauge", _gauge_by_the_degree_of_u)],
        r"W=.* t=\(.*\)"),
    "pair-UU-commutant-criterion-flip": (
        "endo", "pair-UU-commutant-criterion", (2, 2, "flip"), (0, 0), 10,
        [(Element, "is_zero", _is_zero_without_the_canonical_form)],
        r"U=.*: flip table must make \(U,U\) twisted"),
    "gallery-ex312-involution": (
        "endo", "gallery-ex312", (1, 1, "identity"), (0, 0), 1,
        [(endo.Endomorphism, "__init__", _endomorphism_reading_swapped_unitaries)],
        r"involution at S\[e1;id\]"),
    "gallery-ex312-mixing": (
        "endo", "gallery-ex312", (1, 1, "identity"), (0, 0), 1,
        [(kernel, "common_ext", _common_ext_with_no_f_word_over_an_e_word)],
        r"mixing relation at \(i,j\)=\(1,1\)"),
}


def _plant(monkeypatch, owner, name, defect):
    """`defect` in place of `owner.name`: on a class the attribute itself, on
    a module every twograph module that binds the same function."""
    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, defect)
        return
    original = getattr(owner, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("twograph") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, defect)


@pytest.mark.parametrize("row", sorted(PLANTED))
def test_a_planted_defect_fails_its_case(row, monkeypatch, cold_extension_cache):
    suite, case_id, (m, n, kind), level, samples, patches, witness = PLANTED[row]

    def case():
        # a fresh table and a cold cache keep each run's words to itself
        (report,) = run_suite(suite, semigroup.make_theta(m, n, kind), seed=0, level=level,
                              samples=samples)
        semigroup._common_extensions_cached.cache_clear()
        (found,) = [c for c in report.cases if c.case_id == case_id]
        return found

    correct = case()
    assert correct.passed and re.fullmatch(r"(\d+)/\1 exact", correct.detail)
    for owner, name, defect in patches:
        _plant(monkeypatch, owner, name, defect)
    broken = case()
    assert not broken.passed
    assert re.fullmatch(rf"\d+/\d+ exact; first witness: {witness}", broken.detail), broken.detail


@pytest.mark.parametrize("error", [DegreeTooLarge])
def test_a_checker_limit_inside_a_case_ends_check_with_exit_2(error, monkeypatch, capsys):
    # the stratum cap bounds the checker, not the code under check, so it is
    # a usage error and never a case's FAIL
    def refused(self, a, b, product):
        raise error("beyond the checker")

    monkeypatch.setattr(GradedActionModel, "product_agrees", refused)
    code = main(["check", "algebra", "--samples", "4", "--level", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "case.algebra.product-vs-oracle" not in captured.out
    assert captured.err == "error: beyond the checker\n"


def _oracle_case_details(theta, level, draws, monkeypatch):
    """The details of product-vs-oracle, with `random_word` drawing u1, v1,
    u2, v2 from `draws`, and of state-vs-oracle-trace, on a rank-one
    projection of the stratum (2, 2). Each runs once on its draw; every
    other case of the algebra suite draws nothing."""
    square = Word((1, 1), (1, 1))
    words = iter(draws)
    monkeypatch.setattr(sampling, "random_word", lambda rng, theta, level: next(words))
    monkeypatch.setattr(sampling, "random_core_element",
                        lambda rng, theta, level, terms: Element.gen(theta, square, square))
    trials = suites._trials
    monkeypatch.setattr(suites, "_trials", lambda count, trial: trials(
        1 if trial.__name__ in ("product_vs_oracle", "trace_vs_oracle") else 0, trial))
    report = suites.algebra_suite(theta, seed=0, level=level, samples=1)
    details = {case.case_id: case.detail for case in report.cases}
    return details["product-vs-oracle"], details["state-vs-oracle-trace"]


@pytest.mark.parametrize("level", list(itertools.product(range(4), repeat=2)), ids=str)
def test_the_oracle_cases_hold_their_widest_draws(theta, level, monkeypatch):
    # product-vs-oracle reaches its widest image stratum with a = S[u1;id]
    # and b = S[u2;id], d(u1) = d(u2) = level: evaluated on the stratum
    # (1, 1), the product's action lands in 2*level + (1, 1)
    top = Word((1,) * level[0], (1,) * level[1])
    draws = [top, EMPTY_WORD, top, EMPTY_WORD]
    assert _oracle_case_details(theta, level, draws, monkeypatch) == ("1/1 exact",) * 2


@pytest.mark.parametrize("table", ["identity33", "flip33", "mixed33"])
def test_the_oracle_cases_hold_their_deepest_draw_on_3x3_tables(table, request, monkeypatch):
    # a = S[w;w] and b = S[id;w] with d(w) = (3, 3): the product S[w;w.w]
    # puts the evaluation stratum at (7, 7), whose 3^14 words are more than
    # MAX_WORDS; only the rows that b and the product have are walked, and
    # each term's tails stay within (4, 4)
    theta = request.getfixturevalue(table)
    w = Word((1, 2, 3), (3, 1, 2))
    draws = [w, w, EMPTY_WORD, w]
    assert _oracle_case_details(theta, (3, 3), draws, monkeypatch) == ("1/1 exact",) * 2


def test_a_pair_that_is_not_twisted_is_named_by_its_degree(id23, capsys, cold_extension_cache,
                                                           monkeypatch):
    # with `common_ext` reversing the f-letters it pulls across a cut the
    # pair (1,0) is still twisted and (0,1) is the first that is not; the
    # witness must say which
    monkeypatch.setattr(kernel, "_pulls_to", _pulls_to_reversing_f1)
    code, broken = _check_all("id23", capsys)
    assert code == 1
    assert broken["case.endo.canonical-pairs-twisted"] == (
        "FAIL 1/2 exact; first witness: (p,q)=(0,1): pair is not twisted")


def _per_split_uniqueness(theta, level):
    """The `factor-uniqueness` line when each split is decided alone, joining
    every block pair of its split degree again for each word: the reference."""
    concat = suites.concat

    def unique_split(w, a, b):
        rests = semigroup.enumerate_words(theta, semigroup.deg_sub(w.degree, (a, b)))
        hits = sum(1 for w1 in semigroup.enumerate_words(theta, (a, b)) for w2 in rests
                   if concat(theta, w1, w2) == w)
        if hits != 1:
            return f"w={w} delta=({a},{b}) has {hits} splits"
    report = suites.SuiteReport("reference")
    report.run("factor-uniqueness", (
        unique_split(w, a, b) for w in semigroup.words_up_to(theta, level)
        for a in range(w.degree[0] + 1) for b in range(w.degree[1] + 1)
    ))
    return report.cases[0].detail


@pytest.mark.parametrize("level", [(1, 1), (2, 1), (2, 2)], ids=str)
def test_factor_uniqueness_counts_a_collision_as_the_per_split_loop(theta, level, monkeypatch):
    # a join that takes e2 for e1 as the left factor makes two block pairs
    # of split degree (1, 0) meet on each word that starts with e1 and none
    # on each that starts with e2; the counting pass must give the line the
    # per-split loop gives
    concat = semigroup.concat
    e1, e2 = Word((1,), ()), Word((2,), ())

    def colliding(theta, w1, w2):
        return concat(theta, e1 if w1 == e2 else w1, w2)

    monkeypatch.setattr(suites, "concat", colliding)
    report = suites.semigroup_suite(theta, seed=0, level=level, samples=1)
    (case,) = [c for c in report.cases if c.case_id == "factor-uniqueness"]
    assert not case.passed
    assert case.detail == _per_split_uniqueness(theta, level)
    assert case.detail.endswith("first witness: w=e1 delta=(1,0) has 2 splits")
