"""Every named verification suite passes for both reference tables."""

import re

import pytest

from twograph import endo, modular, suites
from twograph.algebra import GenTerm
from twograph.cli import main
from twograph.endo import gallery
from twograph.semigroup import word
from twograph.suites import SUITE_NAMES, kms_suite, run_suite


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(theta, name):
    reports = run_suite(name, theta, seed=7, level=(2, 2), samples=10,
                        float_tol=1e-9)
    for report in reports:
        for case in report.cases:
            assert case.passed, f"{report.name}.{case.case_id}: {case.detail}"


def test_all_expands_to_every_suite(flip22):
    reports = run_suite("all", flip22, seed=1, level=(1, 1), samples=2,
                        float_tol=1e-9)
    assert [r.name for r in reports] == list(SUITE_NAMES)


def test_unknown_suite_rejected(flip22):
    with pytest.raises(ValueError):
        run_suite("everything", flip22, 0, (1, 1), 1, 1e-9)


def test_reports_are_deterministic(id23):
    first = run_suite("modular", id23, seed=5, level=(1, 1), samples=5,
                      float_tol=1e-9)
    second = run_suite("modular", id23, seed=5, level=(1, 1), samples=5,
                       float_tol=1e-9)
    assert [(c.case_id, c.passed, c.detail) for r in first for c in r.cases] == \
        [(c.case_id, c.passed, c.detail) for r in second for c in r.cases]


def _flow_gauge_detail(theta):
    report = kms_suite(theta, seed=0, level=(2, 2), samples=2, float_tol=1e-9)
    (case,) = [c for c in report.cases if c.case_id == "flow-equals-gauge-float"]
    return case.detail


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


def test_a_gallery_bug_is_not_recorded_as_a_failed_check(id22, monkeypatch):
    # the gallery cases record only the package's own refusals; any other
    # exception is a bug in the program and propagates
    def broken_gallery(theta, name, **kwargs):
        if name == "ex311":
            raise ZeroDivisionError(name)
        return gallery(theta, name, **kwargs)

    monkeypatch.setattr(endo, "gallery", broken_gallery)
    with pytest.raises(ZeroDivisionError, match="ex311"):
        run_suite("endo", id22, seed=0, level=(1, 1), samples=2, float_tol=1e-9)


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
    reports = run_suite("endo", flip22, seed=0, level=(1, 1), samples=2, float_tol=1e-9)
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
