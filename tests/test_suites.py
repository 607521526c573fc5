"""Every named verification suite passes for both reference tables."""

import pytest

from twograph import endo, modular
from twograph.algebra import GenTerm
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
