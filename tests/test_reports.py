"""Check reports, all built by errors.passed and errors.failed: a pass
carries no witness, a fail carries exactly its check, its status and its
witness, and every failing cy_check names a witness."""

from itertools import combinations_with_replacement

import pytest

from dgquiver import (
    AlgebraElement,
    Differential,
    McKayData,
    PresentedAlgebra,
    build_split,
    check_d_squared,
    check_grading,
    compare_h0,
    cy_check,
    delete_vertex,
    mckay_model,
    polynomial_model,
)
from dgquiver.koszul import mckay_commutation_presentation


def _assert_shape(report: dict, check: str, status: str) -> None:
    assert report["check"] == check and report["status"] == status
    if status == "pass":
        assert "witness" not in report
    else:
        assert list(report) == ["check", "status", "witness"]
        assert report["witness"]


def test_grading_reports():
    d = polynomial_model(3).differential
    _assert_shape(check_grading(d), "grading", "pass")
    bad = Differential(d.quiver, {**d.on_arrows, "x12": d.quiver.gen("x12")})
    _assert_shape(check_grading(bad), "grading", "fail")


def test_d_squared_reports():
    d = polynomial_model(3).differential
    _assert_shape(check_d_squared(d), "d_squared", "pass")
    flipped = {p: (-c if p.arrows == ("x1", "x23") else c) for p, c in d.on_arrows["x123"].terms.items()}
    bad = Differential(d.quiver, {**d.on_arrows, "x123": AlgebraElement(d.quiver, flipped)})
    _assert_shape(check_d_squared(bad), "d_squared", "fail")


def test_split_closure_reports():
    _assert_shape(build_split(McKayData(3, (1, 1, 1))).closure, "split_closure", "pass")
    _assert_shape(build_split(McKayData(2, (1, 1, 1, 1))).closure, "split_closure", "fail")


def test_compare_h0_reports():
    data = McKayData(4, (1, 1, 1, 1))
    model = delete_vertex(mckay_model(data), 0)
    pres = mckay_commutation_presentation(data).delete_vertex(0)
    _assert_shape(compare_h0(model, pres, 5), "compare_h0", "pass")
    weakened = PresentedAlgebra(pres.quiver, pres.relators[1:])
    _assert_shape(compare_h0(model, weakened, 5), "compare_h0", "fail")


def _sub_reports(report: dict) -> list[dict]:
    return [v for v in report.values() if isinstance(v, dict) and "check" in v]


@pytest.mark.parametrize("m", range(2, 7))
def test_every_failing_cy_check_names_a_witness(m):
    """Over every sorted tuple of one to three weights in 0..m-1, a
    failing cy_check holds a failing sub-report, and each failing
    sub-report has the shape of errors.failed.  The weight sums other
    than m, such as (3; 1,1), pass the closure check, so only the
    weight_sum report names their witness."""
    for k in (1, 2, 3):
        for weights in combinations_with_replacement(range(m), k):
            report = cy_check(McKayData(m, weights), 3)
            failing = [r for r in _sub_reports(report) if r["status"] == "fail"]
            assert (report["status"] == "fail") == bool(failing), (m, weights)
            for r in failing:
                _assert_shape(r, r["check"], "fail")
            if sum(weights) != m:
                assert report["weight_sum"]["witness"] == {"m": m, "sum": sum(weights)}
            else:
                assert "weight_sum" not in report
