"""Differentials: Leibniz rule, grading checks, d^2 = 0 verification."""

import random
from fractions import Fraction

import pytest

from dgquiver import (
    AlgebraElement,
    Arrow,
    Differential,
    DGModel,
    GradedQuiver,
    InvalidInputError,
    McKayData,
    Path,
    QuadraticPresentation,
    check_d_squared,
    check_grading,
    mckay_model,
    minimal_model_general,
    polynomial_model,
)
from oracles import old_apply_to_path, old_check_d_squared


@pytest.fixture(scope="module")
def poly3():
    return polynomial_model(3)


def test_apply_to_single_arrows(poly3):
    q = poly3.quiver
    d = poly3.differential
    # degree-1 generators are closed
    for name in ("x1", "x2", "x3"):
        assert d(q.gen(name)).is_zero()
    # the degree-2 generator maps to the commutator
    assert d(q.gen("x12")) == q.gen("x1") * q.gen("x2") - q.gen("x2") * q.gen("x1")


def test_leibniz_on_products(poly3):
    q = poly3.quiver
    d = poly3.differential
    x1, x23 = q.gen("x1"), q.gen("x23")
    x2, x3 = q.gen("x2"), q.gen("x3")
    # x1 has even hdeg: no sign when d passes it
    assert d(x1 * x23) == x1 * (x2 * x3 - x3 * x2)
    # x12 has odd hdeg -1 but d(x3) = 0, so only the first term survives
    x12 = q.gen("x12")
    assert d(x12 * x3) == (x1 * x2 - x2 * x1) * x3


def test_leibniz_identity_randomized(poly3):
    q = poly3.quiver
    d = poly3.differential
    rng = random.Random(7)
    names = [a.name for a in q.arrows]
    for _ in range(300):
        u = q.gen(rng.choice(names))
        for _ in range(rng.randrange(3)):
            u = u * q.gen(rng.choice(names))
        v = q.gen(rng.choice(names))
        sign = Fraction((-1) ** (u.hdeg() % 2)) if u else Fraction(1)
        assert d(u * v) == d(u) * v + sign * (u * d(v))


def test_apply_is_the_sum_of_the_path_keyed_loop_over_the_terms():
    """d of an element with many terms at every vertex, weighted so that
    some images cancel, against old_apply_to_path summed term by term."""
    model = mckay_model(McKayData(3, (1, 1, 1)))
    q, d = model.quiver, model.differential
    paths = [
        Path(a.source, (a.name, b.name)) for a in q.arrows for b in q.out_arrows(a.target) if a.hdeg + b.hdeg == -1
    ]
    u = AlgebraElement(q, {p: Fraction(i % 5 - 2, 1 + i % 3) for i, p in enumerate(paths)})
    assert len({p.start for p in u.terms}) == 3
    want: dict = {}
    for p, c in u.terms.items():
        for r, x in old_apply_to_path(d, p).items():
            want[r] = want.get(r, 0) + c * x
    assert d.apply(u).terms == {r: c for r, c in want.items() if c}
    assert len({r.start for r in d.apply(u).terms}) == 3
    assert any(not c for c in want.values())


def test_apply_rejects_inhomogeneous(poly3):
    q = poly3.quiver
    with pytest.raises(InvalidInputError):
        poly3.differential(q.gen("x1") + q.gen("x12"))


def test_d_squared_passes(poly3):
    report = check_d_squared(poly3.differential)
    assert report == {
        "check": "d_squared",
        "status": "pass",
        "note": "verified on arrows; Leibniz extends the identity to all paths",
    }


def test_d_squared_catches_corrupted_sign(poly3):
    q = poly3.quiver
    on = dict(poly3.differential.on_arrows)
    bad = {p: (-c if p.arrows == ("x1", "x23") else c) for p, c in on["x123"].terms.items()}
    on["x123"] = AlgebraElement(q, bad)
    report = check_d_squared(Differential(q, on))
    assert report["status"] == "fail"
    assert report["witness"]["arrow"] == "x123"


def _corruptions(d: Differential):
    """d with one term of one d(a) negated or scaled by 2/3."""
    for name, da in d.on_arrows.items():
        for p in da.terms:
            for f in (-1, Fraction(2, 3)):
                on = dict(d.on_arrows)
                on[name] = AlgebraElement(d.quiver, {r: c * f if r == p else c for r, c in da.terms.items()})
                yield Differential(d.quiver, on)


def _quantum_model():
    """Fraction coefficients in d: k<x1, x2, x3> with x_i x_j = q_ij x_j x_i."""
    q = GradedQuiver((0,), tuple(Arrow(f"x{i}", 0, 0, 0, 1) for i in (1, 2, 3)))
    ratios = {(1, 2): Fraction(3, 7), (1, 3): Fraction(-5, 2), (2, 3): Fraction(11)}
    relators = tuple(
        AlgebraElement(q, {Path(0, (f"x{i}", f"x{j}")): 1, Path(0, (f"x{j}", f"x{i}")): -r})
        for (i, j), r in ratios.items()
    )
    return minimal_model_general(QuadraticPresentation(q, relators), 3)


def _ungraded_differential():
    """d(y) = x*x and d(z) = y*x*x with |z| = (-2, 3): d(d(z)) = x^4 sits
    above adeg 3, where a check truncated at adeg 3 would miss it."""
    q = GradedQuiver((0,), (Arrow("x", 0, 0, 0, 1), Arrow("y", 0, 0, -1, 2), Arrow("z", 0, 0, -2, 3)))
    on = {"y": AlgebraElement(q, {Path(0, ("x", "x")): 1}), "z": AlgebraElement(q, {Path(0, ("y", "x", "x")): 3})}
    return Differential(q, on)


def test_d_squared_report_matches_the_fraction_route():
    """Pass and fail reports, witness residues included, are identical to
    those of the former AlgebraElement route on corrupted polynomial,
    McKay and quantum differentials, and on an ungraded one whose d^2 is
    nonzero only above the largest arrow adeg."""
    ds = [polynomial_model(3).differential, mckay_model(McKayData(3, (1, 1, 1))).differential]
    ds.append(_quantum_model().differential)
    failed = 0
    for d in ds:
        assert check_d_squared(d) == old_check_d_squared(d)
        for bad in _corruptions(d):
            report = check_d_squared(bad)
            assert report == old_check_d_squared(bad)
            failed += report["status"] == "fail"
    assert failed > 0
    d = _ungraded_differential()
    report = check_d_squared(d)
    assert report == old_check_d_squared(d)
    assert report["status"] == "fail"
    assert report["witness"] == {"arrow": "z", "residue": "(3)x*x*x*x"}


def test_grading_check(poly3):
    assert check_grading(poly3.differential)["status"] == "pass"
    q = poly3.quiver
    # wrong hdeg: a term of d(x12) must sit in hdeg 0
    on = dict(poly3.differential.on_arrows)
    on["x12"] = q.gen("x12")
    report = check_grading(Differential(q, on))
    assert report["status"] == "fail"
    assert "hdeg" in report["witness"]["reason"]


def test_grading_check_minimality():
    from dgquiver import Arrow, GradedQuiver

    q = GradedQuiver((0,), (Arrow("a", 0, 0, 0, 1), Arrow("b", 0, 0, -1, 1)))
    report = check_grading(Differential(q, {"b": q.gen("a")}))
    assert report["status"] == "fail"
    assert "minimality" in report["witness"]["reason"]


def test_model_wires_quiver_and_differential(poly3):
    assert poly3.provenance == "polynomial"
    assert poly3.metadata["n"] == 3
    with pytest.raises(InvalidInputError):
        DGModel(polynomial_model(2).quiver, poly3.differential)
