"""Ascending/descending split, the commuting-square algebra C, the
bimodule of noncommutative differentials and the pairing element, with
its word-keyed Leibniz loops against the Path-based ones they replaced
and against broken copies of d and omega."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from dgquiver import (
    InvalidInputError,
    McKayData,
    build_and_check_omega,
    build_C,
    build_omega_tilde,
    build_split,
    check_C_koszul_and_model,
    cy_check,
)
from dgquiver import cy, koszul
from dgquiver.cy import OmegaTilde, _omega_element, _trace_d
from dgquiver.koszul import mckay_arrow_name
from oracles import old_build_C, old_build_omega_tilde, old_omega_tilde_d, old_trace_d

CY_CASES = ((3, (1, 1, 1)), (4, (1, 1, 1, 1)), (5, (1, 1, 1, 2)), (6, (1,) * 6), (7, (1, 1, 1, 1, 3)))


def test_split_m3():
    s = build_split(McKayData(3, (1, 1, 1)))
    # ascending: the three degree-0 arrows 1 -> 2; descending: everything else
    assert s.ascending == {mckay_arrow_name(1, (i,)) for i in (1, 2, 3)}
    assert s.descending == {
        mckay_arrow_name(2, (i, j)) for i, j in ((1, 2), (1, 3), (2, 3))
    } | {mckay_arrow_name(1, (1, 2, 3)), mckay_arrow_name(2, (1, 2, 3))}
    assert s.closure_holds


def test_split_closure_on_three_cases_and_its_witness_on_2_1111():
    for m, weights in ((3, (1, 1, 1)), (4, (1, 1, 1, 1)), (5, (1, 1, 1, 2))):
        assert build_split(McKayData(m, weights)).closure_holds
    s = build_split(McKayData(2, (1, 1, 1, 1)))
    assert not s.closure_holds
    assert "descending factors" in s.closure["witness"]["reason"]
    with pytest.raises(InvalidInputError):
        s.require_closure()
    with pytest.raises(InvalidInputError):
        s.ascending_model()


def test_split_closure_holds_when_every_weight_is_positive_and_sums_to_m():
    """The lemma of the split: with every weight >= 1 and sum m, a term of a
    descending arrow wraps past m in exactly one factor, and no term of an
    ascending arrow wraps, so closure holds.  Checked on all 61 sorted weight
    vectors with m <= 9 and n <= 4.  The converse is false: closure holds on
    (3;1,1), whose sum is not m, and fails on (2;0,1,1), whose sum is."""
    cases = [
        (m, weights)
        for m in range(2, 10)
        for n in range(1, 5)
        for weights in combinations_with_replacement(range(1, m), n)
        if sum(weights) == m
    ]
    assert len(cases) == 61
    assert [c for c in cases if not build_split(McKayData(*c)).closure_holds] == []
    assert build_split(McKayData(3, (1, 1))).closure_holds
    assert not build_split(McKayData(2, (0, 1, 1))).closure_holds


def test_build_C_m2_is_semisimple():
    # m = 2, weights (1, 1): one surviving vertex, no ascending room
    s = build_split(McKayData(2, (1, 1)))
    c = build_C(s)
    assert c.quiver.vertices == (1,)
    assert c.quiver.arrows == ()
    assert c.relators == ()


def test_build_C_m4_relators():
    s = build_split(McKayData(4, (1, 1, 1, 1)))
    c = build_C(s)
    assert c.quiver.vertices == (1, 2, 3)
    # arrows 1 -> 2 and 2 -> 3, four of each
    assert len(c.quiver.arrows) == 8
    # commuting squares 1 -> 3: C(4, 2) relators, all at vertex 1
    assert len(c.relators) == 6
    for r in c.relators:
        assert r.endpoints() == (1, 3)
        assert sorted(r.terms.values()) == [Fraction(-1), Fraction(1)]


def _weight_vectors(m: int, entries: range, max_n: int):
    """Every weight vector (m; a), as a non-decreasing tuple of at most
    max_n entries from the given range, with sum(a) = m."""
    for n in range(1, max_n + 1):
        yield from (a for a in combinations_with_replacement(entries, n) if sum(a) == m)


def test_build_C_matches_the_weight_by_weight_construction():
    """The restricted commutation presentation equals the former build_C
    (same quiver, same relators in the same order) wherever closure holds,
    for m <= 8.  Closure holds for every weight vector with entries >= 1
    and for none with an entry 0 (checked up to five weights), so the
    ascending filter target > source meets no weight-0 loop."""
    cases = 0
    for m in range(2, 9):
        for a in _weight_vectors(m, range(1, m), m):
            s = build_split(McKayData(m, a))
            assert s.closure_holds, (m, a)
            assert build_C(s) == old_build_C(s), (m, a)
            cases += 1
        for a in _weight_vectors(m, range(m), 5):
            if 0 in a:
                assert not build_split(McKayData(m, a)).closure_holds, (m, a)
    assert cases == 58


def test_check_C_koszul_and_model():
    for m, weights in ((3, (1, 1, 1)), (4, (1, 1, 1, 1)), (5, (1, 1, 1, 2))):
        s = build_split(McKayData(m, weights))
        report = check_C_koszul_and_model(s, nadams=5)
        assert report["status"] == "pass", report


def test_omega_tilde_generators_m3():
    s = build_split(McKayData(3, (1, 1, 1)))
    ot = build_omega_tilde(s)
    names = {g.name for g in ot.generators}
    # proper subsets S with 1 <= j and j + d(S) <= 2
    assert names == {"w1_e", "w2_e", "w1_1", "w1_2", "w1_3"}
    # the empty-set generators are closed
    assert "w1_e" not in ot.d_on_generators
    # d(w_{1,{i}}) = w_{1,()} . x_{1,{i}} - x_{1,{i}} . w_{2,()}
    assert ot.d_on_generators["w1_1"] == {("w1_e", "x1_1"): 1, ("x1_1", "w2_e"): -1}
    assert all(type(c) is int for el in ot.d_on_generators.values() for c in el.values())


def test_build_omega_tilde_matches_the_old_builder():
    """The subset table gives the generators and d_on_generators of the
    per-split builder, in the same order, on all 35 weight vectors with
    3 <= m <= 8, three to five weights and sum m."""
    cases = [
        (m, w) for m in range(3, 9) for n in (3, 4, 5) for w in combinations_with_replacement(range(1, m), n) if sum(w) == m
    ]
    assert len(cases) == 35
    for m, weights in cases:
        s = build_split(McKayData(m, weights))
        got, want = build_omega_tilde(s), old_build_omega_tilde(s)
        assert got.generators == want.generators
        assert [(g, list(el.items())) for g, el in got.d_on_generators.items()] == [
            (g, list(el.items())) for g, el in want.d_on_generators.items()
        ]


def test_omega_tilde_d_squared():
    for m, weights in ((3, (1, 1, 1)), (4, (1, 1, 1, 1)), (5, (1, 1, 1, 2))):
        ot = build_omega_tilde(build_split(McKayData(m, weights)))
        assert ot.check_d_squared()["status"] == "pass"


def test_omega_m3_pair_structure():
    s = build_split(McKayData(3, (1, 1, 1)))
    ot = build_omega_tilde(s)
    omega = _omega_element(ot)
    assert len(omega) == 5
    # every generator is paired against exactly one descending arrow
    partners = {partner for (_g, partner) in omega}
    assert partners == set(s.descending)


def test_omega_checks_pass():
    expected_pairs = {(3, (1, 1, 1)): 5, (4, (1, 1, 1, 1)): 17, (5, (1, 1, 1, 2)): 25}
    for (m, weights), pairs in expected_pairs.items():
        s = build_split(McKayData(m, weights))
        report = build_and_check_omega(build_omega_tilde(s))
        assert report["status"] == "pass", report
        assert report["degree"] == -len(weights) + 1
        assert report["closed"] and report["nondegenerate"]
        assert report["pairs"] == pairs


def test_omega_refused_without_closure():
    s = build_split(McKayData(2, (1, 1, 1, 1)))
    with pytest.raises(InvalidInputError):
        build_omega_tilde(s)
    with pytest.raises(InvalidInputError):
        build_and_check_omega(OmegaTilde(s, (), {}))


def test_cy_check_pipeline():
    report = cy_check(McKayData(3, (1, 1, 1)), nadams=4)
    assert report["status"] == "pass"
    for key in ("closure", "koszul_truncated", "omega_tilde_d_squared", "omega"):
        assert report[key]["status"] == "pass"
    bad = cy_check(McKayData(2, (1, 1, 1, 1)), nadams=3)
    assert bad["status"] == "fail"
    assert "sum of weights" in bad["reason"]


def _generator(g) -> dict:
    return {(g.name,): 1}


@pytest.mark.parametrize("m, weights", CY_CASES)
def test_omega_tilde_d_matches_the_path_keyed_loop(m, weights):
    ot = build_omega_tilde(build_split(McKayData(m, weights)))
    for g in ot.generators:
        once = ot.d(_generator(g))
        assert once == old_omega_tilde_d(ot, _generator(g))
        assert ot.d(once) == old_omega_tilde_d(ot, once) == {}
        # unequal, non-integral weights on the terms of d(g), so d does not vanish
        mixed = {t: Fraction(i + 1, 1 + i % 3) for i, t in enumerate(once)}
        assert ot.d(mixed) == old_omega_tilde_d(ot, mixed)


@pytest.mark.parametrize("m, weights", CY_CASES)
def test_trace_d_matches_the_path_keyed_loop(m, weights):
    ot = build_omega_tilde(build_split(McKayData(m, weights)))
    omega = _omega_element(ot)
    assert _trace_d(ot, omega) == old_trace_d(ot, omega) == {}
    perturbed = dict(omega)
    term = min(perturbed)
    perturbed[term] *= 2
    residue = _trace_d(ot, perturbed)
    assert residue and residue == old_trace_d(ot, perturbed)


def test_check_d_squared_names_the_generator_with_a_flipped_sign():
    ot = build_omega_tilde(build_split(McKayData(4, (1, 1, 1, 1))))
    # only later generators' d involve a generator at vertex 1, so it fails first
    g = next(g for g in ot.generators if g.vertex == 1 and len(g.subset) == 2)
    term = next(t for t in ot.d_on_generators[g.name] if any(ot.by_name[a].subset for a in t if a in ot.by_name))
    d_on = dict(ot.d_on_generators)
    d_on[g.name] = {t: -c if t == term else c for t, c in d_on[g.name].items()}
    bad = OmegaTilde(ot.split_model, ot.generators, d_on)
    assert bad.check_d_squared() == {
        "check": "omega_tilde_d_squared",
        "status": "fail",
        "witness": {"generator": g.name},
    }
    twice = bad.d(bad.d(_generator(g)))
    assert twice and twice == old_omega_tilde_d(bad, old_omega_tilde_d(bad, _generator(g)))


def test_doubled_omega_coefficient_leaves_a_residue():
    ot = build_omega_tilde(build_split(McKayData(5, (1, 1, 1, 2))))
    omega = _omega_element(ot)
    for term in omega:
        doubled = {t: 2 * c if t == term else c for t, c in omega.items()}
        assert _trace_d(ot, doubled)


def test_broken_omega_reports_its_witness():
    """The full omega reports of (4;1111) with the first term of d(w1_12)
    sign-flipped, and with the first generator's hdeg lowered by one."""
    ot = build_omega_tilde(build_split(McKayData(4, (1, 1, 1, 1))))
    g = next(g for g in ot.generators if g.vertex == 1 and len(g.subset) == 2)
    first = next(iter(ot.d_on_generators[g.name]))
    d_on = dict(ot.d_on_generators)
    d_on[g.name] = {t: -c if t == first else c for t, c in d_on[g.name].items()}
    assert build_and_check_omega(OmegaTilde(ot.split_model, ot.generators, d_on)) == {
        "check": "omega",
        "status": "fail",
        "witness": {"d_omega_term": ("w1_e", ["x1_12", "x3_34"]), "coeff": "2"},
    }
    g0 = ot.generators[0]
    lowered = (replace(g0, hdeg=g0.hdeg - 1),) + ot.generators[1:]
    assert build_and_check_omega(OmegaTilde(ot.split_model, lowered, ot.d_on_generators)) == {
        "check": "omega",
        "status": "fail",
        "witness": {"term": ("w1_e", ["x1_1234"]), "hdeg": -4, "expected": -3},
    }


def test_cy_check_builds_one_omega_tilde(monkeypatch):
    built = []

    def counting(s):
        built.append(s)
        return build_omega_tilde(s)

    monkeypatch.setattr(cy, "build_omega_tilde", counting)
    assert cy_check(McKayData(4, (1, 1, 1, 1)), nadams=3)["status"] == "pass"
    assert len(built) == 1


def test_cy_check_builds_each_subset_table_once():
    """The (weights, n) table serves the deleted model and the split
    model, the (weights, 2) table the commuting squares of C."""
    koszul._subset_table.cache_clear()
    cy_check(McKayData(6, (1,) * 6), 4)
    info = koszul._subset_table.cache_info()
    assert (info.misses, info.hits) == (2, 1)


def test_d_squared_vanishes_on_two_sided_terms():
    """d(d(x.g.y)) = 0 for ascending arrows x into g and y out of g.  The
    Path-keyed loop signed x.g.d(y) by (-1)^|g| instead of (-1)^(|x|+|g|),
    which no d(d(g)) shows, as d(g) has no term with both sides nonempty,
    but some of these terms do."""
    s = build_split(McKayData(7, (1, 1, 1, 1, 3)))
    ot = build_omega_tilde(s)
    arrows = s.ascending_model().quiver.arrows
    old_fails = 0
    for g in ot.generators:
        for x in (a for a in arrows if a.target == g.vertex):
            for y in (a for a in arrows if a.source == g.target):
                el = {(x.name, g.name, y.name): 1}
                assert ot.d(ot.d(el)) == {}
                old_fails += bool(old_omega_tilde_d(ot, old_omega_tilde_d(ot, el)))
    assert old_fails


def _dropping_last_row_of_j1(series):
    def broken(pres):
        for n, basis in enumerate(series(pres), 1):
            yield basis[:-1] if n == 1 else basis

    return broken


@pytest.mark.parametrize(
    "step, broken, witness",
    [
        (
            "cohomology_dims",
            lambda real: lambda *args, **kw: real(*args, **kw) | {(-1, 2, 1, 2): 1},
            {"nonzero_negative_cohomology": {"(-1, 2, 1, 2)": 1}},
        ),
        (
            "truncated_dims",
            lambda real: lambda *args: real(*args) | {(1, 1, 0): 2},
            {"h0_vs_C": {"(1, 1, 0)": (1, 2)}},
        ),
        (
            "_jn_series",
            _dropping_last_row_of_j1,
            {"degree": 1, "J_n": {"(1, 2)": 2}, "generators": {"(1, 2)": 3}},
        ),
    ],
    ids=["negative cohomology", "H0 against C", "J_n against generators"],
)
def test_c_koszul_failures_carry_their_witness(monkeypatch, step, broken, witness):
    """Each failure of check_C_koszul_and_model on (3;111), reached by
    breaking the step before it: a nonzero class in hdeg -1, a dimension
    of C one too high, and an arrow lost from J_1."""
    s = build_split(McKayData(3, (1, 1, 1)))
    monkeypatch.setattr(cy, step, broken(getattr(cy, step)))
    assert check_C_koszul_and_model(s, 3) == {"check": "c_koszul", "status": "fail", "witness": witness}


@pytest.mark.parametrize(
    "omega, closed, witness",
    [
        (
            lambda om: om | {("w1_1", "x2_13"): 1},
            False,
            {"reason": "pairing is not a matching", "term": ("w1_1", ["x2_13"])},
        ),
        (lambda om: {}, True, {"reason": "some generator unpaired"}),
        (
            lambda om: {t if t != ("w1_3", "x2_12") else ("w1_3", "x2_13"): c for t, c in om.items()},
            False,
            {"reason": "pairing not onto the descending arrows"},
        ),
        (lambda om: {t: 2 * c for t, c in om.items()}, True, {"reason": "non-unit pairing coefficient"}),
    ],
    ids=["second partner", "zero", "partner not descending", "doubled"],
)
def test_omega_pairing_failures_carry_their_witness(monkeypatch, omega, closed, witness):
    """Each pairing failure of build_and_check_omega on (3;111), with the
    real omega broken as it is built.  The zero and the doubled omega are
    closed, so the real d meets them; for the other two the trace of d is
    taken as 0, so that the pairing is checked at all."""
    ot = build_omega_tilde(build_split(McKayData(3, (1, 1, 1))))
    monkeypatch.setattr(cy, "_omega_element", lambda ot: omega(_omega_element(ot)))
    if not closed:
        monkeypatch.setattr(cy, "_trace_d", lambda ot, el: {})
    assert build_and_check_omega(ot) == {"check": "omega", "status": "fail", "witness": witness}
