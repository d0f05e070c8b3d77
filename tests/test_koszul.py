"""Minimal models: shuffle signs, polynomial and McKay models, the J_n
intersection lattice, and vertex deletion."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, product
from math import comb

import pytest

from dgquiver import (
    Arrow,
    GradedQuiver,
    InvalidInputError,
    McKayData,
    Path,
    PresentedAlgebra,
    QuadraticPresentation,
    ResourceLimitError,
    Superpotential,
    check_d_squared,
    check_grading,
    cohomology_dims,
    compute_Jn,
    delete_vertex,
    graded_commutator,
    h0_presentation,
    mckay_model,
    minimal_model_general,
    polynomial_model,
    shuffle_sign,
    truncated_dims,
)
from dgquiver import koszul, serialize
from dgquiver.koszul import _commuting_squares, deleted_mckay_model, mckay_arrow_name, mckay_commutation_presentation
from oracles import brute_Jn_dim, old_minimal_model_general


def commutative_presentation(n: int) -> QuadraticPresentation:
    """k[y_1..y_n] as a quadratic path algebra on one vertex."""
    q = GradedQuiver((0,), tuple(Arrow(f"y{i}", 0, 0, 0, 1) for i in range(1, n + 1)))
    relators = tuple(
        q.gen(f"y{i}") * q.gen(f"y{j}") - q.gen(f"y{j}") * q.gen(f"y{i}")
        for i, j in combinations(range(1, n + 1), 2)
    )
    return QuadraticPresentation(q, relators)


# -- shuffle signs ------------------------------------------------------------


def test_shuffle_sign_examples():
    assert shuffle_sign((1,), (2,)) == 1
    assert shuffle_sign((2,), (1,)) == -1
    assert shuffle_sign((1, 3), (2,)) == -1
    assert shuffle_sign((2, 4), (1, 3)) == -1  # inversions (2,1), (4,1), (4,3)


def test_shuffle_sign_law_small():
    for n in range(1, 6):
        universe = range(1, n + 1)
        for k in range(n + 1):
            for a in combinations(universe, k):
                b = tuple(sorted(set(universe) - set(a)))
                assert shuffle_sign(a, b) * shuffle_sign(b, a) == (-1) ** (len(a) * len(b))


# -- polynomial models --------------------------------------------------------


def test_polynomial_model_n2():
    model = polynomial_model(2)
    q = model.quiver
    assert sorted(a.name for a in q.arrows) == ["x1", "x12", "x2"]
    assert q.arrow("x12").hdeg == -1 and q.arrow("x12").adeg == 2
    assert model.d(q.gen("x12")) == q.gen("x1") * q.gen("x2") - q.gen("x2") * q.gen("x1")


def test_polynomial_model_n3_top_differential():
    model = polynomial_model(3)
    q = model.quiver
    x = {name: q.gen(name) for name in ("x1", "x2", "x3", "x12", "x13", "x23")}
    expected = (
        graded_commutator(x["x1"], x["x23"])
        - graded_commutator(x["x2"], x["x13"])
        + graded_commutator(x["x3"], x["x12"])
    )
    assert model.d(q.gen("x123")) == expected


def test_polynomial_model_generator_counts():
    for n in (2, 3, 4):
        model = polynomial_model(n)
        by_adeg = {}
        for a in model.quiver.arrows:
            assert a.hdeg == -a.adeg + 1
            by_adeg[a.adeg] = by_adeg.get(a.adeg, 0) + 1
        assert by_adeg == {k: comb(n, k) for k in range(1, n + 1)}


def test_polynomial_model_rejects_bad_n():
    with pytest.raises(InvalidInputError):
        polynomial_model(0)


# -- J_n ----------------------------------------------------------------------


def test_Jn_two_variables_matches_oracle():
    pres = commutative_presentation(2)
    dims = [len(compute_Jn(pres, n)) for n in (1, 2, 3, 4)]
    oracle = [brute_Jn_dim(pres, n) for n in (1, 2, 3, 4)]
    assert dims == oracle
    # exterior-power dimensions: J_3 of two variables is zero
    assert dims == [2, 1, 0, 0]


def test_Jn_three_variables_matches_oracle():
    pres = commutative_presentation(3)
    dims = [len(compute_Jn(pres, n)) for n in (1, 2, 3, 4)]
    oracle = [brute_Jn_dim(pres, n) for n in (1, 2, 3, 4)]
    assert dims == oracle == [3, 3, 1, 0]


def test_Jn_on_mckay_commutation_quiver():
    pres = mckay_commutation_presentation(McKayData(3, (1, 1, 1)))
    quad = QuadraticPresentation(pres.quiver, pres.relators)
    for n in (2, 3):
        assert len(compute_Jn(quad, n)) == brute_Jn_dim(quad, n)
    # one J_3 class per vertex (top exterior power of three variables)
    assert len(compute_Jn(quad, 3)) == 3
    assert len(compute_Jn(quad, 4)) == 0


def test_Jn_dims_on_the_mckay_8_all_ones_commutation_quiver():
    """dim J_k = m*C(n, k), one exterior power of the n variables per
    vertex, for k <= 5 on (8;1⁸): 64, 224, 448, 560 and 448 rows, the
    largest lattice among the tests."""
    pres = mckay_commutation_presentation(McKayData(8, (1,) * 8))
    bases = list(islice(koszul._jn_series(pres), 5))
    assert [len(b) for b in bases] == [8 * comb(8, k) for k in range(1, 6)]


def test_Jn_elements_live_in_relation_lattice():
    pres = commutative_presentation(3)
    for b in compute_Jn(pres, 3):
        assert b.adeg() == 3
        assert b.endpoints() == (0, 0)


def test_hilbert_series_identity():
    """(sum_k (-1)^k dim J_k t^k) * (sum_a dim A_a t^a) = 1 for k[y_1..y_n]."""
    for n in (2, 3):
        pres = commutative_presentation(n)
        nmax = 5
        jdim = [1] + [len(compute_Jn(pres, k)) for k in range(1, nmax + 1)]
        adim_table = truncated_dims(PresentedAlgebra(pres.quiver, pres.relators), nmax)
        adim = [adim_table.get((0, 0, a), 0) for a in range(nmax + 1)]
        for deg in range(nmax + 1):
            total = sum((-1) ** k * jdim[k] * adim[deg - k] for k in range(deg + 1))
            assert total == (1 if deg == 0 else 0)


# -- general minimal model vs explicit polynomial model ------------------------


def test_minimal_model_general_matches_polynomial():
    n = 3
    pres = commutative_presentation(n)
    general = minimal_model_general(pres, nmax=n)
    explicit = polynomial_model(n)
    gen_counts = {}
    for a in general.quiver.arrows:
        gen_counts[(a.hdeg, a.adeg)] = gen_counts.get((a.hdeg, a.adeg), 0) + 1
    exp_counts = {}
    for a in explicit.quiver.arrows:
        exp_counts[(a.hdeg, a.adeg)] = exp_counts.get((a.hdeg, a.adeg), 0) + 1
    assert gen_counts == exp_counts
    # basis-independent comparison: equal truncated cohomology tables
    assert cohomology_dims(general, -4, 4) == cohomology_dims(explicit, -4, 4)


def test_minimal_model_general_is_dg():
    from dgquiver import check_d_squared, check_grading

    pres = commutative_presentation(3)
    model = minimal_model_general(pres, nmax=3)
    assert check_grading(model.differential)["status"] == "pass"
    assert check_d_squared(model.differential)["status"] == "pass"


def quantum_presentation(qs: tuple[Fraction, ...]) -> QuadraticPresentation:
    """k<y_1..y_n>/(y_i y_j - q_ij y_j y_i), the q_ij in the order of the
    pairs i < j."""
    n = next(n for n in range(2, 10) if n * (n - 1) // 2 == len(qs))
    q = GradedQuiver((0,), tuple(Arrow(f"y{i}", 0, 0, 0, 1) for i in range(1, n + 1)))
    relators = tuple(
        q.gen(f"y{i}") * q.gen(f"y{j}") - (q.gen(f"y{j}") * q.gen(f"y{i}")).scale(c)
        for (i, j), c in zip(combinations(range(1, n + 1), 2), qs)
    )
    return QuadraticPresentation(q, relators)


def _assert_a_doubled_J3_coefficient_raises(monkeypatch, pres, changed):
    """Double the coefficient at sorted position changed of the one J_3
    basis vector: both the pivot read-off and the product-and-solve loop
    it replaced must find it outside J_1 ⊗ J_2."""
    series = koszul._jn_series

    def broken(pres):
        for n, basis in enumerate(series(pres), 1):
            if n == 3:
                (b,) = basis
                w = sorted(b)[changed]
                basis = [{**b, w: 2 * b[w]}]
            yield basis

    monkeypatch.setattr(koszul, "_jn_series", broken)
    for build in (minimal_model_general, old_minimal_model_general):
        with pytest.raises(RuntimeError, match="J_3 basis vector not inside J_1 ⊗ J_2: internal bug"):
            build(pres, 3)


@pytest.mark.parametrize("changed", range(6))
def test_minimal_model_general_rejects_a_J3_vector_outside_J1_J2(monkeypatch, changed):
    """The membership check is live: a J_3 basis vector of k[y1,y2,y3]
    with one of its six coefficients doubled lies outside V ⊗ R."""
    _assert_a_doubled_J3_coefficient_raises(monkeypatch, commutative_presentation(3), changed)


@pytest.mark.parametrize("changed", range(6))
def test_minimal_model_general_rejects_a_non_integral_J3_vector_outside_J1_J2(monkeypatch, changed):
    """The same on the quantum k<y1,y2,y3> with q_ij = -13/7, 29/11,
    -3/41: its J_3 row has non-integral coefficients, so the membership
    residual runs on rows scaled to integers."""
    pres = quantum_presentation((Fraction(-13, 7), Fraction(29, 11), Fraction(-3, 41)))
    (b,) = compute_Jn(pres, 3)
    assert len(b.terms) == 6 and any(c.denominator != 1 for c in b.terms.values())
    assert minimal_model_general(pres, 3).quiver.arrow("j3_0")
    _assert_a_doubled_J3_coefficient_raises(monkeypatch, pres, changed)


def test_every_coefficient_is_an_int_or_a_non_integral_Fraction():
    """Every coefficient is an int when it is integral and a Fraction
    otherwise: in the elements built from the J_n rows and the McKay
    split table, in those read from a file, and in a superpotential whose
    rotations sum to an integer.  Equality cannot see the difference, as
    1 == Fraction(1), so this checks the types."""
    data = McKayData(3, (1, 1, 1))
    commutation = mckay_commutation_presentation(data)
    quadratic = QuadraticPresentation(commutation.quiver, commutation.relators)
    elements = [b for pres in (commutative_presentation(3), quadratic) for n in range(1, 5) for b in compute_Jn(pres, n)]
    for model in (mckay_model(data), minimal_model_general(quadratic, 4)):
        loaded = serialize.model_from_json(serialize.model_to_json(model))
        elements += [*model.differential.on_arrows.values(), *loaded.differential.on_arrows.values()]
    elements += serialize.presentation_from_json(serialize.presentation_to_json(commutation)).relators
    assert len(elements) == 85
    quantum = quantum_presentation((Fraction(2, 3), Fraction(-5, 7), Fraction(3, 11)))
    elements += [b for n in range(1, 5) for b in compute_Jn(quantum, n)]
    elements += minimal_model_general(quantum, 3).differential.on_arrows.values()
    assert len(elements) == 85 + 7 + 4
    q = quantum.quiver
    halves = Superpotential(q, {Path(0, ("y1", "y2")): Fraction(1, 2), Path(0, ("y2", "y1")): Fraction(1, 2)})
    coefficients = [c for el in elements for c in el.terms.values()] + list(halves.terms.values())
    assert all(el.terms for el in elements) and halves.terms == {Path(0, ("y1", "y2")): 1}
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in coefficients)
    assert any(type(c) is Fraction for c in coefficients)


def test_Jn_refuses_a_presentation_that_is_not_quadratic():
    """xyx - yxy is not quadratic: the J_n lattice refuses it before it
    yields its first basis."""
    q = GradedQuiver((0,), (Arrow("x", 0, 0, 0, 1), Arrow("y", 0, 0, 0, 1)))
    x, y = q.gen("x"), q.gen("y")
    pres = PresentedAlgebra(q, (x * y * x - y * x * y,))
    for build, n in ((compute_Jn, 2), (minimal_model_general, 2), (compute_Jn, 1)):
        with pytest.raises(InvalidInputError, match="length-2"):
            build(pres, n)


# -- McKay models -------------------------------------------------------------


def test_mckay_data_validation():
    with pytest.raises(InvalidInputError):
        McKayData(1, (1,))
    with pytest.raises(InvalidInputError):
        McKayData(3, (3,))
    with pytest.raises(InvalidInputError):
        McKayData(3, ())
    assert McKayData(4, (2, 2)).warnings  # gcd(2,4) != 1
    assert McKayData(3, (1, 1)).warnings  # sum not 0 mod 3
    assert McKayData(3, (1, 1, 1)).warnings == ()
    assert McKayData(3, [1, 1, 1]) == McKayData(3, (1, 1, 1))  # hashable, as the subset tables are cached


def test_mckay_data_warns_once_per_distinct_weight():
    """A weight repeated three times is one hypothesis failure, so it is
    one warning, in McKayData and in the model's metadata."""
    data = McKayData(6, (2, 2, 2))
    assert data.warnings == ("gcd(2,6) != 1: Gorenstein/isolated-singularity hypotheses fail",)
    assert mckay_model(data).metadata["warnings"] == data.warnings
    assert [w[:8] for w in McKayData(6, (3, 2, 3, 2, 1)).warnings] == ["gcd(3,6)", "gcd(2,6)", "sum of w"]


def test_mckay_data_warnings_are_derived_not_passed():
    """warnings are derived from m and the weights, so the constructor
    takes none."""
    with pytest.raises(TypeError):
        McKayData(3, (1, 1, 1), warnings=("x",))


def test_mckay_model_structure():
    data = McKayData(3, (1, 1, 1))
    model = mckay_model(data)
    q = model.quiver
    assert q.vertices == (0, 1, 2)
    assert len(q.arrows) == 3 * (2**3 - 1)
    a = q.arrow(mckay_arrow_name(1, (2, 3)))
    assert (a.source, a.target, a.hdeg, a.adeg) == (1, 0, -1, 2)
    # singleton generators are closed
    assert model.differential.of_arrow(mckay_arrow_name(0, (2,))).is_zero()
    # the pair generator maps to the commutation relation
    d12 = model.d(q.gen(mckay_arrow_name(0, (1, 2))))
    expected = q.gen(mckay_arrow_name(0, (1,))) * q.gen(mckay_arrow_name(1, (2,))) - q.gen(
        mckay_arrow_name(0, (2,))
    ) * q.gen(mckay_arrow_name(1, (1,)))
    assert d12 == expected


def test_mckay_weight_bookkeeping():
    data = McKayData(5, (1, 1, 1, 2))
    assert data.n == 4
    model = mckay_model(data)
    for a in model.quiver.arrows:
        assert a.hdeg == -a.adeg + 1


# -- vertex deletion ----------------------------------------------------------


def test_delete_vertex_m3():
    data = McKayData(3, (1, 1, 1))
    model = delete_vertex(mckay_model(data), 0)
    q = model.quiver
    assert q.vertices == (1, 2)
    by_deg = {}
    for a in q.arrows:
        by_deg.setdefault((a.hdeg, a.source, a.target), []).append(a.name)
    # three hdeg-0 arrows 1->2, three hdeg -1 arrows 2->1, one hdeg -2 loop each
    assert len(by_deg[(0, 1, 2)]) == 3
    assert len(by_deg[(-1, 2, 1)]) == 3
    assert len(by_deg[(-2, 1, 1)]) == 1 and len(by_deg[(-2, 2, 2)]) == 1
    # the kept hdeg -1 arrows become closed: their differentials passed through 0
    for name in by_deg[(-1, 2, 1)]:
        assert model.differential.of_arrow(name).is_zero()
    # the loops keep exactly the splits avoiding vertex 0
    loop1 = model.differential.of_arrow(mckay_arrow_name(1, (1, 2, 3)))
    assert len(loop1.terms) == 3
    for p in loop1.terms:
        assert 0 not in q.path_vertices(p)


@pytest.mark.parametrize(
    "m, weights", [(2, (1, 1, 1, 1)), (3, (1, 1, 1)), (5, (1, 1, 1, 2)), (6, (1, 1, 1, 1, 1, 1))]
)
def test_every_vertex_deletion_keeps_the_grading_and_d_squared(m, weights):
    """(e_v) is a DG ideal, so delete_vertex needs no checks of its own."""
    model = mckay_model(McKayData(m, weights))
    for v in model.quiver.vertices:
        d = delete_vertex(model, v).differential
        assert check_grading(d)["status"] == "pass", v
        assert check_d_squared(d)["status"] == "pass", v


def test_delete_vertex_unknown():
    model = polynomial_model(2)
    with pytest.raises(InvalidInputError):
        delete_vertex(model, 5)
    with pytest.raises(InvalidInputError, match="unknown vertex"):
        deleted_mckay_model(McKayData(3, (1, 1, 1)), 3)


def _same_model(got, want):
    """Equal models, down to the order of the arrows, of d's keys and of
    each d(a)'s terms, and to the provenance and the metadata."""
    assert got.quiver == want.quiver
    assert [(a, list(da.terms.items())) for a, da in got.differential.on_arrows.items()] == [
        (a, list(da.terms.items())) for a, da in want.differential.on_arrows.items()
    ]
    assert (got.provenance, list(got.metadata.items())) == (want.provenance, list(want.metadata.items()))


def test_deleted_mckay_model_is_delete_vertex_of_the_full_model():
    """The direct build without vertex 0 on every weight vector in
    0..m-1 with 2 <= m <= 8 and at most three weights: 1,533 cases."""
    cases = 0
    for m in range(2, 9):
        for n in range(1, 4):
            for weights in product(range(m), repeat=n):
                data = McKayData(m, weights)
                _same_model(deleted_mckay_model(data, 0), delete_vertex(mckay_model(data), 0))
                cases += 1
    assert cases == 1533


def test_direct_builds_without_any_vertex_match_the_restrictions():
    """Every vertex, not only 0: the deleted model and the commuting
    squares without it, against delete_vertex of the full ones."""
    for m in range(2, 6):
        for weights in product(range(m), repeat=2):
            data = McKayData(m, weights + (1,))
            model, pres = mckay_model(data), mckay_commutation_presentation(data)
            for v in range(m):
                _same_model(deleted_mckay_model(data, v), delete_vertex(model, v))
                assert _commuting_squares(data, v) == pres.delete_vertex(v)


def test_commutation_presentation_counts_monomials():
    from oracles import mckay_h0_oracle

    data = McKayData(3, (1, 1, 1))
    pres = mckay_commutation_presentation(data)
    assert len(pres.relators) == 3 * comb(3, 2)
    assert truncated_dims(pres, 4) == mckay_h0_oracle(3, (1, 1, 1), 4)


def test_commutation_presentation_is_h0_of_the_mckay_model():
    """The commuting squares are d of the two-element subsets: the same
    singleton arrows and the same relators as h0_presentation of the
    McKay model, for every sorted weight vector with m <= 8 and n <= 4,
    zero weights included."""
    for m in range(2, 9):
        for n in range(1, 5):
            for weights in combinations_with_replacement(range(m), n):
                data = McKayData(m, weights)
                pres, h0 = mckay_commutation_presentation(data), h0_presentation(mckay_model(data))
                ends = [[(a.name, a.source, a.target) for a in p.quiver.arrows] for p in (pres, h0)]
                assert ends[0] == ends[1], data
                relators = [{frozenset(r.terms.items()) for r in p.relators} for p in (pres, h0)]
                assert relators[0] == relators[1], data


@pytest.mark.parametrize(
    "m, weights", [(1, (1,) * n) for n in range(2, 7)] + [(5, (1, 1, 1, 2)), (7, (1, 1, 1, 1, 3)), (6, (1,) * 6)]
)
def test_model_size_cap_is_the_count_of_arrows_and_terms(monkeypatch, m, weights):
    """A model with m (3^n - 2^n) arrows and differential terms builds
    under a path cap of exactly that count and is refused under one less
    (n = 1 is left out: its one arrow leaves no smaller positive cap)."""
    n = len(weights)
    size = m * (3**n - 2**n)
    build = (lambda: polynomial_model(n)) if m == 1 else (lambda: mckay_model(McKayData(m, weights)))
    monkeypatch.setenv("DGQ_PATH_CAP", str(size))
    model = build()
    assert len(model.quiver.arrows) + sum(len(da.terms) for da in model.differential.on_arrows.values()) == size
    monkeypatch.setenv("DGQ_PATH_CAP", str(size - 1))
    with pytest.raises(ResourceLimitError):
        build()


@pytest.mark.parametrize("build", [lambda: polynomial_model(64), lambda: mckay_model(McKayData(10**12, (1,)))])
def test_oversized_model_is_refused_before_it_is_built(monkeypatch, build):
    def no_arrows(*args, **kwargs):
        raise AssertionError("an arrow was built")

    monkeypatch.setattr(koszul, "Arrow", no_arrows)
    with pytest.raises(ResourceLimitError):
        build()
