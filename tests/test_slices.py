"""The word-level cohomology slices against the Path-based routines they
replaced, on polynomial, McKay, quantum and Ginzburg models."""

import json
import os
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquiver import (
    AlgebraElement,
    Arrow,
    DGModel,
    Differential,
    GradedQuiver,
    InvalidInputError,
    McKayData,
    Path,
    QuadraticPresentation,
    ResourceLimitError,
    Superpotential,
    check_grading,
    cohomology_dims,
    delete_vertex,
    ginzburg_model,
    mckay_model,
    minimal_model_general,
    polynomial_model,
)
from dgquiver import linalg, serialize
from dgquiver.cli import main
from dgquiver.homology import _stream_slices, slice_order
from oracles import lead_word, old_bigraded_slices, old_cohomology_dims

PRIMES = (2, 3, 5, 7, 11, 13)
ratios = st.builds(
    lambda sign, p, r: Fraction(sign * p, r),
    st.sampled_from((-1, 1)),
    st.sampled_from(PRIMES),
    st.sampled_from((1,) + PRIMES),
)


def _ginzburg_models():
    """The conifold and C^3 potentials: their starred arrows and loops
    have odd hdeg, so the Leibniz sign matters."""
    ends = {"p": (0, 1), "q": (0, 1), "r": (1, 0), "s": (1, 0)}
    conifold = GradedQuiver((0, 1), tuple(Arrow(n, s, t, 0, 1) for n, (s, t) in ends.items()))
    w1 = Superpotential(conifold, {Path(0, ("p", "s", "q", "r")): 1, Path(0, ("p", "r", "q", "s")): -1})
    c3 = GradedQuiver((0,), tuple(Arrow(n, 0, 0, 0, 1) for n in ("x", "y", "z")))
    w2 = Superpotential(c3, {Path(0, ("x", "y", "z")): 1, Path(0, ("x", "z", "y")): -1})
    return [ginzburg_model(w1), ginzburg_model(w2)]


@cache
def fixed_models() -> list:
    models = [polynomial_model(n) for n in (1, 2, 3)]
    for m, weights in ((2, (1, 1)), (3, (1, 2)), (3, (1, 1, 1)), (2, (1, 1, 1, 1))):
        model = mckay_model(McKayData(m, weights))
        models.append(model)
        models += [delete_vertex(model, v) for v in model.quiver.vertices]
    return models + _ginzburg_models()


@st.composite
def quantum_models(draw):
    """Minimal model of k<x_1..x_n>/(x_i x_j - q_ij x_j x_i), q_ij = ±p/r."""
    n = draw(st.integers(2, 3))
    quiver = GradedQuiver((0,), tuple(Arrow(f"x{i}", 0, 0, 0, 1) for i in range(1, n + 1)))
    relators = tuple(
        AlgebraElement(quiver, {Path(0, (f"x{i}", f"x{j}")): 1, Path(0, (f"x{j}", f"x{i}")): -draw(ratios)})
        for i, j in combinations(range(1, n + 1), 2)
    )
    return minimal_model_general(QuadraticPresentation(quiver, relators), n)


models = st.one_of(st.integers(0, len(fixed_models()) - 1).map(lambda i: fixed_models()[i]), quantum_models())
windows = st.tuples(st.integers(-5, 0), st.integers(1, 6))


def test_every_fixed_model_matches_the_oracle_at_the_widest_window():
    """Adams degree 6 is where a wrong Leibniz sign first changes a rank
    on the polynomial and Ginzburg models."""
    for model in fixed_models():
        for by_component in (False, True):
            assert cohomology_dims(model, -5, 6, by_component=by_component) == old_cohomology_dims(
                model, -5, 6, by_component=by_component
            )


def test_elimination_runs_only_on_a_repeated_leading_word(monkeypatch):
    """At hmin = -nadams no chain is truncated and H^{<0} = 0 on the
    undeleted models, so with clearing every image that reaches the lead
    check raises the rank and no two share a least word: pivot_columns
    is never called.  Without clearing, the images of the cleared words
    repeat leads and it is called 7, 21 and 16 times.  The vertex-0
    deletions of (3;12) and (5;1112) have H^{<0} != 0, so some leads
    repeat and the exact elimination runs on exactly 7 and 38 steps."""
    cases = [polynomial_model(3), mckay_model(McKayData(3, (1, 1, 1))), mckay_model(McKayData(2, (1, 1, 1, 1)))]
    deleted = [delete_vertex(mckay_model(McKayData(m, w)), 0) for m, w in ((3, (1, 2)), (5, (1, 1, 1, 2)))]
    expected = [old_cohomology_dims(model, -6, 6) for model in cases + deleted]
    calls = 0
    pivot_columns = linalg.pivot_columns

    def counting(rows):
        nonlocal calls
        calls += 1
        return pivot_columns(rows)

    monkeypatch.setattr(linalg, "pivot_columns", counting)
    for i, (model, want, collisions) in enumerate(zip(cases + deleted, expected, (0, 0, 0, 7, 38))):
        calls = 0
        table = cohomology_dims(model, -6, 6)
        assert table == want
        if i < len(cases):
            assert all(dim == 0 for (h, _a), dim in table.items() if h < 0)
        assert calls == collisions


def _assert_lead_words_match_the_full_images(model, hmin=-6, nadams=6):
    """The lead index each word carries from its prefix, decoded through
    the word list of its lead bucket (hdeg + 1, same level, source and
    target), against the scanning lead_word and the least word of the
    full image."""
    d = model.differential
    for _s, _a, level in _stream_slices(model.quiver, hmin, nadams, leads=d._leads):
        for (h, t), (words, lead, fixed) in level.items():
            assert len(words) == len(lead) == len(fixed)
            target = level[(h + 1, t)][0] if (h + 1, t) in level else []
            for w, i in zip(words, lead):
                assert -1 <= i < len(target), w
                img = d.apply_to_word(w)
                want = min(img) if img else None
                assert lead_word(d, w) == want, w
                assert (target[i] if i >= 0 else None) == want, w


def _quantum_model(n: int) -> DGModel:
    """Minimal model, to J_n, of k<x_1..x_n>/(x_i x_j - q_ij x_j x_i)
    with fixed q_ij = ±p/r."""
    qs = iter((Fraction(3, 7), Fraction(-5, 11), Fraction(13, 2), Fraction(-17, 19), Fraction(23, 29), Fraction(-31, 37)))
    quiver = GradedQuiver((0,), tuple(Arrow(f"x{i}", 0, 0, 0, 1) for i in range(1, n + 1)))
    relators = tuple(
        AlgebraElement(quiver, {Path(0, (f"x{i}", f"x{j}")): 1, Path(0, (f"x{j}", f"x{i}")): -next(qs)})
        for i, j in combinations(range(1, n + 1), 2)
    )
    return minimal_model_general(QuadraticPresentation(quiver, relators), n)


def _mixed_blocks(model, hmin=-6, nadams=6) -> int:
    """The blocks (parent bucket, arrow y) of _stream_slices whose leads
    are built word by word: d(y) = 0 and the parent's leads mix -1 with
    others, or d(y) != 0 and the parent mixes fixed and unfixed words."""
    smaller, least = model.differential._leads
    mixed = 0
    for _s, a, level in _stream_slices(model.quiver, hmin, nadams, leads=(smaller, least)):
        for (h, t), (_words, lead, fixed) in level.items():
            for arr in model.quiver.out_arrows(t):
                if h + arr.hdeg >= hmin and a + arr.adeg <= nadams:
                    flags = fixed.count(1) if arr.name in least else len(lead) - lead.count(-1)
                    mixed += 0 < flags < len(lead)
    return mixed


def test_lead_word_is_the_least_word_of_the_full_image():
    """Every word of every slice at -6/6 of the fixed models, the McKay
    vertex deletions among them, of the Ginzburg vertex deletions and of
    a quantum polynomial ring with Fraction coefficients, which has six
    blocks whose leads are built word by word, as the benchmark's
    quantum model has; the undeleted polynomial and McKay models have
    none."""
    deleted = [delete_vertex(m, v) for m in _ginzburg_models() for v in m.quiver.vertices if len(m.quiver.vertices) > 1]
    quantum = _quantum_model(4)
    assert _mixed_blocks(quantum) == 6
    undeleted = [m for m in fixed_models() if m.provenance in ("polynomial", "mckay") and "deleted_vertex" not in m.metadata]
    assert len(undeleted) == 7 and not any(_mixed_blocks(m) for m in undeleted)
    for model in fixed_models() + deleted + [quantum]:
        _assert_lead_words_match_the_full_images(model)


@settings(max_examples=20, deadline=None)
@given(quantum_models())
def test_lead_word_on_quantum_models(model):
    """Fraction coefficients and the j* arrow names of minimal_model_general."""
    _assert_lead_words_match_the_full_images(model)


def _long_word_model() -> DGModel:
    """A loop x at vertex 0 and arrows y, z from 0 to 1 with |x| = |z| =
    (0, 1), |y| = (-1, 2) and d(y) = x*z: the words from 0 are x^i, x^i*y
    and x^i*z, and the lead of x^i*y replaces y at position i."""
    quiver = GradedQuiver((0, 1), (Arrow("x", 0, 0, 0, 1), Arrow("y", 0, 1, -1, 2), Arrow("z", 0, 1, 0, 1)))
    dy = AlgebraElement(quiver, {Path(0, ("x", "z")): 1})
    return DGModel(quiver, Differential(quiver, {"y": dy}))


def test_carried_lead_on_long_words():
    """Leads at positions past 255; the 1500-arrow test in test_homology
    has d = 0.  d(x^i*y) = x^(i+1)*z, so H^{-1} = 0 and H^0 is spanned
    by the x^a, e_1 and z."""
    model = _long_word_model()
    _assert_lead_words_match_the_full_images(model, -2, 300)
    table = cohomology_dims(model, -1, 300)
    assert table == {(h, a): (h == 0) * (1 + (a <= 1)) for h in (-1, 0) for a in range(301)}


def _bad_model(term: tuple[str, ...]) -> DGModel:
    """k<x, y> with |x| = (0, 1), |y| = (-1, 1) and d(y) = x*x + term."""
    quiver = GradedQuiver((0,), (Arrow("x", 0, 0, 0, 1), Arrow("y", 0, 0, -1, 1)))
    dy = AlgebraElement(quiver, {Path(0, ("x", "x")): 1, Path(0, term): 1})
    return DGModel(quiver, Differential(quiver, {"y": dy}))


@pytest.mark.parametrize(
    "term",
    [("y", "x"), (), ("x", "x", "x"), ("x", "x")],
    ids=["starts-with-its-arrow", "empty-word", "prefixed-term", "wrong-adeg"],
)
def test_lead_word_rejects_a_differential_outside_its_lemma(term, tmp_path, capsys):
    """No such d passes check_grading, which the CLI runs first.  With
    d(y) = 2*x*x alone the terms satisfy the lemma, but their adeg 2 is
    not y's, so the walk to the lead of a word ending in y leaves the
    lead bucket."""
    model = _bad_model(term)
    with pytest.raises(InvalidInputError):
        cohomology_dims(model, -2, 2)
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(serialize.model_to_json(model)))
    assert main(["cohomology", "--model", str(path), "--hmin", "-2", "--adams-max", "2"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["check"] == "grading" and report["witness"]["arrow"] == "y"
    assert "Traceback" not in err


def _graded_model(term: tuple[str, ...]) -> DGModel:
    """Vertices 0, 1, loops x, z at 0, an arrow u: 0 -> 1, all of degree
    (0, 1), and y: 0 -> 0 of degree (-1, 2) with d(y) = 2*x*z + term."""
    arrows = (Arrow("u", 0, 1, 0, 1), Arrow("x", 0, 0, 0, 1), Arrow("y", 0, 0, -1, 2), Arrow("z", 0, 0, 0, 1))
    quiver = GradedQuiver((0, 1), arrows)
    dy = AlgebraElement(quiver, {Path(0, ("x", "z")): 1, Path(0, term): 1})
    return DGModel(quiver, Differential(quiver, {"y": dy}))


def test_cohomology_dims_refuses_exactly_what_check_grading_refuses():
    """check_grading is the one judge of a well-formed d.  d(y) = x on
    k<x, y>, |x| = (0, 1) and |y| = (-1, 1), is graded but not minimal:
    the lead lemma would allow it, yet it is refused with check_grading's
    witness.  The word u*z has the endpoints, hdeg and adeg of y but is
    no path, and the arrow w does not exist."""
    quiver = GradedQuiver((0,), (Arrow("x", 0, 0, 0, 1), Arrow("y", 0, 0, -1, 1)))
    nonminimal = DGModel(quiver, Differential(quiver, {"y": quiver.gen("x")}))
    with pytest.raises(InvalidInputError, match=r"arrow y: .*\(minimality\)"):
        cohomology_dims(nonminimal, -2, 2)
    bad = [nonminimal] + [_bad_model(t) for t in [("y", "x"), (), ("x", "x", "x"), ("x", "x")]]
    bad += [_graded_model(t) for t in [("u", "z"), ("x", "w")]]
    good = [_graded_model(("z", "x")), _long_word_model()] + fixed_models()[:4] + _ginzburg_models()
    for model, refused in [(m, True) for m in bad] + [(m, False) for m in good]:
        report = check_grading(model.differential)
        assert (report["status"] == "fail") == refused
        if not refused:
            cohomology_dims(model, -2, 2)
            continue
        with pytest.raises(InvalidInputError) as caught:
            cohomology_dims(model, -2, 2)
        witness = report["witness"]
        assert f"arrow {witness['arrow']}: {witness['reason']}" in str(caught.value)


def test_by_component_tables_come_in_slice_order():
    """The slices are streamed one source vertex at a time, so the table
    is sorted before it is returned: by hdeg, adeg, source and target,
    which for the int vertices of these models is plain tuple order.
    The items are compared as lists, so the order is pinned too."""
    for model in fixed_models():
        table = cohomology_dims(model, -5, 6, by_component=True)
        assert list(table.items()) == sorted(old_cohomology_dims(model, -5, 6, by_component=True).items())
        assert list(table) == sorted(table, key=slice_order)


def test_cohomology_dims_keeps_one_level_of_words():
    """Each Adams level's words are dropped once its chains are ranked,
    so the traced peak stays far below that of holding every slice of
    every source (9.7 MB before streaming)."""
    model = mckay_model(McKayData(5, (1, 1, 1, 2)))
    cohomology_dims(model, -1, 1)  # compile d and its leads outside the trace
    tracemalloc.start()
    try:
        cohomology_dims(model, -6, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@settings(max_examples=80, deadline=None)
@given(models, windows)
def test_cohomology_dims_matches_the_path_based_oracle(model, window):
    hmin, nadams = window
    for by_component in (False, True):
        assert cohomology_dims(model, hmin, nadams, by_component=by_component) == old_cohomology_dims(
            model, hmin, nadams, by_component=by_component
        )


@settings(max_examples=40, deadline=None)
@given(models, windows)
def test_bigraded_slices_match_the_depth_first_enumeration(model, window):
    """The streamed words of every slice, sorted, are the oracle's paths."""
    new = {
        (h, a, s, t): sorted(words, key=lambda w: (len(w), w))
        for s, a, level in _stream_slices(model.quiver, *window)
        for (h, t), (words, _lead, _fixed) in level.items()
    }
    old = old_bigraded_slices(model.quiver, *window)
    assert new == {key: [p.arrows for p in paths] for key, paths in old.items()}


@settings(max_examples=60, deadline=None)
@given(models, windows, st.integers(1, 60))
def test_path_cap_trips_exactly_when_the_oracle_trips(model, window, cap):
    def outcome(fn):
        try:
            return fn(model, *window)
        except ResourceLimitError:
            return ResourceLimitError

    with mock.patch.dict(os.environ, {"DGQ_PATH_CAP": str(cap)}):
        assert outcome(cohomology_dims) == outcome(old_cohomology_dims)
