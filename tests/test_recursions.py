"""The normal-word recursion of truncated_dims and the J_n recursion of
compute_Jn against the span builders they replaced, on random
presentations, the id-keyed truncated_dims against the Path-keyed
recursion it replaced, the differential of minimal_model_general, read
off the RREF pivots, against the product-and-solve loop it replaced,
mckay_model, built from a per-subset table, against the per-vertex
loop it replaced, and the order lemma of core.WordIds, whose ids both
recursions run on, with the column bound of the J_n intersections."""

from collections import defaultdict
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquiver import (
    AlgebraElement,
    Arrow,
    GradedQuiver,
    Path,
    McKayData,
    PresentedAlgebra,
    QuadraticPresentation,
    ResourceLimitError,
    build_C,
    build_split,
    compute_Jn,
    delete_vertex,
    h0_presentation,
    mckay_model,
    minimal_model_general,
    truncated_dims,
)
from dgquiver import linalg
from dgquiver.core import WordIds, vertex_key
from dgquiver.koszul import _jn_series, mckay_commutation_presentation
from dgquiver.serialize import dumps, model_to_json
from oracles import (
    old_compute_Jn,
    old_mckay_model,
    old_minimal_model_general,
    old_path_truncated_dims,
    old_truncated_dims,
    paths_of_length,
)

PRIMES = (2, 3, 5, 7, 11, 13)
coeffs = st.builds(
    lambda sign, p, r: Fraction(sign * p, r),
    st.sampled_from((-1, 1)),
    st.sampled_from((1,) + PRIMES),
    st.sampled_from((1,) + PRIMES),
)


VERTEX_IDS = (0, 1, 2, "u", "v")
ARROW_NAMES = ("a", "b", "x", "y", "z")


@st.composite
def presentations(draw, quadratic: bool):
    """1-3 vertices, int and str ids mixed and listed in any order, and
    1-4 arrows with names drawn in any order, so that the name order of
    the arrows and the vertex_key order of their sources often disagree.
    Quadratic: arrows of adeg 1 and relators on paths of length 2.
    Otherwise arrows of adeg 1-2, relators on paths of length 1-3 (each
    Adams-homogeneous and component-pure), and possibly a degree-0
    relator c * e_v."""
    vertices = tuple(draw(st.lists(st.sampled_from(VERTEX_IDS), min_size=1, max_size=3, unique=True)))
    vertex = st.sampled_from(vertices)
    adeg = st.just(1) if quadratic else st.integers(1, 2)
    names = draw(st.permutations(ARROW_NAMES))
    arrows = tuple(
        Arrow(names[i], draw(vertex), draw(vertex), 0, draw(adeg)) for i in range(draw(st.integers(1, 4)))
    )
    q = GradedQuiver(vertices, arrows)
    blocks: dict[tuple, list[Path]] = defaultdict(list)
    for n in (2,) if quadratic else (1, 2, 3):
        for p in paths_of_length(q, n):
            blocks[(p.start, q.path_target(p), q.path_adeg(p))].append(p)
    relators = []
    if blocks:
        for key in draw(st.lists(st.sampled_from(list(blocks)), max_size=4)):
            terms = draw(st.lists(st.sampled_from(blocks[key]), min_size=1, max_size=3, unique=True))
            relators.append(AlgebraElement(q, {p: draw(coeffs) for p in terms}))
    if quadratic:
        return QuadraticPresentation(q, tuple(relators))
    for v in draw(st.lists(vertex, max_size=1)):
        relators.append(AlgebraElement(q, {Path(v): draw(coeffs)}))
    return PresentedAlgebra(q, tuple(relators))


@settings(max_examples=150, deadline=None)
@given(presentations(quadratic=False), st.integers(0, 5))
def test_truncated_dims_matches_the_span_of_all_u_r_v(pres, nadams):
    got = truncated_dims(pres, nadams)
    want = old_truncated_dims(pres, nadams)
    assert list(got.items()) == list(want.items())


@settings(max_examples=150, deadline=None)
@given(presentations(quadratic=False), st.integers(0, 5))
def test_truncated_dims_matches_the_path_keyed_recursion(pres, nadams):
    """Same dict, key order included; the +-p/r relator coefficients run
    the non-integral normal forms."""
    got = truncated_dims(pres, nadams)
    assert list(got.items()) == list(old_path_truncated_dims(pres, nadams).items())


def test_truncated_dims_on_mckay_presentations_matches_the_path_keyed_recursion():
    """The presentations the benchmark and cy-check span: commutation
    quotients with and without vertex 0, H^0 of the deleted models, and C."""
    cases = [(mckay_commutation_presentation(McKayData(5, (1, 1, 1, 2))), 6)]
    for m, weights, nadams in ((5, (1, 1, 1, 2), 8), (7, (1, 1, 1, 1, 3), 6)):
        data = McKayData(m, weights)
        cases.append((mckay_commutation_presentation(data).delete_vertex(0), nadams))
        cases.append((h0_presentation(delete_vertex(mckay_model(data), 0)), nadams))
    for m, weights, nadams in ((6, (1,) * 6, 4), (7, (1, 1, 1, 1, 3), 5)):
        cases.append((build_C(build_split(McKayData(m, weights))), nadams))
    for pres, nadams in cases:
        got = truncated_dims(pres, nadams)
        assert list(got.items()) == list(old_path_truncated_dims(pres, nadams).items())


def test_truncated_dims_pushes_words_through_reducible_prefixes():
    """k<a, b>/(ab - ba, aba): the row e*aba needs the normal form of its
    prefix ab, and a*(ab - ba) that of a*b; with raw paths instead, the
    degree-3 quotient would come out one dimension too large."""
    q = GradedQuiver((0,), (Arrow("a", 0, 0, 0, 1), Arrow("b", 0, 0, 0, 1)))
    ab, ba, aba = (Path(0, tuple(w)) for w in ("ab", "ba", "aba"))
    pres = PresentedAlgebra(q, (AlgebraElement(q, {ab: 1, ba: -1}), AlgebraElement(q, {aba: Fraction(3, 7)})))
    dims = truncated_dims(pres, 5)
    assert dims == old_truncated_dims(pres, 5)
    assert [dims[(0, 0, a)] for a in range(4)] == [1, 2, 3, 3]


def test_truncated_dims_without_relators_counts_paths():
    q = GradedQuiver((0, 1), (Arrow("a", 0, 1, 0, 1), Arrow("b", 1, 0, 0, 2), Arrow("c", 1, 1, 0, 1)))
    pres = PresentedAlgebra(q, ())
    assert truncated_dims(pres, 6) == old_truncated_dims(pres, 6)


def test_truncated_dims_trips_the_path_cap_where_the_path_keyed_recursion_does(monkeypatch):
    """For every cap up to past the last trip point, truncated_dims raises
    ResourceLimitError exactly when the path-keyed recursion does, and
    returns its table otherwise: the cap counts the same candidates.
    The cases: the (5;1112) commutation quotient without vertex 0 at
    Adams 8, whose walk ends early, k<a, b>/(ab - ba, aba), and a quiver
    with a degree-0 relator that kills vertex 1, through which the
    greatest term y*z*x of a relator runs, so that s*s must lead."""
    ab = GradedQuiver((0,), (Arrow("a", 0, 0, 0, 1), Arrow("b", 0, 0, 0, 1)))
    arrows = (("x", 0, 0, 1), ("y", 0, 1, 1), ("z", 1, 0, 2), ("s", 0, 0, 2), ("w", 0, "u", 1), ("v", "u", 0, 1))
    q = GradedQuiver((0, 1, "u"), tuple(Arrow(name, s, t, 0, d) for name, s, t, d in arrows))
    commutator = AlgebraElement(ab, {Path(0, ("a", "b")): 1, Path(0, ("b", "a")): -1})
    cases = [
        (mckay_commutation_presentation(McKayData(5, (1, 1, 1, 2))).delete_vertex(0), 8),
        (PresentedAlgebra(ab, (commutator, ab.gen("a") * ab.gen("b") * ab.gen("a"))), 5),
        (
            PresentedAlgebra(
                q,
                (
                    AlgebraElement(q, {Path(1): 3}),
                    AlgebraElement(q, {Path(0, ("x", "w", "v")): 1, Path(0, ("w", "v", "x")): Fraction(-2, 3)}),
                    AlgebraElement(q, {Path(0, ("y", "z", "x")): 1, Path(0, ("s", "s")): -1}),
                ),
            ),
            5,
        ),
    ]
    for pres, nadams in cases:
        tripped = []
        for cap in range(1, 101):
            monkeypatch.setenv("DGQ_PATH_CAP", str(cap))
            try:
                want = old_path_truncated_dims(pres, nadams)
            except ResourceLimitError:
                with pytest.raises(ResourceLimitError):
                    truncated_dims(pres, nadams)
                tripped.append(cap)
            else:
                assert list(truncated_dims(pres, nadams).items()) == list(want.items())
        assert tripped and tripped == list(range(1, tripped[-1] + 1)) and tripped[-1] < 100


@settings(max_examples=60, deadline=None)
@given(presentations(quadratic=True))
def test_compute_Jn_returns_the_bases_of_the_full_intersection(pres):
    for n in range(1, 6):
        assert compute_Jn(pres, n) == old_compute_Jn(pres, n)


def _mixed_id_presentation():
    """Vertices "v" and 0, arrows a: v -> 0, b: 0 -> v, y: v -> v and
    z: 0 -> 0, and R the span of ab, ba + zz/4, by and zb, given
    unreduced; also the element of the words w with coefficients c."""
    q = GradedQuiver(
        ("v", 0),
        (Arrow("a", "v", 0, 0, 1), Arrow("b", 0, "v", 0, 1), Arrow("z", 0, 0, 0, 1), Arrow("y", "v", "v", 0, 1)),
    )

    def el(*terms):
        return AlgebraElement(q, {Path(q.arrow(w[0]).source, tuple(w)): c for w, c in terms})

    pres = QuadraticPresentation(
        q, (el(("ab", 1)), el(("ba", 2), ("zz", Fraction(1, 2))), el(("by", 3), ("zb", -1)), el(("by", 1)))
    )
    return pres, el


def test_compute_Jn_on_mixed_vertex_ids_with_names_out_of_source_order():
    """The presentation of _mixed_id_presentation.  By name a < b < y < z,
    by (source, name) b < z < a < y, so the first arrow of a word sorts
    apart from the others.  By hand, (R ⊗ V) ∩ (V ⊗ R) is spanned by
    bab + zzb/4 = (ba + zz/4)b = b(ab) + z(zb)/4, zby and aby, J_4 by
    baby + zzby/4, and J_5 is 0.  Each basis is in RREF, its rows sorted
    by pivot: the paths at 0 before those at v."""
    pres, el = _mixed_id_presentation()
    want = {
        2: [el(("ba", 1), ("zz", Fraction(1, 4))), el(("by", 1)), el(("zb", 1)), el(("ab", 1))],
        3: [el(("bab", 1), ("zzb", Fraction(1, 4))), el(("zby", 1)), el(("aby", 1))],
        4: [el(("baby", 1), ("zzby", Fraction(1, 4)))],
        5: [],
    }
    for n, basis in want.items():
        assert compute_Jn(pres, n) == basis == old_compute_Jn(pres, n)
    got = dumps(model_to_json(minimal_model_general(pres, 5)))
    assert got == dumps(model_to_json(old_minimal_model_general(pres, 5)))


@settings(max_examples=150, deadline=None)
@given(presentations(quadratic=True), st.integers(2, 5))
def test_minimal_model_general_matches_the_product_and_solve_loop(pres, nmax):
    """Byte-identical model JSON; the +-p/r relator coefficients give
    J_n bases with non-integral entries."""
    got = dumps(model_to_json(minimal_model_general(pres, nmax)))
    assert got == dumps(model_to_json(old_minimal_model_general(pres, nmax)))


@pytest.mark.parametrize("m, weights", [(3, (1, 1, 1)), (4, (1, 1, 1, 1)), (5, (1, 1, 1, 2))])
def test_minimal_model_general_on_mckay_presentations_matches_the_product_and_solve_loop(m, weights):
    """Multi-vertex commutation presentations, whose J_n bases span
    several (source, target) blocks."""
    pres = mckay_commutation_presentation(McKayData(m, weights))
    quad = QuadraticPresentation(pres.quiver, pres.relators)
    got = dumps(model_to_json(minimal_model_general(quad, 4)))
    assert got == dumps(model_to_json(old_minimal_model_general(quad, 4)))


@pytest.mark.parametrize(
    "m, weights",
    [(2, (1, 1, 1, 1)), (3, (1, 1, 1)), (5, (1, 1, 1, 2)), (6, (1,) * 6), (7, (1, 1, 1, 1, 3)), (4, (2, 2))],
)
def test_mckay_model_matches_the_per_vertex_loop(m, weights):
    """The same quiver and the same differential, key and term order
    included, on the benchmark and golden cases, on (4;22), which warns,
    and on their vertex-0 deletions."""
    data = McKayData(m, weights)
    new, old = mckay_model(data), old_mckay_model(data)
    for got, want in ((new, old), (delete_vertex(new, 0), delete_vertex(old, 0))):
        assert got.quiver == want.quiver
        assert list(got.differential.on_arrows) == list(want.differential.on_arrows)
        for name, el in got.differential.on_arrows.items():
            assert list(el.terms.items()) == list(want.differential.on_arrows[name].terms.items()), name
        assert (got.provenance, got.metadata) == (want.provenance, want.metadata)


@settings(max_examples=100, deadline=None)
@given(presentations(quadratic=False))
def test_word_ids_order_as_the_paths(pres):
    """The lemma of core.WordIds on every path of length <= 4: the ids
    follow the stated formula, every e_v has the id 0, the ids of the
    nonempty paths sort as Path.sort_key and are distinct, WordIds.path
    gives back each of them, longest first on a fresh instance, so the
    start comes back off the first digit, and w*y has the stated id.
    Every prefix k // B^j and suffix k mod B^j of an id decodes to that
    prefix or suffix, and u*v has the id id(u)*B^|v| + id(v).  With no
    arrow B is its floor 2."""
    q = pres.quiver
    ids = WordIds(q)
    base = max(2, len(q.arrows) + 1)
    assert ids.base == base and WordIds(GradedQuiver(q.vertices, ())).base == 2
    ranked = sorted(q.arrows, key=lambda a: (vertex_key(a.source), a.name))
    rank = {a.name: r for r, a in enumerate(ranked, 1)}
    assert all(ids.of(Path(v)) == 0 for v in q.vertices)
    paths = [p for n in range(1, 5) for p in paths_of_length(q, n)]
    for p in paths:
        assert ids.of(p) == sum(rank[name] * base ** (len(p) - 1 - i) for i, name in enumerate(p.arrows))
    assert sorted(reversed(paths), key=ids.of) == sorted(paths, key=Path.sort_key)
    assert len({ids.of(p) for p in paths}) == len(paths)
    fresh = WordIds(q)
    assert [fresh.path(ids.of(p)) for p in reversed(paths)] == paths[::-1]
    for p in [Path(v) for v in q.vertices] + [p for p in paths if len(p) < 4]:
        k = ids.of(p)
        for y in q.out_arrows(q.path_target(p)):
            assert ids.of(Path(p.start, p.arrows + (y.name,))) == k * base + ids.rank[y.name]
    for p in paths:
        k = ids.of(p)
        for j in range(1, len(p)):
            u, v = Path(p.start, p.arrows[:-j]), Path(q.arrow(p.arrows[-j]).source, p.arrows[-j:])
            assert WordIds(q).path(k // base**j) == u and WordIds(q).path(k % base**j) == v
            assert ids.of(p) == ids.of(u) * base**j + ids.of(v)


def test_jn_lattice_runs_on_integer_rows(monkeypatch):
    """J_1..J_5 of the quantum k<x1..x5>/(x_i x_j - q_ij x_j x_i) with
    q_ij = ±p/r: every row that _jn_series hands to linalg.kernel, the
    residues, and to linalg.expand, the relations and the rows b*y,
    holds only int entries, although the bases it yields hold Fractions,
    and the bases equal those of the Path-keyed oracle."""
    primes = iter((11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 11, 13, 17, 19, 23, 29, 31, 37, 41))
    q = GradedQuiver((0,), tuple(Arrow(f"x{i}", 0, 0, 0, 1) for i in range(1, 6)))
    relators = tuple(
        AlgebraElement(q, {Path(0, (f"x{i}", f"x{j}")): 1, Path(0, (f"x{j}", f"x{i}")): Fraction((-1) ** j * next(primes), next(primes))})
        for i in range(1, 6)
        for j in range(i + 1, 6)
    )
    pres = QuadraticPresentation(q, relators)
    expected = [old_compute_Jn(pres, n) for n in range(1, 6)]
    kernel, expand, entries = linalg.kernel, linalg.expand, []

    def checked_kernel(rows):
        entries.extend(v for row in rows for v in row.values())
        return kernel(rows)

    def checked_expand(relations, rows):
        relations = list(relations)
        entries.extend(v for row in relations + rows for v in row.values())
        return expand(relations, rows)

    monkeypatch.setattr(linalg, "kernel", checked_kernel)
    monkeypatch.setattr(linalg, "expand", checked_expand)
    bases = [compute_Jn(pres, n) for n in range(1, 6)]
    assert bases == expected and [len(b) for b in bases] == [5, 10, 10, 5, 1]
    assert entries and all(type(v) is int for v in entries)
    assert any(c.denominator != 1 for b in bases[2] for c in b.terms.values())


@pytest.mark.parametrize("case", ["mckay7_11113", "mixed_ids"])
def test_jn_columns_lie_below_ncols(monkeypatch, case):
    """Every column of the rows that _jn_series hands to linalg.kernel,
    the residues, and to linalg.expand, the rows b*y, while it computes
    J_1..J_6, is the id of a word of length n, n the degree of the J_n
    it computes: it lies in [B^(n-1), B^n), below the ids of length
    n + 1.  There is one call of each per nonzero J_2..J_5."""
    if case == "mixed_ids":
        pres, _el = _mixed_id_presentation()
    else:
        pres = mckay_commutation_presentation(McKayData(7, (1, 1, 1, 1, 3)))
    ids = WordIds(pres.quiver)
    kernel, expand, columns = linalg.kernel, linalg.expand, {"kernel": [], "expand": []}

    def check(calls, rows):
        n = len(calls) + 3
        calls.append([k for row in rows for k in row])
        assert all(ids.base ** (n - 1) <= k < ids.base**n for k in calls[-1])

    def checked_kernel(rows):
        check(columns["kernel"], rows)
        return kernel(rows)

    def checked_expand(relations, rows):
        check(columns["expand"], rows)
        return expand(relations, rows)

    monkeypatch.setattr(linalg, "kernel", checked_kernel)
    monkeypatch.setattr(linalg, "expand", checked_expand)
    bases = list(islice(_jn_series(pres), 6))
    for calls in columns.values():
        assert len(calls) == sum(1 for basis in bases[1:5] if basis) >= 3
        assert all(calls)
