"""Path algebra arithmetic: multiplication, grading, commutators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquiver import (
    Arrow,
    AlgebraElement,
    GradedQuiver,
    InvalidInputError,
    Path,
    Superpotential,
    graded_commutator,
    multiply,
)
from dgquiver.core import add_term, restrict


@pytest.fixture
def two_vertex():
    """0 --a--> 1 --b--> 0 with a loop l at 0."""
    return GradedQuiver(
        (0, 1),
        (
            Arrow("a", 0, 1, 0, 1),
            Arrow("b", 1, 0, -1, 2),
            Arrow("l", 0, 0, 0, 1),
        ),
    )


def test_arrow_validation():
    with pytest.raises(InvalidInputError):
        Arrow("a", 0, 1, 1, 1)  # positive hdeg
    with pytest.raises(InvalidInputError):
        Arrow("a", 0, 1, 0, 0)  # adeg < 1


def test_quiver_validation():
    with pytest.raises(InvalidInputError):
        GradedQuiver((0, 0), ())
    with pytest.raises(InvalidInputError):
        GradedQuiver((0,), (Arrow("a", 0, 1, 0, 1),))
    with pytest.raises(InvalidInputError):
        GradedQuiver((0,), (Arrow("a", 0, 0, 0, 1), Arrow("a", 0, 0, 0, 1)))


def test_path_bookkeeping(two_vertex):
    q = two_vertex
    p = Path(0, ("a", "b"))
    assert q.is_valid_path(p)
    assert q.path_target(p) == 0
    assert q.path_hdeg(p) == -1
    assert q.path_adeg(p) == 3
    assert q.path_vertices(p) == [0, 1, 0]
    assert not q.is_valid_path(Path(0, ("b",)))
    assert not q.is_valid_path(Path(1, ("a",)))
    assert q.compose(Path(0, ("a",)), Path(1, ("b",))) == p
    assert q.compose(Path(0, ("a",)), Path(0, ("a",))) is None


@pytest.fixture
def loops():
    """One vertex with the loops x and y in degree (0, 1)."""
    return GradedQuiver((0,), (Arrow("x", 0, 0, 0, 1), Arrow("y", 0, 0, 0, 1)))


@pytest.mark.parametrize(
    "build",
    [
        lambda q: AlgebraElement(q, {Path(0, ("x",)): 0.1}),
        lambda q: AlgebraElement(q, {Path(0, ("x",)): True}),
        lambda q: AlgebraElement(q, {Path(0, ("x",)): "1"}),
        lambda q: q.gen("x").scale(0.5),
        lambda q: Superpotential(q, {Path(0, ("x", "y")): 0.5}),
        lambda q: Superpotential(q, {Path(0, ("x", "y")): True}),
    ],
    ids=["float", "bool", "str", "scale by a float", "float potential", "bool potential"],
)
def test_the_library_refuses_a_coefficient_that_is_not_exact(loops, build):
    with pytest.raises(InvalidInputError, match="neither an int nor a Fraction"):
        build(loops)


def test_an_integral_Fraction_is_stored_as_an_int(loops):
    x = Path(0, ("x",))
    (c,) = AlgebraElement(loops, {x: Fraction(4, 2)}).terms.values()
    assert type(c) is int and c == 2
    assert type(loops.gen("x").scale(Fraction(3, 2)).scale(Fraction(2, 3)).terms[x]) is int


def test_multiplication_concatenates_left_to_right(two_vertex):
    q = two_vertex
    ab = q.gen("a") * q.gen("b")
    assert ab.terms == {Path(0, ("a", "b")): Fraction(1)}
    # mismatched endpoints give zero
    assert (q.gen("a") * q.gen("a")).is_zero()
    # idempotents act as local units
    assert q.idempotent(0) * q.gen("a") == q.gen("a")
    assert q.gen("a") * q.idempotent(1) == q.gen("a")
    assert (q.gen("a") * q.idempotent(0)).is_zero()
    assert q.identity() * ab == ab == ab * q.identity()


def test_degrees_and_endpoints(two_vertex):
    q = two_vertex
    el = q.gen("a") * q.gen("b")
    assert el.hdeg() == -1 and el.adeg() == 3
    assert el.endpoints() == (0, 0)
    mixed = q.gen("a") + q.gen("b")
    with pytest.raises(InvalidInputError):
        mixed.hdeg()
    with pytest.raises(InvalidInputError):
        mixed.endpoints()
    assert q.zero().hdeg() is None and q.zero().endpoints() is None


def test_graded_commutator_signs(two_vertex):
    q = two_vertex
    l = q.gen("l")  # hdeg 0
    e0 = q.idempotent(0)
    # even-degree commutator of an element with itself vanishes
    assert graded_commutator(l, l).is_zero()
    # odd x odd: [u, u] = 2 u^2
    ba = q.gen("b") * q.gen("a")  # hdeg -1 loop at 1
    assert graded_commutator(ba, ba) == 2 * (ba * ba)
    assert graded_commutator(l, e0, hv=0) == l * e0 - e0 * l


def test_without_drops_the_vertex_and_its_arrows(two_vertex):
    assert two_vertex.without(0) == GradedQuiver((1,), ())
    assert two_vertex.without(1) == GradedQuiver((0,), (two_vertex.arrow("l"),))
    with pytest.raises(InvalidInputError, match="unknown vertex 2"):
        two_vertex.without(2)


def test_restrict_keeps_the_terms_that_are_paths_of_the_subquiver(two_vertex):
    q = two_vertex
    el = q.gen("a") * q.gen("b") + 3 * q.gen("l") * q.gen("l") + q.idempotent(1)
    q0 = q.without(1)
    assert restrict(el, q0) == 3 * q0.gen("l") * q0.gen("l")
    # every vertex kept, the arrow b dropped
    sub = GradedQuiver(q.vertices, (q.arrow("a"), q.arrow("l")))
    assert restrict(el, sub) == 3 * sub.gen("l") * sub.gen("l") + sub.idempotent(1)
    assert restrict(el, q) == el


# -- property tests -----------------------------------------------------------

_QUIVER = GradedQuiver(
    (0, 1),
    (
        Arrow("a", 0, 1, 0, 1),
        Arrow("b", 1, 0, -1, 2),
        Arrow("l", 0, 0, -2, 1),
        Arrow("m", 1, 1, 0, 1),
    ),
)


def _random_paths():
    """All valid paths of length <= 3 in the fixed test quiver."""
    out = [Path(v) for v in _QUIVER.vertices]
    frontier = list(out)
    for _ in range(3):
        frontier = [
            Path(p.start, p.arrows + (a.name,))
            for p in frontier
            for a in _QUIVER.out_arrows(_QUIVER.path_target(p))
        ]
        out += frontier
    return out


_PATHS = _random_paths()

elements = st.dictionaries(
    st.sampled_from(_PATHS),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=4,
).map(lambda t: AlgebraElement(_QUIVER, t))


@settings(max_examples=200, deadline=None)
@given(elements, elements, elements)
def test_ring_axioms(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w
    assert u + v == v + u
    assert u - u == _QUIVER.zero()


@settings(max_examples=200, deadline=None)
@given(elements)
def test_identity_is_sum_of_idempotents(u):
    one = _QUIVER.identity()
    assert one * u == u == u * one


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_PATHS), st.sampled_from(_PATHS))
def test_degree_additivity(p, r):
    u = _QUIVER.element({p: 1})
    v = _QUIVER.element({r: 1})
    prod = u * v
    if prod:
        assert prod.hdeg() == _QUIVER.path_hdeg(p) + _QUIVER.path_hdeg(r)
        assert prod.adeg() == _QUIVER.path_adeg(p) + _QUIVER.path_adeg(r)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_PATHS), st.sampled_from(_PATHS))
def test_graded_antisymmetry(p, r):
    u = _QUIVER.element({p: 1})
    v = _QUIVER.element({r: 1})
    hu, hv = _QUIVER.path_hdeg(p), _QUIVER.path_hdeg(r)
    sign = -1 if (hu * hv) % 2 else 1
    lhs = graded_commutator(u, v)
    rhs = graded_commutator(v, u)
    assert lhs == (-sign) * rhs


_SCALARS = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcd"), _SCALARS), max_size=30))
def test_add_term_is_the_exact_sparse_sum(seq):
    """Over a run of (key, int | Fraction) terms, add_term keeps the exact
    sum with its zeros dropped, never stores a zero, and stays int when
    every term is an int."""
    out: dict = {}
    for k, c in seq:
        add_term(out, k, c)
        assert all(out.values())
    sums = {k: sum((c for key, c in seq if key == k), Fraction(0)) for k, _c in seq}
    assert out == {k: v for k, v in sums.items() if v}
    if all(type(c) is int for _k, c in seq):
        assert all(type(v) is int for v in out.values())
