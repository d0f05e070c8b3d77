"""Sparse exact linear algebra, cross-checked against dense sympy."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st
import sympy

from dgquiver import linalg
import oracles
from oracles import dense, intersect_two, rowspace_basis

NCOLS = 6

sparse_rows = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=NCOLS - 1),
        st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool),
        max_size=NCOLS,
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(sparse_rows)
def test_row_reduce_is_rref_of_same_space(rows):
    ours = oracles.row_reduce(rows)
    rref, pivots = dense(rows, NCOLS).rref()
    assert dense(ours, NCOLS) == rref[: len(pivots), :]
    assert linalg.pivot_columns(rows) == set(pivots)


@settings(max_examples=100, deadline=None)
@given(sparse_rows, sparse_rows)
def test_intersection_matches_sympy(u_rows, w_rows):
    ours = _normalized(oracles.intersect_rowspaces(oracles.row_reduce(u_rows), oracles.row_reduce(w_rows)))
    theirs = intersect_two(
        rowspace_basis(dense(u_rows, NCOLS)), rowspace_basis(dense(w_rows, NCOLS))
    )
    assert dense(ours, NCOLS) == theirs


def test_rref_examples():
    rows = [
        {0: Fraction(2), 1: Fraction(4)},
        {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)},
    ]
    assert oracles.row_reduce(rows) == [
        {0: Fraction(1), 1: Fraction(2)},
        {2: Fraction(1)},
    ]
    assert linalg.pivot_columns(rows) == {0, 2}
    # the integer RREF keeps the primitive row; row_reduce divides it by
    # its pivot entry 2
    rows = [{0: Fraction(2, 3), 1: 1, 2: Fraction(-4, 3)}]
    assert linalg.rref(rows) == [{0: 2, 1: 3, 2: -4}]
    assert oracles.row_reduce(rows) == [{0: 1, 1: Fraction(3, 2), 2: -2}]
    assert linalg.normalize({0: 2, 1: 3, 2: -4}) == {0: 1, 1: Fraction(3, 2), 2: -2}


# ---------------------------------------------------------------------------
# The fraction-free kernel against the former Fraction kernel: equal rank
# and equal RREF rows.

PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

entries = st.one_of(
    st.integers(min_value=-3, max_value=3).filter(bool),
    st.builds(
        lambda sign, p, r: Fraction(sign * p, r),
        st.sampled_from((-1, 1)),
        st.sampled_from(PRIMES),
        st.sampled_from(PRIMES),
    ),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6).filter(bool),
)

oracle_rows = st.lists(
    st.dictionaries(st.integers(min_value=0, max_value=NCOLS - 1), entries, max_size=NCOLS),
    max_size=7,
)


@st.composite
def redundant_rows(draw):
    """Rows with zero rows, exact duplicates and rescaled copies mixed in."""
    rows = draw(oracle_rows)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if rows:
            row = draw(st.sampled_from(rows))
            scale = draw(st.sampled_from((1, -1, 2, Fraction(-7, 3))))
            rows.insert(draw(st.integers(0, len(rows))), {c: scale * v for c, v in row.items()})
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), {})
    return rows


def _as_fractions(rows):
    return [{c: Fraction(v) for c, v in row.items()} for row in rows]


def _assert_exact_rows(ours, theirs):
    """Equal to the Fraction kernel's rows, each entry an int exactly
    when it is integral and a Fraction otherwise."""
    assert ours == theirs
    for row in ours:
        for v in row.values():
            assert type(v) is (int if v.denominator == 1 else Fraction)


def _normalized(rows):
    """Each row divided by its pivot entry, its entry at its least column."""
    return [{k: Fraction(v, row[min(row)]) for k, v in row.items()} for row in rows]


def _assert_integer_rref(ours, theirs):
    """Rows of ints, each primitive with a positive pivot entry, which
    divided by their pivot entries are the Fraction kernel's RREF rows."""
    for row in ours:
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1 and row[min(row)] > 0
    assert _normalized(ours) == theirs


@settings(max_examples=200, deadline=None)
@given(redundant_rows())
def test_rank_matches_fraction_kernel(rows):
    """The rank is the number of pivot columns, for a list, an iterator
    and a generator of rows alike."""
    expected = oracles.fraction_rank(_as_fractions(rows))
    assert len(linalg.pivot_columns(rows)) == expected
    assert len(linalg.pivot_columns(iter(rows))) == expected
    assert len(linalg.pivot_columns(dict(r) for r in rows)) == expected


@settings(max_examples=200, deadline=None)
@given(redundant_rows())
def test_row_reduce_matches_fraction_kernel(rows):
    expected = oracles.fraction_row_reduce(_as_fractions(rows))
    _assert_integer_rref(linalg.rref(rows), expected)
    _assert_exact_rows(oracles.row_reduce(rows), expected)
    _assert_exact_rows(oracles.row_reduce(dict(r) for r in rows), expected)
    for row in expected:
        assert row[min(row)] == 1
    # the pivot columns are those of the RREF, whatever the row order
    pivots = {min(row) for row in expected}
    assert linalg.pivot_columns(rows) == pivots == linalg.pivot_columns(reversed(rows))


@settings(max_examples=150, deadline=None)
@given(redundant_rows(), redundant_rows())
def test_intersection_matches_fraction_kernel(u_rows, w_rows):
    u = oracles.row_reduce(u_rows)
    w = oracles.row_reduce(w_rows)
    expected = oracles.fraction_intersect_rowspaces(u, w, NCOLS)
    _assert_integer_rref(oracles.intersect_rowspaces(u, w), expected)
    # unreduced, redundant spanning sets give the same intersection, and
    # so do the integer RREF rows of the two spaces
    _assert_integer_rref(oracles.intersect_rowspaces(u_rows, w_rows), expected)
    _assert_integer_rref(oracles.intersect_rowspaces(linalg.rref(u_rows), linalg.rref(w_rows)), expected)


integer_rows = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=NCOLS - 1),
        st.integers(min_value=-3, max_value=3).filter(bool),
        max_size=NCOLS,
    ),
    max_size=9,
)


@settings(max_examples=150, deadline=None)
@given(integer_rows)
def test_kernel_is_the_integer_rref_of_the_relations(rows):
    """The rows of kernel, divided by their pivot entries, are the RREF
    of the combinations c with sum c_i rows[i] = 0, by sympy's left null
    space; the input rows, some of them pivots of the kernel as they
    are, with a leading entry of either sign, stay unchanged."""
    before = [dict(r) for r in rows]
    ours = linalg.kernel(rows)
    assert rows == before
    null = dense(rows, NCOLS).T.nullspace() if rows else []
    expected = rowspace_basis(sympy.Matrix.hstack(*null).T) if null else sympy.zeros(0, len(rows))
    for row in ours:
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1 and row[min(row)] > 0
    assert dense(_normalized(ours), len(rows)) == expected


def test_intersection_drops_the_zero_expansions_of_dependent_rows():
    """u_2 = u_0 + u_1 and u_3 = 2*u_0: two of the three combinations
    whose left half reduces to zero, u_0 + u_1 - u_2 and
    2*u_1 - 2*u_2 + u_3, expand to 0 and are dropped; the third, u_2,
    spans U ∩ W."""
    u_rows = [
        {0: 1, 2: Fraction(1, 2)},
        {1: 1, 2: Fraction(-1, 2)},
        {0: 1, 1: 1},
        {0: 2, 2: 1},
    ]
    w_rows = [{0: 1, 1: 1}, {3: 5}]
    expected = oracles.fraction_intersect_rowspaces(u_rows, w_rows, 4)
    assert expected == [{0: 1, 1: 1}]
    _assert_integer_rref(oracles.intersect_rowspaces(u_rows, w_rows), expected)


def test_kernel_examples_with_large_heights():
    rows = [
        {0: Fraction(-13, 999983), 1: Fraction(47, 11), 2: Fraction(1, 2)},
        {0: Fraction(26, 999983), 1: Fraction(-94, 11), 2: Fraction(-1)},
        {1: Fraction(29, 31), 2: Fraction(-41, 43)},
        {},
    ]
    assert len(linalg.pivot_columns(rows)) == oracles.fraction_rank(rows) == 2
    assert oracles.row_reduce(rows) == oracles.fraction_row_reduce(rows)


@settings(max_examples=150, deadline=None)
@given(redundant_rows(), redundant_rows())
def test_inputs_are_left_unchanged(u_rows, w_rows):
    """The kernel reduces its own integer copies of the rows in place,
    so no caller's row, such as the w_rows that intersect_rowspaces
    stacks as they are, may change."""
    before = ([dict(r) for r in u_rows], [dict(r) for r in w_rows])
    linalg.pivot_columns(u_rows)
    oracles.row_reduce(u_rows)
    oracles.intersect_rowspaces(u_rows, w_rows)
    assert (u_rows, w_rows) == before
