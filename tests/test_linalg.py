"""Sparse exact linear algebra, cross-checked against dense sympy."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquiver import linalg
import oracles
from oracles import dense, intersect_two, rowspace_basis, sympy_rank

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
def test_rank_matches_sympy(rows):
    assert linalg.rank(rows) == sympy_rank(rows, NCOLS)


@settings(max_examples=200, deadline=None)
@given(sparse_rows)
def test_row_reduce_is_rref_of_same_space(rows):
    ours = linalg.row_reduce(rows)
    theirs = rowspace_basis(dense(rows, NCOLS))
    assert dense(ours, NCOLS) == theirs


@settings(max_examples=100, deadline=None)
@given(sparse_rows, sparse_rows)
def test_intersection_matches_sympy(u_rows, w_rows):
    ours = linalg.intersect_rowspaces(
        linalg.row_reduce(u_rows), linalg.row_reduce(w_rows), NCOLS
    )
    theirs = intersect_two(
        rowspace_basis(dense(u_rows, NCOLS)), rowspace_basis(dense(w_rows, NCOLS))
    )
    assert dense(ours, NCOLS) == theirs


@settings(max_examples=150, deadline=None)
@given(
    sparse_rows,
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=6),
)
def test_solve_in_span_roundtrip(vectors, coeffs):
    target: dict[int, Fraction] = {}
    for vec, c in zip(vectors, coeffs):
        for col, v in vec.items():
            acc = target.get(col, Fraction(0)) + c * v
            if acc:
                target[col] = acc
            else:
                target.pop(col, None)
    sol = linalg.solve_in_span(vectors, target)
    assert sol is not None
    rebuilt: dict[int, Fraction] = {}
    for vec, c in zip(vectors, sol):
        for col, v in vec.items():
            acc = rebuilt.get(col, Fraction(0)) + c * v
            if acc:
                rebuilt[col] = acc
            else:
                rebuilt.pop(col, None)
    assert rebuilt == target


def test_solve_in_span_detects_outside():
    vectors = [{0: Fraction(1), 1: Fraction(1)}]
    assert linalg.solve_in_span(vectors, {0: Fraction(1)}) is None
    assert linalg.solve_in_span([], {}) == []


def test_rref_examples():
    rows = [
        {0: Fraction(2), 1: Fraction(4)},
        {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)},
    ]
    assert linalg.row_reduce(rows) == [
        {0: Fraction(1), 1: Fraction(2)},
        {2: Fraction(1)},
    ]
    assert linalg.rank(rows) == 2


# ---------------------------------------------------------------------------
# The fraction-free kernel against the former Fraction kernel: equal rank,
# equal RREF rows and the same exact solve_in_span solution vector.

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


def _assert_fraction_rows(ours, theirs):
    assert ours == theirs
    for row in ours:
        assert all(type(v) is Fraction for v in row.values())


@settings(max_examples=200, deadline=None)
@given(redundant_rows())
def test_rank_matches_fraction_kernel(rows):
    expected = oracles.fraction_rank(_as_fractions(rows))
    assert linalg.rank(rows) == expected
    assert linalg.rank(iter(rows)) == expected
    assert linalg.rank(dict(r) for r in rows) == expected


@settings(max_examples=200, deadline=None)
@given(redundant_rows())
def test_row_reduce_matches_fraction_kernel(rows):
    expected = oracles.fraction_row_reduce(_as_fractions(rows))
    _assert_fraction_rows(linalg.row_reduce(rows), expected)
    _assert_fraction_rows(linalg.row_reduce(dict(r) for r in rows), expected)
    for row in expected:
        assert row[min(row)] == 1
    # the pivot columns are those of the RREF, whatever the row order
    pivots = {min(row) for row in expected}
    assert linalg.pivot_columns(rows) == pivots == linalg.pivot_columns(reversed(rows))


@settings(max_examples=150, deadline=None)
@given(redundant_rows(), redundant_rows())
def test_intersection_matches_fraction_kernel(u_rows, w_rows):
    u = linalg.row_reduce(u_rows)
    w = linalg.row_reduce(w_rows)
    expected = oracles.fraction_intersect_rowspaces(u, w, NCOLS)
    _assert_fraction_rows(linalg.intersect_rowspaces(u, w, NCOLS), expected)
    # unreduced, redundant spanning sets give the same intersection
    _assert_fraction_rows(linalg.intersect_rowspaces(u_rows, w_rows, NCOLS), expected)


@settings(max_examples=200, deadline=None)
@given(redundant_rows(), st.lists(entries, max_size=8), st.booleans())
def test_solve_in_span_matches_fraction_kernel(vectors, coeffs, inside):
    if inside:
        target: dict[int, Fraction] = {}
        for vec, c in zip(vectors, coeffs):
            for col, v in vec.items():
                target[col] = target.get(col, 0) + c * v
        target = {col: v for col, v in target.items() if v}
    else:
        target = {NCOLS - 1: coeffs[0]} if coeffs else {}
    expected = oracles.fraction_solve_in_span(_as_fractions(vectors), _as_fractions([target])[0])
    ours = linalg.solve_in_span(vectors, target)
    assert ours == expected
    if ours is not None:
        assert all(type(x) is Fraction for x in ours)


def test_kernel_examples_with_large_heights():
    rows = [
        {0: Fraction(-13, 999983), 1: Fraction(47, 11), 2: Fraction(1, 2)},
        {0: Fraction(26, 999983), 1: Fraction(-94, 11), 2: Fraction(-1)},
        {1: Fraction(29, 31), 2: Fraction(-41, 43)},
        {},
    ]
    assert linalg.rank(rows) == oracles.fraction_rank(rows) == 2
    assert linalg.row_reduce(rows) == oracles.fraction_row_reduce(rows)
    target = {c: 3 * v for c, v in rows[0].items()}
    for c, v in rows[2].items():
        target[c] = target.get(c, 0) - Fraction(2, 7) * v
    assert linalg.solve_in_span(rows, target) == [3, 0, Fraction(-2, 7), 0]
    assert linalg.solve_in_span(rows, target) == oracles.fraction_solve_in_span(rows, target)


@settings(max_examples=150, deadline=None)
@given(redundant_rows(), redundant_rows(), st.dictionaries(st.integers(0, NCOLS - 1), entries, max_size=NCOLS))
def test_inputs_are_left_unchanged(u_rows, w_rows, target):
    """The kernel reduces its own integer copies of the rows in place
    (solve_in_span also writes a unit column into each), so no caller's
    row, such as the w_rows that intersect_rowspaces stacks as they are,
    may change."""
    before = ([dict(r) for r in u_rows], [dict(r) for r in w_rows], dict(target))
    linalg.rank(u_rows)
    linalg.pivot_columns(u_rows)
    linalg.row_reduce(u_rows)
    linalg.intersect_rowspaces(u_rows, w_rows, NCOLS)
    linalg.solve_in_span(u_rows, target)
    assert (u_rows, w_rows, target) == before
