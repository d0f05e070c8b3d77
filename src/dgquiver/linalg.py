"""Sparse exact linear algebra over Q by fraction-free elimination.

Vectors are dicts ``{column index: coefficient}`` holding only nonzero
entries; coefficients may be ``int`` or ``Fraction``, and column indices
any non-negative ints.  Each incoming row is first cleared of
denominators, and elimination then runs on integer rows: a pivot entry
of 1 gives a plain integer axpy, any other pivot entry a gcd-scaled
cross-multiplication (Bareiss, Math. Comp. 22, 1968), and every pivot
row is divided by its content gcd.  There is no floating point
anywhere.  Pivoting is always on the smallest column index, so every
result is deterministic given the column indexing.

The one reduced form is the integer RREF: the rows of the reduced row
echelon basis, each scaled to its primitive integer multiple, with a
positive pivot entry, sorted by pivot column.  It is unique for the row
space and the column indexing, as the reduced basis is, and it holds
only ints whatever the input.  Public functions:

- ``rref``, the integer RREF of a row space;
- ``normalize``, an integer row divided by its pivot entry: an int where
  the pivot entry divides the entry and a ``Fraction`` only otherwise;
- ``row_reduce``, the reduced row echelon basis, ``normalize`` of each
  row of ``rref``, so integral input never builds a ``Fraction``;
- ``intersect_rowspaces``, behind the J_n lattice, which returns the
  integer RREF of the intersection as it is: it eliminates each
  spanning row of the first space with a unit that tracks its
  combination rather than with a copy of the row, so integer rows in
  give integer arithmetic throughout;
- ``pivot_columns``, the pivot columns of a row space, which
  ``cohomology_dims`` calls only when two images of one step share a
  leading word (otherwise those words are the pivots) and whose result
  it skips in the next differential (clearing); its count is the rank.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable

from .core import Scalar, add_term

SparseVec = dict[int, Scalar]
IntVec = dict[int, int]


def _integral(row: SparseVec) -> IntVec:
    """den * row with den the lcm of the row's denominators.

    Always a new dict, also for an integral row: the kernel reduces it in
    place, so the caller's row is never changed."""
    den = 1
    for v in row.values():
        if type(v) is not int and v.denominator != 1:
            den = lcm(den, v.denominator)
    if den == 1:
        return {c: v if type(v) is int else v.numerator for c, v in row.items() if v}
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _eliminate(r: IntVec, c: int, p: IntVec) -> None:
    """Clear column c of r with the row p (p[c] > 0) in place; r is
    first scaled by a positive factor."""
    a, b = r[c], p[c]
    if b != 1:
        g = gcd(a, b)
        s, a = b // g, a // g
        if s != 1:
            for k in r:
                r[k] *= s
    get = r.get
    for k, v in p.items():
        nv = get(k, 0) - a * v
        if nv:
            r[k] = nv
        else:
            del r[k]


def _reduce(r: IntVec, pivots: dict[int, IntVec]) -> None:
    """Clear every pivot column from r, smallest first, in place."""
    while r:
        c = min(r)
        p = pivots.get(c)
        if p is None:
            break
        _eliminate(r, c, p)


def _primitive(r: IntVec) -> IntVec:
    """r divided by its content gcd, signed so its leading entry is > 0."""
    g = gcd(*r.values())
    if r[min(r)] < 0:
        g = -g
    return r if g == 1 else {k: v // g for k, v in r.items()}


def _echelon(rows: Iterable[SparseVec]) -> dict[int, IntVec]:
    """Echelon pivots {pivot column: primitive integer row}."""
    pivots: dict[int, IntVec] = {}
    for row in rows:
        r = _integral(row)
        _reduce(r, pivots)
        if r:
            pivots[min(r)] = _primitive(r)
    return pivots


def pivot_columns(rows: Iterable[SparseVec]) -> set[int]:
    """The pivot columns of the row space: the smallest column of each
    row of its reduced echelon basis.  They depend on the row space only,
    not on the rows that span it or their order."""
    return set(_echelon(rows))


def rref(rows: Iterable[SparseVec]) -> list[IntVec]:
    """The integer RREF of the row space: primitive integer rows with a
    positive pivot entry and 0 at every other row's pivot, sorted by
    pivot column."""
    pivots = _echelon(rows)
    # Back-substitution, last pivot first: each row with a larger pivot is
    # already reduced, so clearing its pivot column adds only non-pivot
    # columns to r.
    for c in sorted(pivots, reverse=True):
        r = pivots[c]
        later = [k for k in r if k != c and k in pivots]
        for k in later:
            _eliminate(r, k, pivots[k])
        if later:
            pivots[c] = _primitive(r)
    return [pivots[c] for c in sorted(pivots)]


def normalize(row: IntVec) -> SparseVec:
    """An integer row divided by its pivot entry p, its entry at its
    smallest column: the row itself when p = 1, and otherwise v // p for
    each entry v that p divides and Fraction(v, p) for the rest."""
    p = row[min(row)]
    return row if p == 1 else {k: v // p if v % p == 0 else Fraction(v, p) for k, v in row.items()}


def row_reduce(rows: Iterable[SparseVec]) -> list[SparseVec]:
    """Reduced row echelon basis of the row space, sorted by pivot column:
    each row of rref normalized, so each entry is an int when it is
    integral and a Fraction otherwise."""
    return [normalize(r) for r in rref(rows)]


def intersect_rowspaces(u_rows: list[SparseVec], w_rows: Iterable[SparseVec], ncols: int) -> list[IntVec]:
    """The integer RREF of U ∩ W, U and W the row spaces of u_rows and
    w_rows, every column below ncols.

    Zassenhaus on combinations: reduce the rows (u_i | e_i) and (w_j | 0),
    the unit e_i at column ncols + i.  Every row of their span is
    (sum c_i u_i + sum d_j w_j | c), so its left half vanishes exactly
    when sum c_i u_i lies in W, and the echelon rows with a pivot at or
    above ncols span the c of all such rows.  Their expansions
    sum c_i u_i therefore span U ∩ W; a zero expansion comes from a
    dependence among the u_i and is dropped.  Only the unit, not a copy
    of u_i, rides in the right half, and every step is exact.  The c are
    integers, so integer rows in build no Fraction anywhere; rows with
    Fraction entries are cleared of denominators first, as everywhere."""
    stacked = chain(({**u, ncols + i: 1} for i, u in enumerate(u_rows)), w_rows)
    inter = []
    for piv, row in _echelon(stacked).items():
        if piv < ncols:
            continue
        acc: SparseVec = {}
        for i, c in row.items():
            for k, v in u_rows[i - ncols].items():
                add_term(acc, k, c * v)
        if acc:
            inter.append(acc)
    return rref(inter)
