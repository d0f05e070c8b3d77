"""Sparse exact linear algebra over Q by fraction-free elimination.

Vectors are dicts ``{column index: coefficient}`` holding only nonzero
entries; coefficients may be ``int`` or ``Fraction``.  Each incoming row
is first cleared of denominators, and elimination then runs on integer
rows: a pivot entry of 1 gives a plain integer axpy, any other pivot
entry a gcd-scaled cross-multiplication (Bareiss, Math. Comp. 22, 1968),
and every pivot row is divided by its content gcd.  Integral input thus
never builds a ``Fraction``; results that carry coefficients are
converted to ``Fraction`` only at the output.  There is no floating
point anywhere.  Pivoting is always on the smallest column index, so
every result is deterministic given the column indexing.

Public functions: ``pivot_columns``, the pivot columns of a row space,
which ``cohomology_dims`` calls only when two images of one step share a
leading word (otherwise those words are the pivots) and whose result it
skips in the next differential (clearing); its count is the rank;
``row_reduce``; and ``intersect_rowspaces``, behind the J_n lattice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable

SparseVec = dict[int, Fraction]
IntVec = dict[int, int]


def _integral(row: SparseVec) -> IntVec:
    """den * row with den the lcm of the row's denominators.

    Always a new dict, also for an integral row: the kernel reduces it in
    place, so the caller's row is never changed."""
    den = 1
    for v in row.values():
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    if den == 1:
        return {c: v.numerator for c, v in row.items() if v}
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


def row_reduce(rows: Iterable[SparseVec]) -> list[SparseVec]:
    """Reduced row echelon basis of the row space, sorted by pivot column."""
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
    return [{k: Fraction(v, r[c]) for k, v in r.items()} for c, r in sorted(pivots.items())]


def intersect_rowspaces(u_rows: list[SparseVec], w_rows: list[SparseVec], ncols: int) -> list[SparseVec]:
    """RREF basis of (row space of u_rows) ∩ (row space of w_rows).

    Zassenhaus: reduce rows (u | u) and (w | 0); echelon rows supported
    entirely in the right block give the intersection.
    """
    stacked = chain(({**u, **{c + ncols: v for c, v in u.items()}} for u in u_rows), w_rows)
    inter = [
        {c - ncols: v for c, v in row.items()}
        for piv, row in _echelon(stacked).items()
        if piv >= ncols
    ]
    return row_reduce(inter)
