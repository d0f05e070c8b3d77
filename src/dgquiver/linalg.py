"""Sparse exact linear algebra over Q by fraction-free elimination.

Vectors are dicts ``{column index: coefficient}`` holding only nonzero
entries; coefficients may be ``int`` or ``Fraction``, and column indices
any non-negative ints.  Each incoming row is first cleared of
denominators, and elimination then runs on integer rows: a pivot entry
of 1 gives a plain integer axpy, any other pivot entry a gcd-scaled
cross-multiplication (Bareiss, Math. Comp. 22, 1968), and every pivot
row of ``rref`` is divided by its content gcd.  There is no floating point
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
  the J_n lattice hands out integer RREF rows, and ``compute_Jn`` and
  ``minimal_model_general`` normalize only the rows they read;
- ``kernel``, behind the J_n lattice, the integer RREF of the
  relations among integer rows: it eliminates each row together with
  its combination, the unit e_i at first, shares ``_eliminate`` with
  ``rref``, copies a row only once it has to change it and takes a
  content gcd only of rows that were eliminated, so the rows of an
  echelon basis cost one lookup each;
- ``expand``, the sums sum_i c_i rows[i] of such relations, each
  divided by its content;
- ``pivot_columns``, the pivot columns of a row space, which
  ``cohomology_dims`` calls only when two images of one step share a
  leading word (otherwise those words are the pivots) and whose result
  it skips in the next differential (clearing); its count is the rank.
"""

from __future__ import annotations

from fractions import Fraction
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


def _eliminate(r: IntVec, c: int, p: IntVec) -> tuple[int, int]:
    """Clear column c of r with the row p in place: r becomes s*r - a*p,
    s = p[c]/g and a = r[c]/g with g their gcd, and (s, a) is returned.
    s is positive when p[c] is, as at every pivot of _echelon."""
    a, b = r[c], p[c]
    s = 1
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
    return s, a


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


def kernel(rows: list[IntVec]) -> list[IntVec]:
    """The integer RREF of the relations among integer rows: the
    combinations {position i: c_i} with sum_i c_i rows[i] = 0.

    Each row is reduced together with its combination, the unit e_i at
    first, by the pivots so far; a row that reduces to 0 leaves its
    combination as a relation, and these span all relations, one per
    row outside the rank.  A row is copied only once it has to change: a
    row whose smallest column is no pivot yet becomes a pivot as it is,
    whatever the sign of its entry there (_eliminate takes either), and
    only a row that was eliminated is divided by the content gcd of it
    and its combination.  So the rows of an echelon basis cost one
    lookup each.  The rows are never changed."""
    pivots: dict[int, tuple[IntVec, IntVec]] = {}
    relations = []
    for i, row in enumerate(rows):
        combo = {i: 1}
        if row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = (row, combo)
                continue
            r = dict(row)
            while True:
                s, a = _eliminate(r, c, p[0])
                if s != 1:
                    for k in combo:
                        combo[k] *= s
                for k, v in p[1].items():
                    add_term(combo, k, -a * v)
                if not r or (p := pivots.get(c := min(r))) is None:
                    break
            if r:
                g = gcd(*r.values())
                if g != 1 and (g := gcd(g, *combo.values())) != 1:
                    r = {k: v // g for k, v in r.items()}
                    combo = {k: v // g for k, v in combo.items()}
                pivots[c] = (r, combo)
                continue
        relations.append(combo)
    return rref(relations)


def expand(relations: Iterable[IntVec], rows: list[IntVec]) -> list[IntVec]:
    """sum_i c_i rows[i] for each relation c, divided by its content gcd
    with a positive leading entry; a zero sum is dropped."""
    out = []
    for rel in relations:
        acc: IntVec = {}
        for i, c in rel.items():
            for k, v in rows[i].items():
                add_term(acc, k, c * v)
        if acc:
            out.append(_primitive(acc))
    return out
