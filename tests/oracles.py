"""Independent brute-force oracles used only by the tests.

Everything here takes a second, slower route (dense sympy matrices,
direct monomial enumeration) so that agreement with the library is a
genuine cross-check rather than the same code run twice.  The one
exception is the Fraction elimination at the end, which is the library's
former kernel, kept to pin the fraction-free kernel to identical results.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations_with_replacement

import sympy

from dgquiver.core import GradedQuiver, Path


def dense(rows, ncols) -> sympy.Matrix:
    """Dense sympy matrix from sparse {col: Fraction} rows."""
    rows = list(rows)
    if not rows:
        return sympy.zeros(0, ncols)
    return sympy.Matrix([[sympy.Rational(r.get(j, 0)) for j in range(ncols)] for r in rows])


def sympy_rank(rows, ncols) -> int:
    return dense(rows, ncols).rank()


def rowspace_basis(mat: sympy.Matrix) -> sympy.Matrix:
    rref, pivots = mat.rref()
    return rref[: len(pivots), :]


def intersect_two(u: sympy.Matrix, w: sympy.Matrix) -> sympy.Matrix:
    """Basis of rowspace(u) ∩ rowspace(w), solved via a nullspace."""
    ncols = u.cols
    if u.rows == 0 or w.rows == 0:
        return sympy.zeros(0, ncols)
    stacked = u.T.row_join(-w.T)
    vectors = []
    for c in stacked.nullspace():
        a = sympy.Matrix(c[: u.rows])
        vectors.append(list(u.T * a))
    if not vectors:
        return sympy.zeros(0, ncols)
    return rowspace_basis(sympy.Matrix(vectors))


def paths_of_length(quiver: GradedQuiver, n: int) -> list[Path]:
    paths = [Path(v) for v in quiver.vertices]
    for _ in range(n):
        paths = [
            Path(p.start, p.arrows + (a.name,))
            for p in paths
            for a in quiver.out_arrows(quiver.path_target(p))
        ]
    return sorted(paths, key=Path.sort_key)


def brute_Jn_dim(pres, n: int) -> int:
    """dim of the degree-n intersection lattice by dense linear algebra."""
    q = pres.quiver
    if n == 1:
        return len(q.arrows)
    paths = paths_of_length(q, n)
    index = {p: i for i, p in enumerate(paths)}

    def factor(i: int) -> sympy.Matrix:
        rows = []
        for r in pres.relators:
            src, tgt = r.endpoints()
            for u in paths_of_length(q, i):
                if q.path_target(u) != src:
                    continue
                for v in paths_of_length(q, n - 2 - i):
                    if v.start != tgt:
                        continue
                    row = [sympy.Integer(0)] * len(paths)
                    for p, c in r.terms.items():
                        row[index[Path(u.start, u.arrows + p.arrows + v.arrows)]] = sympy.Rational(c)
                    rows.append(row)
        if not rows:
            return sympy.zeros(0, len(paths))
        return rowspace_basis(sympy.Matrix(rows))

    basis = factor(0)
    for i in range(1, n - 1):
        basis = intersect_two(basis, factor(i))
        if basis.rows == 0:
            return 0
    return basis.rows


def polynomial_h0_dim(n: int, a: int) -> int:
    """Monomials in n commuting variables of total degree a."""
    return math.comb(a + n - 1, n - 1)


def mckay_h0_oracle(m: int, weights: tuple[int, ...], nadams: int) -> dict:
    """Weighted monomial counts: dims[(s, t, a)] = number of monomials of
    total degree a whose weight moves character s to character t."""
    n = len(weights)
    dims: dict[tuple[int, int, int], int] = defaultdict(int)
    for a in range(nadams + 1):
        for combo in combinations_with_replacement(range(n), a):
            d = sum(weights[i] for i in combo)
            for s in range(m):
                dims[(s, (s + d) % m, a)] += 1
    return dict(dims)


# ---------------------------------------------------------------------------
# The original Fraction elimination, kept verbatim as an oracle for the
# fraction-free kernel in dgquiver.linalg: every entry is a Fraction and
# every pivot row is scaled to pivot entry 1 as soon as it is found.


def _fraction_reduce_against(r, pivots):
    """Eliminate every pivot column present in r.  Mutates and returns r."""
    while r:
        c = min(r)
        pr = pivots.get(c)
        if pr is None:
            return r
        coef = r[c]
        for cc, vv in pr.items():
            nv = r.get(cc, 0) - coef * vv
            if nv:
                r[cc] = nv
            else:
                r.pop(cc, None)
    return r


def fraction_forward_eliminate(rows):
    """Echelon pivots {pivot column: row with pivot entry 1}."""
    pivots = {}
    for row in rows:
        r = _fraction_reduce_against(dict(row), pivots)
        if r:
            c = min(r)
            inv = Fraction(1) / r[c]
            pivots[c] = {cc: vv * inv for cc, vv in r.items()}
    return pivots


def fraction_rank(rows) -> int:
    return len(fraction_forward_eliminate(rows))


def fraction_row_reduce(rows):
    """Reduced row echelon basis of the row space, sorted by pivot column."""
    pivots = fraction_forward_eliminate(rows)
    for c in sorted(pivots, reverse=True):
        pr = pivots[c]
        for c2, r2 in pivots.items():
            if c2 >= c or c not in r2:
                continue
            coef = r2[c]
            for cc, vv in pr.items():
                nv = r2.get(cc, 0) - coef * vv
                if nv:
                    r2[cc] = nv
                else:
                    r2.pop(cc, None)
    return [pivots[c] for c in sorted(pivots)]


def fraction_intersect_rowspaces(u_rows, w_rows, ncols: int):
    """RREF basis of the intersection of two row spaces (Zassenhaus)."""
    stacked = []
    for u in u_rows:
        r = dict(u)
        r.update({c + ncols: v for c, v in u.items()})
        stacked.append(r)
    stacked.extend(dict(w) for w in w_rows)
    pivots = fraction_forward_eliminate(stacked)
    inter = [
        {c - ncols: v for c, v in row.items()}
        for piv, row in pivots.items()
        if piv >= ncols
    ]
    return fraction_row_reduce(inter)


def fraction_solve_in_span(vectors, target):
    """Coefficients x with sum(x_i * vectors[i]) == target, or None."""
    pivots = {}
    combos = {}  # pivot col -> combination over vector indices
    for i, vec in enumerate(vectors):
        r = dict(vec)
        comb = {i: Fraction(1)}
        while r:
            c = min(r)
            if c not in pivots:
                inv = Fraction(1) / r[c]
                pivots[c] = {cc: vv * inv for cc, vv in r.items()}
                combos[c] = {cc: vv * inv for cc, vv in comb.items()}
                break
            coef = r[c]
            for cc, vv in pivots[c].items():
                nv = r.get(cc, 0) - coef * vv
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
            for cc, vv in combos[c].items():
                nv = comb.get(cc, 0) - coef * vv
                if nv:
                    comb[cc] = nv
                else:
                    comb.pop(cc, None)
    r = dict(target)
    sol = {}
    while r:
        c = min(r)
        if c not in pivots:
            return None
        coef = r[c]
        for cc, vv in pivots[c].items():
            nv = r.get(cc, 0) - coef * vv
            if nv:
                r[cc] = nv
            else:
                r.pop(cc, None)
        for cc, vv in combos[c].items():
            sol[cc] = sol.get(cc, Fraction(0)) + coef * vv
    return [sol.get(i, Fraction(0)) for i in range(len(vectors))]
