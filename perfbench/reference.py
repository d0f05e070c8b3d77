"""Closed-form answers the benchmark checks the program against.

Standard library only: nothing here imports dgquiver or the test oracles,
so a defect shared by the library and its tests cannot hide here.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement
from math import comb


def monomials(nvars: int, degree: int) -> int:
    """Monomials of the given total degree in nvars commuting variables."""
    return comb(degree + nvars - 1, nvars - 1)


def exterior_generators(nvars: int, adeg: int) -> int:
    """Generators of Adams degree adeg in the minimal model of a (skew)
    polynomial ring: one per adeg-element subset of the variables."""
    return comb(nvars, adeg)


def koszul_dual_dim(m: int, nvars: int, k: int) -> int:
    """dim J_k of the McKay commutation presentation for Z/m on nvars
    variables: one J_k vector per vertex and k-element subset."""
    return m * comb(nvars, k)


def weighted_monomials(m: int, weights: tuple[int, ...], nadams: int) -> dict[tuple[int, int, int], int]:
    """Graded dimensions {(s, t, adeg): dim} of k[x] # Z/m with x_i of
    weight weights[i]: a monomial of weight w runs from character s to
    s + w mod m.  Computed as the coefficients of prod_i 1/(1 - t z^{w_i})
    in Z[t, z]/(z^m - 1), truncated at t^nadams."""
    series = Counter({(0, 0): 1})  # (degree, weight mod m) -> count
    for w in weights:
        grown: Counter = Counter()
        for (a, r), c in series.items():
            for e in range(nadams - a + 1):
                grown[(a + e, (r + e * w) % m)] += c
        series = grown
    return {
        (s, (s + r) % m, a): c
        for (a, r), c in series.items()
        for s in range(m)
    }


def cohomology_table(hmin: int, nadams: int, h0: dict[int, int]) -> dict[str, int]:
    """The CLI's cohomology table for a resolution: H^0 in Adams degree a
    is h0[a], and every negative degree vanishes."""
    return {
        f"{h},{a}": (h0.get(a, 0) if h == 0 else 0)
        for h in range(hmin, 1)
        for a in range(nadams + 1)
    }


def deleted_quotient_dim(m: int, weights: tuple[int, ...], nadams: int) -> int:
    """Total dimension through Adams degree nadams of (k[x] # Z/m) / (e_0).

    The basis element (s, x^alpha) factors through vertex 0 exactly when
    some sub-multiset beta of alpha has s + wt(beta) = 0 mod m; those span
    the ideal, so the quotient counts the basis elements with no such beta.
    """
    n = len(weights)
    total = 0
    for a in range(nadams + 1):
        for alpha in combinations_with_replacement(range(n), a):
            reachable = {0}  # weights mod m of the sub-multisets of alpha
            for i in alpha:
                reachable |= {(r + weights[i]) % m for r in reachable}
            total += sum(1 for s in range(1, m) if all((s + r) % m for r in reachable))
    return total
