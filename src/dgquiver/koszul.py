"""Koszul-type minimal models.

Covers the general quadratic construction (lattice of intersections
J_n), the exterior-generator models, and the vertex-deletion quotient.

One builder, _exterior, makes the arrows x_{j,S} of the minimal model of
k[x_1..x_n] # Z/m and their shuffle-sign d.  The polynomial model is its
case m = 1; the commutation presentation takes |S| <= 2, with the
singletons as arrows and the d of the pairs as relators.

The J_n lattice runs on the word ids of core.WordIds, as truncated_dims
does, and on integer rows, the integer RREF of linalg, whatever the
relators' coefficients; each basis is normalized and decoded to rows
{arrow word: coefficient}, pivot first, once, and compute_Jn and
minimal_model_general build AlgebraElements from those once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice, takewhile
from typing import Iterator

from . import linalg
from .core import AlgebraElement, Arrow, GradedQuiver, Path, Scalar, Vertex, WordIds, add_term
from .differential import Differential, DGModel
from .errors import InvalidInputError, ResourceLimitError
from .homology import path_cap
from .presentations import PresentedAlgebra, QuadraticPresentation, check_quadratic

WordRow = dict[tuple[str, ...], Scalar]  # {arrow word: coefficient}, a J_n basis row


def shuffle_sign(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Sign of merging the ascending tuples a then b into ascending order.

    Equals the parity of the number of pairs (x, y) in a x b with x > y.
    """
    inv = sum(1 for x in a for y in b if x > y)
    return -1 if inv % 2 else 1


def _subsets(n: int):
    """All nonempty subsets of 1..n as ascending tuples, by size then lex."""
    for k in range(1, n + 1):
        yield from combinations(range(1, n + 1), k)


def _splits(s: tuple[int, ...]):
    """All ordered splits s = a ⊔ b with both parts nonempty."""
    s_set = set(s)
    for k in range(1, len(s)):
        for a in combinations(s, k):
            b = tuple(sorted(s_set - set(a)))
            yield a, b


def _subset_name(s: tuple[int, ...]) -> str:
    return "".join(str(i) for i in s)


def _check_model_size(m: int, n: int) -> None:
    """Refuse, before it is built, a model on m vertices and n variables
    with more arrows and differential terms than the path cap.  Per
    vertex there are 2^n - 1 arrows, one per nonempty subset of 1..n, and
    3^n - 2^(n+1) + 1 terms, one per ordered split of such a subset into
    two nonempty parts: m (3^n - 2^n) in all.  That is at least 2^n, so
    an n past the bit length of the cap is refused before 3^n is formed."""
    cap = path_cap()
    if n > cap.bit_length() or m * (3**n - 2**n) > cap:
        raise ResourceLimitError(
            f"a model on {m} vertices and {n} variables has more than {cap} arrows and terms; raise DGQ_PATH_CAP"
        )


# ---------------------------------------------------------------------------
# the exterior-algebra model of k[x_1..x_n] # Z/m


_MCKAY_NAME = "x{j}_{s}"


def _exterior(m: int, weights: tuple[int, ...], top: int, name: str, label: str):
    """The minimal model of k[x_1..x_n] # Z/m with these weights, on the
    subsets S of 1..n with 1 <= |S| <= top: the arrows x_{j,S} from j to
    j + d(S) mod m in bidegree (1 - |S|, |S|), and {name: d as {Path:
    coefficient}} for |S| >= 2, both by vertex j, then by S in _subsets
    order, where d(x_{j,S}) = sum over S = A ⊔ B of
    (-1)^(|A|-1) eps(A, B) x_{j,A} x_{j+d(A),B}, eps the shuffle sign.
    name and label are format strings in j, s (the digits of S) and t
    (the target).  Each subset's name, weight and splits are made once."""
    subsets = list(takewhile(lambda s: len(s) <= top, _subsets(len(weights))))
    digits = [_subset_name(s) for s in subsets]
    weight = [sum(weights[i - 1] for i in s) for s in subsets]
    # per subset, its signed splits as (index of A, index of B, coefficient)
    index = {s: k for k, s in enumerate(subsets)}
    splits = [
        [(index[a], index[b], (-1) ** (len(a) - 1) * shuffle_sign(a, b)) for a, b in _splits(s)]
        for s in subsets
    ]
    names = [[name.format(j=j, s=s) for s in digits] for j in range(m)]
    arrows = []
    for j, here in enumerate(names):
        for k, s in enumerate(subsets):
            t = (j + weight[k]) % m
            arrows.append(Arrow(here[k], j, t, 1 - len(s), len(s), label.format(j=j, s=digits[k], t=t)))
    d = {
        here[k]: {Path(j, (here[a], names[(j + weight[a]) % m][b])): c for a, b, c in split}
        for j, here in enumerate(names)
        for k, split in enumerate(splits)
        if split
    }
    return tuple(arrows), d


def polynomial_model(n: int) -> DGModel:
    """Minimal model of k[x_1..x_n]: one vertex, a generator x_S per
    nonempty S in hdeg -|S|+1, adeg |S|, with the shuffle-sign
    differential; the case m = 1 of _exterior."""
    if n < 1:
        raise InvalidInputError("need n >= 1")
    _check_model_size(1, n)
    arrows, d = _exterior(1, (0,) * n, n, "x{s}", "x_{{{s}}}")
    quiver = GradedQuiver((0,), arrows)
    on_arrows = {name: AlgebraElement(quiver, terms) for name, terms in d.items()}
    return DGModel(quiver, Differential(quiver, on_arrows), provenance="polynomial", metadata={"n": n})


# ---------------------------------------------------------------------------
# McKay models for cyclic groups


@dataclass(frozen=True)
class McKayData:
    """Z/m acting diagonally on n variables with the given weights."""

    m: int
    weights: tuple[int, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.m < 2:
            raise InvalidInputError("need m >= 2")
        if not self.weights:
            raise InvalidInputError("need at least one weight")
        if any(not (0 <= a <= self.m - 1) for a in self.weights):
            raise InvalidInputError("weights must lie in 0..m-1")
        warns = []
        for a in self.weights:
            if math.gcd(a, self.m) != 1:
                warns.append(
                    f"gcd({a},{self.m}) != 1: Gorenstein/isolated-singularity hypotheses fail"
                )
        if sum(self.weights) % self.m != 0:
            warns.append(
                f"sum of weights {sum(self.weights)} is not 0 mod {self.m}: "
                "Gorenstein/isolated-singularity hypotheses fail"
            )
        object.__setattr__(self, "warnings", tuple(warns))

    @property
    def n(self) -> int:
        return len(self.weights)

    def d_of(self, s: tuple[int, ...]) -> int:
        """Weight of a subset: sum of a_i over i in S, not reduced."""
        return sum(self.weights[i - 1] for i in s)


def mckay_arrow_name(j: int, s: tuple[int, ...]) -> str:
    return _MCKAY_NAME.format(j=j, s=_subset_name(s))


def mckay_model(data: McKayData) -> DGModel:
    """Minimal model of k[x_1..x_n] # Z/m: vertices 0..m-1, an arrow
    x_{j,S,j+d(S)} per vertex j and nonempty subset S (_exterior)."""
    m = data.m
    _check_model_size(m, data.n)
    arrows, d = _exterior(m, data.weights, data.n, _MCKAY_NAME, "x_{{{j},{{{s}}},{t}}}")
    quiver = GradedQuiver(tuple(range(m)), arrows)
    on_arrows = {name: AlgebraElement(quiver, terms) for name, terms in d.items()}
    return DGModel(
        quiver,
        Differential(quiver, on_arrows),
        provenance="mckay",
        metadata={"m": m, "weights": data.weights, "warnings": data.warnings},
    )


def mckay_commutation_presentation(data: McKayData) -> PresentedAlgebra:
    """The degree-0 quotient presentation, H^0 of mckay_model: the McKay
    quiver on the singleton arrows with the commuting-square relators
    d(x_{j,{k,l}}) = x_{j,k} x_{j+a_k,l} - x_{j,l} x_{j+a_l,k}, k < l,
    built by _exterior up to two-element subsets."""
    arrows, d = _exterior(data.m, data.weights, 2, _MCKAY_NAME, "")
    quiver = GradedQuiver(tuple(range(data.m)), tuple(a for a in arrows if a.adeg == 1))
    return PresentedAlgebra(quiver, tuple(AlgebraElement(quiver, terms) for terms in d.values()))


# ---------------------------------------------------------------------------
# vertex deletion


def delete_vertex(model: DGModel, v: Vertex) -> DGModel:
    """Quotient by the two-sided ideal of e_v: drop v, adjacent arrows,
    and every differential term through a dropped arrow.

    Since d(e_v) = 0, the Leibniz rule makes (e_v) a DG ideal, and the
    differential of the quotient is the image of d: each d(a) loses only
    its terms through v.  So the quotient keeps the grading and d^2 = 0
    whenever the model has them, and neither check is rerun here."""
    q0 = model.quiver.without(v)
    d0 = model.differential.restricted(q0)
    return DGModel(q0, d0, provenance=model.provenance, metadata=dict(model.metadata) | {"deleted_vertex": v})


# ---------------------------------------------------------------------------
# general quadratic algebras


def _jn_series(pres: QuadraticPresentation | PresentedAlgebra) -> Iterator[list[WordRow]]:
    """The bases of J_1, J_2, J_3, ... in turn, each row as {arrow word:
    coefficient}, pivot first, with int coefficients while integral; see
    compute_Jn.  A PresentedAlgebra must be quadratic: arrows of degree
    (0, 1) and relators of length 2, as presentations.check_quadratic
    checks here, before the first basis.

    From J_2 on, the recursion carries the integer RREF of linalg, the
    primitive integer multiples of the RREF rows: the rows b*y and x*b of
    an integer row are integer rows, so every intersection runs on ints,
    whatever the relators' coefficients.  A rational row space has one
    integer RREF, as it has one RREF, so each basis is normalized once,
    by linalg.normalize, when it is yielded, and what is yielded is the
    RREF over Q.

    The recursion runs on core.WordIds ids, so every RREF basis over the
    ids is the one over the paths.  For a row b with words w of length L,
    the rows b*y have the ids id(w)*B + rn(y), and the rows x*b the ids
    id(w) + prepend[x]*B^L, x an arrow into the source of b, read off the
    leading digit of any one word: every word of a row is a path with the
    row's endpoints, as the relators are component-pure paths.  Each
    basis is decoded to words once, when it is yielded, each word from
    that of its prefix id(w) // B: J_n lies in J_{n-1} ⊗ V, so every
    column of J_n extends a column of J_{n-1} by one arrow."""
    if not isinstance(pres, QuadraticPresentation):
        check_quadratic(pres.quiver, pres.relators)
    q = pres.quiver
    ids = WordIds(q)
    base, names = ids.base, ids.names
    # per last digit, the rn digits of the arrows that may follow; per id
    # of an e_v, the prepend of the arrows into v
    after = [[ids.rank[y.name] for y in q.out_arrows(q.arrow(name).target)] for name in names]
    into = {k: [ids.prepend[a.name] for a in q.arrows if a.target == v] for v, k in ids.empty.items()}

    yield [{(name,): 1} for name in names]
    words = {ids.of(Path(a.source, (a.name,))): (a.name,) for a in q.arrows}
    basis = linalg.rref([{ids.of(p): c for p, c in r.terms.items()} for r in pres.relators])
    top = base * base  # B^L, L the length of the words of basis
    while True:
        words = {k: words[k // base] + (names[k % base],) for row in basis for k in row}
        yield [{words[min(row)]: 1} | {words[k]: c for k, c in linalg.normalize(row).items()} for row in basis]
        if basis:
            left, right = [], []
            for b in basis:
                k = next(iter(b))
                for y in after[k % base]:
                    left.append({w * base + y: c for w, c in b.items()})
                for shift in (x * top for x in into[k // top]):
                    right.append({w + shift: c for w, c in b.items()})
            top *= base
            basis = linalg.intersect_rowspaces(left, right, 2 * len(ids.vertices) * top)


def compute_Jn(pres: QuadraticPresentation, n: int) -> list[AlgebraElement]:
    """Ordered rational basis of J_n = ∩_i V^{⊗i} ⊗ R ⊗ V^{⊗ n-2-i}.

    J_1 is the arrow span, J_2 the relator span; bases are returned in
    reduced row echelon form over the canonical path ordering.  For
    n >= 3 the basis comes from the recursion
    J_n = (J_{n-1} ⊗ V) ∩ (V ⊗ J_{n-1}), one intersection of the rows
    b*y and x*b over the RREF rows b of J_{n-1} and the arrows x, y.  It
    is exact because tensoring with V preserves intersections, so
    J_{n-1} ⊗ V is the intersection over i <= n-3 of the factors
    V^{⊗i} ⊗ R ⊗ V^{⊗ n-2-i} and V ⊗ J_{n-1} that over i >= 1.  An
    RREF basis is unique for a fixed column order, so the bases are the
    same as those of the full intersection.

    The recursion runs on integer word ids, ordered as the paths (see
    _jn_series), so the column order is the canonical one without a sort;
    the elements are built once, here.
    """
    if n < 1:
        raise InvalidInputError("need n >= 1")
    q = pres.quiver
    rows = next(islice(_jn_series(pres), n - 1, None))
    return [AlgebraElement(q, {Path(q.arrow(w[0]).source, w): c for w, c in row.items()}) for row in rows]


def minimal_model_general(pres: QuadraticPresentation, nmax: int) -> DGModel:
    """Truncated minimal model of T_l V / (R) with generators from J_n,
    n <= nmax, and d(a) = sum_i (-1)^{i-1} delta_{i,n-i}(a).

    delta_{i,n-i}(b) writes the J_n basis vector b in the basis of
    products va*vb of J_i and J_{n-i} basis vectors, as
    J_n ⊆ J_i ⊗ J_{n-i}.  Its coefficients are read off b with no
    products and no elimination.  Every basis that _jn_series yields is
    in RREF over Path.sort_key: each row has coefficient 1 at its pivot,
    its least path and its first key, and 0 at the pivots of the other
    rows, and every word of J_i has length i.  So the coefficient of
    va*vb in b is b[pivot(va) + pivot(vb)], and one scan of b finds them
    all, splitting each word at i and looking both halves up among the
    pivots.  The membership is still checked: b minus the sum of c*va*vb
    over the read-off c must vanish, which holds exactly when b lies in
    the span of the products.  That residual runs in ints: every row is
    scaled by linalg._integral to an integer row, which is the row times
    its pivot entry, and each (b, i) takes one common multiplier, a
    multiple of the products of the pivot entries of the found va and vb,
    so that the residual times it is a sum of integer rows."""
    if nmax < 2:
        raise InvalidInputError("need nmax >= 2")
    q = pres.quiver
    # each basis row as {arrow word: coefficient}, and {pivot word: row position} per degree
    words = dict(zip(range(1, nmax + 1), _jn_series(pres)))
    pivots = {n: {next(iter(b)): k for k, b in enumerate(basis)} for n, basis in words.items()}

    arrows: list[Arrow] = []
    gen: dict[tuple[int, int], Arrow] = {}  # (n, basis position) -> generator
    for n, basis in words.items():
        for k, b in enumerate(basis):
            w = next(iter(b))
            name = w[0] if n == 1 else f"j{n}_{k}"
            gen[(n, k)] = Arrow(name, q.arrow(w[0]).source, q.arrow(w[-1]).target, -n + 1, n, label=name)
            arrows.append(gen[(n, k)])
    quiver = GradedQuiver(q.vertices, tuple(arrows))

    # each basis row v as the integer row s*v, and s, its pivot entry, as
    # every row v has 1 at its pivot
    scaled = {n: [linalg._integral(b) for b in basis] for n, basis in words.items()}
    scale = {n: [r[next(iter(r))] for r in rows] for n, rows in scaled.items()}

    on_arrows: dict[str, AlgebraElement] = {}
    for n in range(2, nmax + 1):
        for k, b in enumerate(words[n]):
            terms: dict[Path, Scalar] = {}
            ib = scaled[n][k]
            for i in range(1, n):
                left, right = pivots[i], pivots[n - i]
                found = sorted((left[w[:i]], right[w[i:]], w) for w in b if w[:i] in left and w[i:] in right)
                # ib = t*b for an int t > 0 and va*vb = (sa*va)*(sb*vb)/(sa*sb),
                # so with m a common multiple of the sa*sb, rest is m*t times
                # b - sum b[w]*va*vb, in ints
                m = math.lcm(*(scale[i][ka] * scale[n - i][kb] for ka, kb, _w in found))
                rest = {w: m * c for w, c in ib.items()}
                for ka, kb, w in found:
                    f = -ib[w] * (m // (scale[i][ka] * scale[n - i][kb]))
                    for wa, ca in scaled[i][ka].items():
                        for wb, cb in scaled[n - i][kb].items():
                            add_term(rest, wa + wb, f * ca * cb)
                    ga, gb = gen[(i, ka)], gen[(n - i, kb)]
                    c = b[w]
                    terms[Path(ga.source, (ga.name, gb.name))] = c if i % 2 else -c
                if rest:
                    raise RuntimeError(
                        f"J_{n} basis vector not inside J_{i} ⊗ J_{n - i}: internal bug"
                    )
            if terms:
                on_arrows[gen[(n, k)].name] = AlgebraElement(quiver, terms)
    d = Differential(quiver, on_arrows)
    return DGModel(quiver, d, provenance="general", metadata={"truncated_at": nmax})
