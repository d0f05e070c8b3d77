"""Koszul-type minimal models.

Covers the general quadratic construction (lattice of intersections
J_n), the exterior-generator models, and the vertex-deletion quotient.

One builder, _exterior, makes the arrows x_{j,S} of the minimal model of
k[x_1..x_n] # Z/m and their shuffle-sign d.  The polynomial model is its
case m = 1; the commutation presentation takes |S| <= 2, with the
singletons as arrows and the d of the pairs as relators.  Given a vertex
to leave out, it builds the quotient by that vertex directly, as
delete_vertex would leave it; cy deletes vertex 0 so.

The J_n lattice runs on the word ids of core.WordIds, as truncated_dims
does, splitting and joining them by // B^j, mod B^j and
id(u)*B^|v| + id(v) alone, and on integer rows, the integer RREF of
linalg, whatever the relators' coefficients, and hands out those rows
{word id: int} as they are.  Its readers normalize and decode only
what they read: compute_Jn the basis it returns, minimal_model_general
the row of each generator, for the coefficients of its d, and its
pivot, for its name and endpoints, and cy the pivot of each row, for
its endpoints.  Only core.WordIds.path turns an id back into a path,
one call per id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice, takewhile
from typing import Iterator

from . import linalg
from .core import AlgebraElement, Arrow, GradedQuiver, Path, Scalar, Vertex, WordIds, add_term
from .differential import Differential, DGModel
from .errors import InvalidInputError, ResourceLimitError, path_cap
from .presentations import PresentedAlgebra, QuadraticPresentation, check_quadratic


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


@lru_cache(maxsize=4)
def _subset_table(weights: tuple[int, ...], top: int):
    """The subsets S of 1..n, n = len(weights), with |S| <= top: the
    empty one first, then in _subsets order; their digits; their weights
    d(S), not reduced; and per S its splits S = A ⊔ B, A or B possibly
    empty, by |A| then lex, as (index of A, index of B, eps(A, B)), eps
    the shuffle sign.  Made once per key, for every vertex: a cy_check
    reads the (weights, n) table twice, for the deleted model and for
    its split model.  The last few tables are kept, so no caller may
    mutate the lists; none does.  The cache stays small, as one table
    for n = 12 already holds 3^12 splits."""
    subsets = [()] + list(takewhile(lambda s: len(s) <= top, _subsets(len(weights))))
    index = {s: k for k, s in enumerate(subsets)}
    with_empty = ([((), s), *_splits(s), (s, ())] if s else [((), ())] for s in subsets)
    splits = [[(index[a], index[b], shuffle_sign(a, b)) for a, b in pairs] for pairs in with_empty]
    digits = [_subset_name(s) for s in subsets]
    return subsets, digits, [sum(weights[i - 1] for i in s) for s in subsets], splits


def _exterior(m: int, weights: tuple[int, ...], top: int, name: str, label: str, skip: Vertex | None = None):
    """The minimal model of k[x_1..x_n] # Z/m with these weights, on the
    subsets S of 1..n with 1 <= |S| <= top: the arrows x_{j,S} from j to
    j + d(S) mod m in bidegree (1 - |S|, |S|), and {name: d as {Path:
    coefficient}} for |S| >= 2, both by vertex j, then by S in _subsets
    order, where d(x_{j,S}) = sum over S = A ⊔ B of
    (-1)^(|A|-1) eps(A, B) x_{j,A} x_{j+d(A),B}, eps the shuffle sign.
    name and label are format strings in j, s (the digits of S) and t
    (the target).  Each subset's name, weight and splits are made once
    (_subset_table).

    With a vertex skip, the quotient by e_skip is built directly, in the
    order delete_vertex leaves: no arrow at skip, no term through it,
    and no d(a) that loses all its terms."""
    subsets, digits, weight, splits = _subset_table(weights, top)
    names = [[name.format(j=j, s=s) for s in digits] for j in range(m)]
    arrows = []
    d = {}
    for j, here in enumerate(names):
        if j == skip:
            continue
        for k in range(1, len(subsets)):
            t = (j + weight[k]) % m
            if t == skip:
                continue
            size = len(subsets[k])
            arrows.append(Arrow(here[k], j, t, 1 - size, size, label.format(j=j, s=digits[k], t=t)))
            # the nonempty parts only: both ends of splits[k] have A or B empty
            terms = {
                Path(j, (here[a], names[mid][b])): eps if len(subsets[a]) % 2 else -eps
                for a, b, eps in splits[k][1:-1]
                if (mid := (j + weight[a]) % m) != skip
            }
            if terms:
                d[here[k]] = terms
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
    warnings: tuple[str, ...] = field(init=False, default=(), compare=False)  # set by __post_init__

    def __post_init__(self):
        if self.m < 2:
            raise InvalidInputError("need m >= 2")
        # a tuple, so the data hashes and keys _subset_table's cache
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise InvalidInputError("need at least one weight")
        if any(not (0 <= a <= self.m - 1) for a in self.weights):
            raise InvalidInputError("weights must lie in 0..m-1")
        warns = []
        for a in dict.fromkeys(self.weights):  # one warning per distinct weight
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


def mckay_arrow_name(j: int, s: tuple[int, ...]) -> str:
    return _MCKAY_NAME.format(j=j, s=_subset_name(s))


def mckay_model(data: McKayData) -> DGModel:
    """Minimal model of k[x_1..x_n] # Z/m: vertices 0..m-1, an arrow
    x_{j,S,j+d(S)} per vertex j and nonempty subset S (_exterior)."""
    return _mckay(data, None)


def deleted_mckay_model(data: McKayData, v: Vertex) -> DGModel:
    """delete_vertex(mckay_model(data), v), built without v: _exterior
    emits no arrow at v and no term through it, so the full model is
    never made."""
    return _mckay(data, v)


def _mckay(data: McKayData, skip: Vertex | None) -> DGModel:
    m = data.m
    _check_model_size(m, data.n)
    if skip is not None and skip not in range(m):
        raise InvalidInputError(f"unknown vertex {skip!r}")
    arrows, d = _exterior(m, data.weights, data.n, _MCKAY_NAME, "x_{{{j},{{{s}}},{t}}}", skip)
    quiver = GradedQuiver(tuple(j for j in range(m) if j != skip), arrows)
    on_arrows = {name: AlgebraElement(quiver, terms) for name, terms in d.items()}
    metadata = {"m": m, "weights": data.weights, "warnings": data.warnings}
    if skip is not None:
        metadata["deleted_vertex"] = skip
    return DGModel(quiver, Differential(quiver, on_arrows), provenance="mckay", metadata=metadata)


def mckay_commutation_presentation(data: McKayData) -> PresentedAlgebra:
    """The degree-0 quotient presentation, H^0 of mckay_model: the McKay
    quiver on the singleton arrows with the commuting-square relators
    d(x_{j,{k,l}}) = x_{j,k} x_{j+a_k,l} - x_{j,l} x_{j+a_l,k}, k < l,
    built by _exterior up to two-element subsets."""
    return _commuting_squares(data, None)


def _commuting_squares(data: McKayData, skip: Vertex | None) -> PresentedAlgebra:
    """mckay_commutation_presentation(data), and with a vertex skip its
    delete_vertex(skip), built without skip as _exterior builds it."""
    arrows, d = _exterior(data.m, data.weights, 2, _MCKAY_NAME, "", skip)
    quiver = GradedQuiver(tuple(j for j in range(data.m) if j != skip), tuple(a for a in arrows if a.adeg == 1))
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


def _jn_series(pres: PresentedAlgebra) -> Iterator[list[dict[int, int]]]:
    """The bases of J_1, J_2, J_3, ... in turn, each row as {word id:
    int} on the ids of core.WordIds: J_1 as the unit rows {rn(x): 1} of
    the arrows x in name order, and from J_2 on the integer RREF of
    linalg, the primitive integer multiples of the RREF rows, with a
    positive pivot entry, sorted by pivot.  The ids order as the paths, so every RREF
    basis over the ids is the one over the paths, and as a rational row
    space has one integer RREF, as it has one RREF, each J_n basis
    divided row by row by its pivot entry (linalg.normalize) is the RREF
    over Q.  pres must be quadratic: arrows of degree (0, 1) and relators
    of length 2, as presentations.check_quadratic checks here, before
    the first basis.  Each J_n, n >= 3, is
    (J_{n-1} ⊗ V) ∩ (V^{⊗ n-2} ⊗ R) (compute_Jn), found as a kernel in
    three steps:

    - The rows b*y, b a row of J_{n-1} and y an arrow out of its target,
      taken by the pivot of b and then by the rank of y, are an integer
      RREF basis of J_{n-1} ⊗ V: b*y has the ids id(w)*B + rn(y), so its
      pivot is pivot(b)*B + rn(y), with b's entry there, and no other
      row has a word there.  y is read off the last digit of any one
      word of b: every word of a row is a path with the row's endpoints,
      as the relators are component-pure paths.
    - A vector lies in V^{⊗ n-2} ⊗ R exactly when its last-position
      residue vanishes, the map u*x*y -> u ⊗ NF(x*y), NF the normal form
      modulo R read off its RREF: x*y where it leads no row of R, and
      otherwise minus the rest of that row over its leading entry.
      Every NF is scaled by the lcm of those entries, so the residues
      are integer rows; the scale does not change the kernel.
    - So J_n is the span of the sums sum_i c_i (b*y)_i over the
      relations c among the residues, and linalg.kernel returns the
      integer RREF of the relations.  It expands to the integer RREF of
      J_n (linalg.expand): the rows b*y are an RREF basis up to positive
      factors, in pivot order, so the expansion of the relation with
      pivot position i has its pivot at that of row i, with a positive
      entry, and 0 at the pivot of row j for the pivot position j of
      every other relation; divided by its content, it is a row of the
      integer RREF.

    Only the last two letters need the check, as J_{n-1} ⊗ V already
    lies in every factor of the positions 0..n-3.  The rows hold ints
    whatever the relators' coefficients, and what the recursion carries
    is what is yielded: no basis is normalized or decoded here."""
    check_quadratic(pres.quiver, pres.relators)
    q = pres.quiver
    ids = WordIds(q)
    base, rank = ids.base, ids.rank
    # per last digit, the rn digits of the arrows that may follow, by rank
    after = {rank[a.name]: sorted(rank[y.name] for y in q.out_arrows(a.target)) for a in q.arrows}

    yield [{rank[name]: 1} for name in sorted(rank)]
    basis = linalg.rref([{ids.of(p): c for p, c in r.terms.items()} for r in pres.relators])
    # scale*NF(x*y) as (id, coefficient) pairs, keyed by the id x*B + y of
    # each word x*y that leads a row of R; any other x*y is its own NF
    square = base * base
    scale = math.lcm(*(r[min(r)] for r in basis))
    nf = {}
    for r in basis:
        lead = min(r)
        f = scale // r[lead]
        nf[lead] = [(k, -f * v) for k, v in r.items() if k != lead]
    while True:
        yield basis
        if basis:
            left, residues = [], []
            for b in basis:
                for y in after[next(iter(b)) % base]:
                    row = {w * base + y: c for w, c in b.items()}
                    res = {k: scale * c for k, c in row.items() if k % square not in nf}
                    for k, c in row.items():
                        rest = nf.get(k % square)
                        if rest is not None:
                            head = k - k % square
                            for tail, v in rest:
                                add_term(res, head + tail, c * v)
                    left.append(row)
                    residues.append(res)
            basis = linalg.expand(linalg.kernel(residues), left)


def compute_Jn(pres: QuadraticPresentation, n: int) -> list[AlgebraElement]:
    """Ordered rational basis of J_n = ∩_i V^{⊗i} ⊗ R ⊗ V^{⊗ n-2-i}.

    J_1 is the arrow span, J_2 the relator span; bases are returned in
    reduced row echelon form over the canonical path ordering.  For
    n >= 3 the basis comes from the recursion
    J_n = (J_{n-1} ⊗ V) ∩ (V^{⊗ n-2} ⊗ R).  It is exact because
    tensoring with V preserves intersections, so J_{n-1} ⊗ V is the
    intersection of the factors V^{⊗i} ⊗ R ⊗ V^{⊗ n-2-i} over
    i <= n-3, and only the factor i = n-2, the last two letters, is
    left.  _jn_series finds it as the kernel of one map, the residue
    modulo R of the last two letters, on the rows b*y that span
    J_{n-1} ⊗ V, and the RREF of the kernel's combinations expands to
    the RREF of J_n, as those rows are an RREF basis in pivot order.
    An RREF basis is unique for a fixed column order, so the bases are
    the same as those of the full intersection.

    The recursion runs on integer word ids, ordered as the paths (see
    _jn_series), so the column order is the canonical one without a sort;
    only the basis returned is normalized and decoded, here.
    """
    if n < 1:
        raise InvalidInputError("need n >= 1")
    q = pres.quiver
    ids = WordIds(q)
    rows = map(linalg.normalize, next(islice(_jn_series(pres), n - 1, None)))
    return [AlgebraElement(q, {ids.path(k): c for k, c in row.items()}) for row in rows]


def minimal_model_general(pres: QuadraticPresentation, nmax: int) -> DGModel:
    """Truncated minimal model of T_l V / (R) with generators from J_n,
    n <= nmax, and d(a) = sum_i (-1)^{i-1} delta_{i,n-i}(a).

    delta_{i,n-i}(b) writes the J_n basis vector b in the basis of
    products va*vb of J_i and J_{n-i} basis vectors, as
    J_n ⊆ J_i ⊗ J_{n-i}.  Its coefficients are read off b with no
    products and no elimination.  _jn_series yields each basis as its
    integer RREF on word ids, which order as Path.sort_key: each row is
    s*v, v the RREF row, with 1 at its pivot, its least id, and 0 at the
    pivots of the other rows, and s > 0 its entry there; every word of
    J_i has length i.  So the coefficient of va*vb in b is
    b[pivot(va)*pivot(vb)], and one scan of the row of b finds them all:
    divmod(w, B^(n-i)) splits each id w at i into the ids of its halves,
    which are looked up among the pivots, and the word wa*wb of va*vb
    has the id wa*B^(n-i) + wb (core.WordIds).  Only b is normalized
    (linalg.normalize), once, for these coefficients of d.

    The membership is still checked: b minus the sum of c*va*vb over the
    read-off c must vanish, which holds exactly when b lies in the span
    of the products.  That residual runs on the integer rows as they
    are: with t, sa and sb the pivot entries of the rows of b, va and vb,
    and m a common multiple of the sa*sb of the found pairs, m*t times
    it is the sum of integer rows
    m*(t*b) - sum (t*b)[w]*(m/(sa*sb))*(sa*va)*(sb*vb)."""
    if nmax < 2:
        raise InvalidInputError("need nmax >= 2")
    q = pres.quiver
    ids = WordIds(q)
    base = ids.base
    bases = dict(zip(range(1, nmax + 1), _jn_series(pres)))
    # per degree n, the pivot id and entry of each row, and {pivot id: row
    # position}
    leads = {n: [min(b) for b in basis] for n, basis in bases.items()}
    scale = {n: [b[k] for b, k in zip(bases[n], ks)] for n, ks in leads.items()}
    pivots = {n: {k: i for i, k in enumerate(ks)} for n, ks in leads.items()}

    arrows: list[Arrow] = []
    gen: dict[tuple[int, int], Arrow] = {}  # (n, basis position) -> generator
    for n, ks in leads.items():
        for k, p in enumerate(map(ids.path, ks)):
            name = p.arrows[0] if n == 1 else f"j{n}_{k}"
            gen[(n, k)] = Arrow(name, p.start, q.path_target(p), -n + 1, n, label=name)
            arrows.append(gen[(n, k)])
    quiver = GradedQuiver(q.vertices, tuple(arrows))

    on_arrows: dict[str, AlgebraElement] = {}
    for n in range(2, nmax + 1):
        for k, row in enumerate(bases[n]):
            b = linalg.normalize(row)
            terms: dict[Path, Scalar] = {}
            for i in range(1, n):
                left, right, mr = pivots[i], pivots[n - i], base ** (n - i)
                halves = ((w, *divmod(w, mr)) for w in row)
                found = sorted((left[h], right[t], w) for w, h, t in halves if h in left and t in right)
                m = math.lcm(*(scale[i][ka] * scale[n - i][kb] for ka, kb, _w in found))
                rest = {w: m * c for w, c in row.items()}
                for ka, kb, w in found:
                    f = -row[w] * (m // (scale[i][ka] * scale[n - i][kb]))
                    for wa, ca in bases[i][ka].items():
                        at, fa = wa * mr, f * ca
                        for wb, cb in bases[n - i][kb].items():
                            add_term(rest, at + wb, fa * cb)
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
