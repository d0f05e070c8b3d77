"""Independent brute-force oracles used only by the tests.

Everything here takes a second, slower route (dense sympy matrices,
direct monomial enumeration) so that agreement with the library is a
genuine cross-check rather than the same code run twice.  The
exceptions are the library's former routines at the end: the Fraction
elimination kernel, which pins the fraction-free kernel to identical
results, the former ``linalg.row_reduce`` and ``intersect_rowspaces``,
which the old span builders reduce and intersect with, the old span
builders of ``truncated_dims`` and ``compute_Jn``, which pin the normal-word and J_n recursions, the
Path-based ``cohomology_dims``, which pins the word-level slices, the
scanning ``lead_word``, which pins the lead indices those slices carry, the
Path/Fraction ``truncated_dims`` and bimodule Leibniz loops of ``cy``,
which pin their arrow-word replacements, the product-and-solve
``minimal_model_general``, which pins the read-off of its differential
from the RREF pivots, the Fraction ``check_d_squared``, which pins
its word-level accumulation, the per-vertex ``mckay_model``, which
pins its per-subset table, the weight-by-weight ``build_C``, which
pins its restriction of the commutation presentation, and the per-split
``build_omega_tilde``, which pins the subset table of ω̃.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import sympy

from dgquiver import koszul, linalg
from dgquiver.core import AlgebraElement, Arrow, GradedQuiver, Path, Scalar, Vertex, WordIds, add_term, vertex_key
from dgquiver.errors import InvalidInputError, ResourceLimitError
from dgquiver.cy import OmegaGenerator, OmegaTilde, SplitModel
from dgquiver.differential import Differential, DGModel
from dgquiver.homology import SliceKey, Word, path_cap
from dgquiver.koszul import McKayData, _splits, _subset_name, _subsets, mckay_arrow_name, shuffle_sign
from dgquiver.presentations import PresentedAlgebra, QuadraticPresentation


def dense(rows, ncols) -> sympy.Matrix:
    """Dense sympy matrix from sparse {col: Fraction} rows."""
    rows = list(rows)
    if not rows:
        return sympy.zeros(0, ncols)
    return sympy.Matrix([[sympy.Rational(r.get(j, 0)) for j in range(ncols)] for r in rows])


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


# ---------------------------------------------------------------------------
# The former dgquiver.linalg.row_reduce and intersect_rowspaces, which no
# library function called once the J_n lattice became one kernel: the
# oracles reduce and intersect with them, on the integer RREF, kernel and
# expand of linalg, and tests/test_linalg.py pins them to the Fraction
# elimination above.


def row_reduce(rows) -> list[linalg.SparseVec]:
    """Reduced row echelon basis of the row space, sorted by pivot column:
    each row of linalg.rref normalized, so each entry is an int when it is
    integral and a Fraction otherwise."""
    return [linalg.normalize(r) for r in linalg.rref(rows)]


def _cleared(row: linalg.SparseVec) -> linalg.IntVec:
    """row times the lcm of its denominators, a new integer row."""
    den = math.lcm(*(Fraction(v).denominator for v in row.values()))
    return {k: int(v * den) for k, v in row.items() if v}


def intersect_rowspaces(u_rows, w_rows) -> list[linalg.IntVec]:
    """The integer RREF of U ∩ W, U and W the row spaces of u_rows and
    w_rows.

    Zassenhaus as a kernel: a relation (c, d) among the integer rows u_i
    and w_j, sum c_i u_i + sum d_j w_j = 0, gives sum c_i u_i = -sum d_j w_j
    in U ∩ W, and these span it; a zero expansion comes from a
    dependence among the u_i and is dropped.  Rows with Fraction entries
    are cleared of denominators first."""
    u = [_cleared(r) for r in u_rows]
    relations = linalg.kernel(u + [_cleared(w) for w in w_rows])
    return linalg.rref(linalg.expand(({i: c for i, c in rel.items() if i < len(u)} for rel in relations), u))


# ---------------------------------------------------------------------------
# The former span builders of dgquiver.homology.truncated_dims (every
# u * r * v) and dgquiver.koszul.compute_Jn (the intersection of all
# V^i R V^(n-2-i)), kept verbatim as oracles for the normal-word and J_n
# recursions that replaced them.


def old_truncated_dims(pres: PresentedAlgebra, nadams: int) -> dict[tuple[Vertex, Vertex, int], int]:
    """Graded dimensions of kQ/(relators) up to Adams degree nadams.

    Keys (source, target, adeg); zero entries are dropped.  Ideal
    membership per degree is the span of all u * r * v, which is exact
    degreewise since relators are Adams-homogeneous.
    """
    if nadams < 0:
        raise InvalidInputError("nadams must be >= 0")
    cap = path_cap()
    q = pres.quiver
    by_adeg: dict[int, list[Path]] = defaultdict(list)
    total = 0
    stack = [(Path(v), v, 0) for v in reversed(q.vertices)]
    while stack:
        p, end, a = stack.pop()
        total += 1
        if total > cap:
            raise ResourceLimitError(f"path count exceeds cap {cap}; raise DGQ_PATH_CAP")
        by_adeg[a].append(p)
        for arr in reversed(q.out_arrows(end)):
            if a + arr.adeg <= nadams:
                stack.append((Path(p.start, p.arrows + (arr.name,)), arr.target, a + arr.adeg))

    dims: dict[tuple[Vertex, Vertex, int], int] = {}
    for a in range(nadams + 1):
        paths = sorted(by_adeg.get(a, ()), key=Path.sort_key)
        if not paths:
            continue
        index: dict[Path, int] = {}
        blocks: dict[tuple[Vertex, Vertex], int] = defaultdict(int)
        for i, p in enumerate(paths):
            index[p] = i
            blocks[(p.start, q.path_target(p))] += 1
        rows_by_block: dict[tuple[Vertex, Vertex], list[linalg.SparseVec]] = defaultdict(list)
        for r in pres.relators:
            src, tgt = r.endpoints()
            dr = r.adeg()
            if dr > a:
                continue
            for au in range(a - dr + 1):
                for u in by_adeg.get(au, ()):
                    if q.path_target(u) != src:
                        continue
                    for v in by_adeg.get(a - dr - au, ()):
                        if v.start != tgt:
                            continue
                        row = {
                            index[Path(u.start, u.arrows + p.arrows + v.arrows)]: c
                            for p, c in r.terms.items()
                        }
                        rows_by_block[(u.start, q.path_target(v))].append(row)
        for (s, t), count in sorted(blocks.items(), key=lambda kv: (vertex_key(kv[0][0]), vertex_key(kv[0][1]))):
            dim = count - len(linalg.pivot_columns(rows_by_block.get((s, t), ())))
            if dim:
                dims[(s, t, a)] = dim
    return dims


def _to_sparse(el: AlgebraElement, index: dict[Path, int]) -> linalg.SparseVec:
    return {index[p]: c for p, c in el.terms.items()}


def _from_sparse(quiver: GradedQuiver, row: linalg.SparseVec, paths: list[Path]) -> AlgebraElement:
    return AlgebraElement(quiver, {paths[i]: c for i, c in row.items()})


def old_compute_Jn(pres: QuadraticPresentation, n: int) -> list[AlgebraElement]:
    """Ordered rational basis of J_n = ∩_i V^{⊗i} ⊗ R ⊗ V^{⊗ n-2-i}.

    J_1 is the arrow span, J_2 the relator span; bases are returned in
    reduced row echelon form over the canonical path ordering.
    """
    if n < 1:
        raise InvalidInputError("need n >= 1")
    q = pres.quiver
    if n == 1:
        return [q.gen(a.name) for a in sorted(q.arrows, key=lambda a: a.name)]
    paths = paths_of_length(q, n)
    index = {p: i for i, p in enumerate(paths)}
    if n == 2:
        rows = row_reduce([_to_sparse(r, index) for r in pres.relators])
        return [_from_sparse(q, row, paths) for row in rows]

    def factor_space(i: int) -> list[linalg.SparseVec]:
        """Spanning rows of V^{⊗i} ⊗ R ⊗ V^{⊗ n-2-i}."""
        lefts = paths_of_length(q, i)
        rights = paths_of_length(q, n - 2 - i)
        rows = []
        for r in pres.relators:
            src, tgt = r.endpoints()
            for u in lefts:
                if q.path_target(u) != src:
                    continue
                for v in rights:
                    if v.start != tgt:
                        continue
                    rows.append(
                        {
                            index[Path(u.start, u.arrows + p.arrows + v.arrows)]: c
                            for p, c in r.terms.items()
                        }
                    )
        return row_reduce(rows)

    basis = factor_space(0)
    for i in range(1, n - 1):
        if not basis:
            return []
        basis = row_reduce(intersect_rowspaces(basis, factor_space(i)))
    return [_from_sparse(q, row, paths) for row in basis]


# ---------------------------------------------------------------------------
# The former Path-based dgquiver.homology.bigraded_slices (a depth-first
# walk building one Path per visited node) and cohomology_dims (rows from
# Differential.apply_to_path, shortest path first), kept verbatim as
# oracles for the word-level slices that replaced them.  The former
# Path-keyed Leibniz loop comes with them, so the oracle does not share
# the library's word-level one.


def old_apply_to_path(d: Differential, p: Path) -> dict[Path, Scalar]:
    """d(p) by the Leibniz rule; coefficients stay int while integral."""
    images, odd = d._compiled
    arrows = p.arrows
    out: dict[Path, Scalar] = {}
    sign = 1
    for i, name in enumerate(arrows):
        image = images.get(name)
        if image:
            pre = arrows[:i]
            post = arrows[i + 1 :]
            for mid, c in image:
                key = Path(p.start, pre + mid + post)
                acc = out.get(key, 0) + (c if sign > 0 else -c)
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        if name in odd:
            sign = -sign
    return out


def old_bigraded_slices(quiver: GradedQuiver, hmin: int, nadams: int) -> dict[SliceKey, tuple[Path, ...]]:
    """Enumerate all paths with hdeg >= hmin and adeg <= nadams, bucketed
    by (hdeg, adeg, source, target) with the canonical basis order."""
    cap = path_cap()
    buckets: dict[SliceKey, list[Path]] = defaultdict(list)

    # depth-first with an explicit stack, children pushed in reverse so
    # paths are visited in the same preorder as a recursive walk
    stack = [(Path(v), v, 0, 0) for v in reversed(quiver.vertices)]
    while stack:
        p, end, h, a = stack.pop()
        key = (h, a, p.start, end)
        bucket = buckets[key]
        if len(bucket) >= cap:
            raise ResourceLimitError(
                f"slice {key} exceeds the path cap {cap}; raise DGQ_PATH_CAP to override"
            )
        bucket.append(p)
        for arr in reversed(quiver.out_arrows(end)):
            h2, a2 = h + arr.hdeg, a + arr.adeg
            if h2 >= hmin and a2 <= nadams:
                stack.append((Path(p.start, p.arrows + (arr.name,)), arr.target, h2, a2))
    return {key: tuple(sorted(paths, key=Path.sort_key)) for key, paths in buckets.items()}


def _old_outgoing_rank(model: DGModel, slices: dict[SliceKey, tuple[Path, ...]], key: SliceKey) -> int:
    """Rank of d restricted to the given slice."""
    basis = slices.get(key)
    if basis is None:
        return 0
    h, a, s, t = key
    tgt = slices.get((h + 1, a, s, t))
    if tgt is None:
        return 0
    index = {p: i for i, p in enumerate(tgt)}
    images = (old_apply_to_path(model.differential, p) for p in basis)
    return len(linalg.pivot_columns({index[r]: c for r, c in img.items()} for img in images if img))


def old_cohomology_dims(
    model: DGModel,
    hmin: int,
    nadams: int,
    by_component: bool = False,
) -> dict:
    """dim H^h in each bidegree with hmin <= h <= 0 and adeg <= nadams.

    With by_component=True the table is keyed (h, a, source, target) and
    zero entries are dropped; otherwise it is keyed (h, a) with every
    requested bidegree present.
    """
    if hmin > 0:
        raise InvalidInputError("hmin must be <= 0")
    if nadams < 1:
        raise InvalidInputError("nadams must be >= 1")
    slices = old_bigraded_slices(model.quiver, hmin - 1, nadams)
    out_rank: dict[SliceKey, int] = {}
    for key in slices:
        out_rank[key] = _old_outgoing_rank(model, slices, key)
    comp: dict[tuple[int, int, Vertex, Vertex], int] = {}
    for (h, a, s, t), basis in slices.items():
        if h < hmin:
            continue
        dim = len(basis) - out_rank[(h, a, s, t)] - out_rank.get((h - 1, a, s, t), 0)
        if dim:
            comp[(h, a, s, t)] = dim
    if by_component:
        return comp
    table = {(h, a): 0 for h in range(hmin, 1) for a in range(nadams + 1)}
    for (h, a, _s, _t), dim in comp.items():
        table[(h, a)] += dim
    return table


def lead_word(d: Differential, word: tuple[str, ...]) -> tuple[str, ...] | None:
    """min(d.apply_to_word(word)) in tuple order, None when it is empty,
    from one scan of the word and without any coefficient.

    Needs the terms of each d(a) to be nonempty, not to start with a and
    not to be proper prefixes of one another (Differential._leads checks
    this).  Then a term from arrow i and one from a later arrow j first
    differ at index i, so terms never cancel, and the least word is the
    least term of d(a_i) put in place of a_i, for the first i with some
    term of d(a_i) starting below a_i, or else for the last i with
    d(a_i) != 0 (see homology.cohomology_dims).

    The reference for the lead index that homology._stream_slices
    carries from each word's prefix instead of scanning."""
    smaller, least = d._leads
    at = None
    for i, name in enumerate(word):
        if name in least:
            at = i
            if name in smaller:
                break
    return None if at is None else word[:at] + least[word[at]] + word[at + 1 :]


def old_check_d_squared(d: Differential) -> dict:
    """The former Fraction check_d_squared: d(d(a)) built as an
    AlgebraElement, differentiated by old_apply_to_path in place of
    Differential.apply."""
    for a in d.quiver.arrows:
        da = d.of_arrow(a.name)
        if not da.is_hdeg_homogeneous():
            raise InvalidInputError("d applies to hdeg-homogeneous elements only")
        out: dict[Path, Fraction] = {}
        for p, c in da.terms.items():
            for r, v in old_apply_to_path(d, p).items():
                acc = out.get(r, Fraction(0)) + c * v
                if acc:
                    out[r] = acc
                else:
                    out.pop(r, None)
        residue = AlgebraElement(d.quiver, out)
        if residue:
            return {
                "check": "d_squared",
                "status": "fail",
                "witness": {"arrow": a.name, "residue": repr(residue)},
            }
    return {
        "check": "d_squared",
        "status": "pass",
        "note": "verified on arrows; Leibniz extends the identity to all paths",
    }


# ---------------------------------------------------------------------------
# The former Path/Fraction dgquiver.homology.truncated_dims (normal words
# and normal forms keyed by Path) and the Path-keyed bimodule Leibniz loop
# of dgquiver.cy (OmegaTilde.d and _trace_d), kept as oracles for the
# arrow-word loops that replaced them.  The two cy loops keep their logic
# on Path keys and Fraction coefficients, but read and return the flat
# bimodule words of the library, split at their generator letter and
# turned into Paths at the boundary.  They differentiate paths with
# old_apply_to_path above, so they share no Leibniz loop with the library.


def old_path_truncated_dims(pres: PresentedAlgebra, nadams: int) -> dict[tuple[Vertex, Vertex, int], int]:
    """Graded dimensions of kQ/(relators) up to Adams degree nadams, by
    the normal-word recursion on Path keys with Fraction normal forms."""
    if nadams < 0:
        raise InvalidInputError("nadams must be >= 0")
    cap = path_cap()
    q = pres.quiver
    killed = {r.endpoints()[0] for r in pres.relators if r.adeg() == 0}
    relators = [(r.adeg(), r.endpoints()[0], r.terms) for r in pres.relators]
    arrows = [y for y in q.arrows if y.target not in killed]
    # normal[a][v]: normal words of degree a ending at v; nf[p]: the normal
    # form {normal word: coeff} of every candidate column p
    normal: list[dict[Vertex, list[Path]]] = [{v: [Path(v)] for v in q.vertices if v not in killed}]
    nf: dict[Path, dict[Path, Fraction]] = {}
    total = 0

    def times(vec: dict[Path, Fraction], y: str) -> dict[Path, Fraction]:
        out: dict[Path, Fraction] = {}
        for u, c in vec.items():
            for w, cw in nf.get(Path(u.start, u.arrows + (y,)), {}).items():
                acc = out.get(w, 0) + c * cw
                if acc:
                    out[w] = acc
                else:
                    del out[w]
        return out

    for a in range(1, nadams + 1):
        cols = sorted(
            (
                Path(w.start, w.arrows + (y.name,))
                for y in arrows
                if y.adeg <= a
                for w in normal[a - y.adeg].get(y.source, ())
            ),
            key=Path.sort_key,
        )
        total += len(cols)
        if total > cap:
            raise ResourceLimitError(f"path count exceeds cap {cap}; raise DGQ_PATH_CAP")
        index = {p: i for i, p in enumerate(cols)}
        rows: list[linalg.SparseVec] = []
        for d, src, terms in relators:
            if not 1 <= d <= a:
                continue
            for w in normal[a - d].get(src, ()):
                row: linalg.SparseVec = {}
                for p, c in terms.items():
                    vec = {w: c}
                    for y in p.arrows[:-1]:
                        vec = times(vec, y)
                    for u, cu in vec.items():
                        col = index.get(Path(u.start, u.arrows + p.arrows[-1:]))
                        if col is not None:
                            acc = row.get(col, 0) + cu
                            if acc:
                                row[col] = acc
                            else:
                                del row[col]
                if row:
                    rows.append(row)
        level: dict[Vertex, list[Path]] = defaultdict(list)
        pivots = {}
        for row in row_reduce(rows):
            piv = min(row)
            pivots[piv] = {cols[k]: -c for k, c in row.items() if k != piv}
        for i, p in enumerate(cols):
            if i in pivots:
                nf[p] = pivots[i]
            else:
                nf[p] = {p: Fraction(1)}
                level[q.path_target(p)].append(p)
        normal.append(level)

    dims: dict[tuple[Vertex, Vertex, int], int] = {}
    for a, level in enumerate(normal):
        blocks: dict[tuple[Vertex, Vertex], int] = defaultdict(int)
        for t, words in level.items():
            for w in words:
                blocks[(w.start, t)] += 1
        for (s, t), dim in sorted(blocks.items(), key=lambda kv: (vertex_key(kv[0][0]), vertex_key(kv[0][1]))):
            dims[(s, t, a)] = dim
    return dims


def _path_term(ot, word: tuple) -> tuple:
    """(left path, generator name, right path) of the bimodule word
    u + (g,) + v, split at its generator letter g."""
    q = ot.split_model.model.quiver
    i = next(i for i, a in enumerate(word) if a in ot.by_name)
    u, g, v = word[:i], word[i], word[i + 1 :]
    gen = ot.by_name[g]
    return (
        Path(q.arrow(u[0]).source if u else gen.vertex, u),
        g,
        Path(gen.target, v),
    )


def _path_d_on(ot, gname: str) -> dict:
    """ot.d_on_generators[gname] on Path-keyed terms, Fraction coefficients."""
    return {_path_term(ot, t): Fraction(c) for t, c in ot.d_on_generators.get(gname, {}).items()}


def old_omega_tilde_d(ot, el: dict) -> dict:
    """Bimodule Leibniz extension of ot.d_on_generators on Path-keyed
    terms (left path, generator name, right path), taking and giving
    word-keyed terms."""
    asc = ot.split_model.ascending_model()
    q = asc.quiver
    dd = asc.differential
    out: dict = {}

    def add(term, c: Fraction):
        acc = out.get(term, Fraction(0)) + c
        if acc:
            out[term] = acc
        else:
            out.pop(term, None)

    by_name = ot.by_name
    for term, c in el.items():
        u, g, v = _path_term(ot, term)
        for u2, cu in old_apply_to_path(dd, u).items():
            add((u2, g, v), c * cu)
        sign_u = -1 if q.path_hdeg(u) % 2 else 1
        for (p, g2, r), cg in _path_d_on(ot, g).items():
            add((Path(u.start, u.arrows + p.arrows), g2, Path(r.start, r.arrows + v.arrows)), c * sign_u * cg)
        sign_ug = -1 if (q.path_hdeg(u) + by_name[g].hdeg) % 2 else 1
        for v2, cv in old_apply_to_path(dd, v).items():
            add((u, g, v2), c * sign_u * sign_ug * cv)
    return {u.arrows + (g,) + v.arrows: c for (u, g, v), c in out.items()}


def old_trace_d(ot, el: dict) -> dict:
    """Differential on OmegaTilde (x)_{E^e} D: Leibniz on the two tensor
    factors, then canonical rotation putting the generator first (with
    the Koszul sign for coefficients moved across the whole term)."""
    q = ot.split_model.model.quiver
    d_full = ot.split_model.model.differential
    by_name = ot.by_name
    out: dict = {}

    def add(term, c: Fraction):
        acc = out.get(term, Fraction(0)) + c
        if acc:
            out[term] = acc
        else:
            out.pop(term, None)

    for key, c in el.items():
        gname, word = key[0], key[1:]
        g = by_name[gname]
        word_hdeg = sum(q.arrow(a).hdeg for a in word)
        # d on the OmegaTilde factor
        for (u, g2, v), cg in _path_d_on(ot, gname).items():
            # u . g2 . v (x) word  ~  (-1)^{|u| (|g2| + |v| + |word|)} g2 (x) v word u
            rest_hdeg = by_name[g2].hdeg + q.path_hdeg(v) + word_hdeg
            sign = -1 if (q.path_hdeg(u) * rest_hdeg) % 2 else 1
            add((g2,) + v.arrows + word + u.arrows, c * cg * sign)
        # (-1)^{|g|} g (x) d(word)
        sign_g = -1 if g.hdeg % 2 else 1
        dword = old_apply_to_path(d_full, Path(g.target, word))
        for p, cw in dword.items():
            add((gname,) + p.arrows, c * sign_g * cw)
    return out


# ---------------------------------------------------------------------------
# The former dgquiver.koszul.minimal_model_general, kept verbatim as an
# oracle for the pivot read-off that replaced it: for each J_n basis
# vector b and each split i it builds every product va*vb of J_i and
# J_{n-i} basis vectors and solves for b in their span.  It takes the
# J_n bases from koszul._jn_series through the module, so a test that
# patches the series patches both routes, and builds its elements from
# the integer id rows by its own means: each id looked up among its own
# paths of that length and each row divided by its entry at its least
# path, so WordIds.path and linalg.normalize are not shared.


def old_minimal_model_general(pres: QuadraticPresentation, nmax: int) -> DGModel:
    """Truncated minimal model of T_l V / (R) with generators from J_n,
    n <= nmax, and d(a) = sum_i (-1)^{i-1} delta_{i,n-i}(a)."""
    if nmax < 2:
        raise InvalidInputError("need nmax >= 2")
    q = pres.quiver
    ids = WordIds(q)
    bases = {}
    for n, rows in zip(range(1, nmax + 1), koszul._jn_series(pres)):
        # the id rows decoded through this oracle's own path enumeration,
        # each divided by its entry at its least path
        path_of = {ids.of(p): p for p in paths_of_length(q, n)}
        bases[n] = []
        for row in rows:
            terms = {path_of[k]: c for k, c in row.items()}
            lead = terms[min(terms, key=Path.sort_key)]
            bases[n].append(AlgebraElement(q, {p: Fraction(c, lead) for p, c in terms.items()}))

    def _to_sparse(terms: dict[Path, Fraction], index: dict[Path, int]) -> linalg.SparseVec:
        """terms as a sparse row; a path not yet in index gets the next column."""
        return {index.setdefault(p, len(index)): c for p, c in terms.items()}

    arrows: list[Arrow] = []
    gen_name: dict[tuple[int, int], str] = {}  # (n, basis position) -> arrow name
    for n in range(1, nmax + 1):
        for k, b in enumerate(bases[n]):
            src, tgt = b.endpoints()
            name = next(iter(b.terms)).arrows[0] if n == 1 else f"j{n}_{k}"
            gen_name[(n, k)] = name
            arrows.append(Arrow(name, src, tgt, -n + 1, n, label=name))
    quiver = GradedQuiver(pres.quiver.vertices, tuple(arrows))

    on_arrows: dict[str, AlgebraElement] = {}
    for n in range(2, nmax + 1):
        if not bases[n]:
            continue
        # fraction_solve_in_span's answer does not depend on the column order
        index: dict[Path, int] = {}
        for k, b in enumerate(bases[n]):
            target_vec = _to_sparse(b.terms, index)
            terms: dict[Path, Fraction] = {}
            for i in range(1, n):
                prods: list[linalg.SparseVec] = []
                pairs: list[tuple[int, int]] = []
                for ka, va in enumerate(bases[i]):
                    for kb, vb in enumerate(bases[n - i]):
                        if va.endpoints()[1] != vb.endpoints()[0]:
                            continue
                        prods.append(_to_sparse((va * vb).terms, index))
                        pairs.append((ka, kb))
                sol = fraction_solve_in_span(prods, target_vec)
                if sol is None:
                    raise RuntimeError(
                        f"J_{n} basis vector not inside J_{i} ⊗ J_{n - i}: internal bug"
                    )
                sign = Fraction((-1) ** (i - 1))
                for (ka, kb), c in zip(pairs, sol):
                    if not c:
                        continue
                    src = bases[i][ka].endpoints()[0]
                    p = Path(src, (gen_name[(i, ka)], gen_name[(n - i, kb)]))
                    acc = terms.get(p, Fraction(0)) + sign * c
                    if acc:
                        terms[p] = acc
                    else:
                        terms.pop(p, None)
            if terms:
                on_arrows[gen_name[(n, k)]] = AlgebraElement(quiver, terms)
    d = Differential(quiver, on_arrows)
    return DGModel(quiver, d, provenance="general", metadata={"truncated_at": nmax})


# ---------------------------------------------------------------------------
# The former dgquiver.koszul.mckay_model, kept verbatim as an oracle for
# the per-subset table that replaced it: it recomputes the names, d(S)
# and the signed splits of each subset for every vertex.


def subset_weight(data: McKayData, s: tuple[int, ...]) -> int:
    """d(S), the weight of a subset: sum of a_i over i in S, not reduced."""
    return sum(data.weights[i - 1] for i in s)


def old_mckay_model(data: McKayData) -> DGModel:
    """Minimal model of k[x_1..x_n] # Z/m: vertices 0..m-1, an arrow
    x_{j,S,j+d(S)} per vertex j and nonempty subset S."""
    m, n = data.m, data.n
    arrows = []
    for j in range(m):
        for s in _subsets(n):
            t = (j + subset_weight(data, s)) % m
            arrows.append(
                Arrow(
                    mckay_arrow_name(j, s),
                    j,
                    t,
                    -len(s) + 1,
                    len(s),
                    label=f"x_{{{j},{{{_subset_name(s)}}},{t}}}",
                )
            )
    quiver = GradedQuiver(tuple(range(m)), tuple(arrows))
    on_arrows: dict[str, AlgebraElement] = {}
    for j in range(m):
        for s in _subsets(n):
            terms: dict[Path, Fraction] = {}
            for a, b in _splits(s):
                coeff = Fraction((-1) ** (len(a) - 1) * shuffle_sign(a, b))
                mid = (j + subset_weight(data, a)) % m
                terms[Path(j, (mckay_arrow_name(j, a), mckay_arrow_name(mid, b)))] = coeff
            if terms:
                on_arrows[mckay_arrow_name(j, s)] = AlgebraElement(quiver, terms)
    d = Differential(quiver, on_arrows)
    return DGModel(
        quiver,
        d,
        provenance="mckay",
        metadata={"m": m, "weights": data.weights, "warnings": data.warnings},
    )


# ---------------------------------------------------------------------------
# The former dgquiver.cy.build_C, kept verbatim as an oracle for the
# restriction of the commutation presentation that replaced it: it lists
# the ascending arrows and the commuting squares with all four corners in
# 1..m-1 by their weights.


def old_build_C(s: SplitModel) -> PresentedAlgebra:
    """The path algebra on the degree-0 ascending arrows modulo the
    commuting squares whose four corners all avoid the deleted vertex."""
    s.require_closure()
    m, weights = s.data.m, s.data.weights
    n = len(weights)
    arrows = []
    for j in range(1, m):
        for i in range(1, n + 1):
            if j + weights[i - 1] <= m - 1:
                arrows.append(Arrow(mckay_arrow_name(j, (i,)), j, j + weights[i - 1], 0, 1))
    quiver = GradedQuiver(tuple(range(1, m)), tuple(arrows))
    relators = []
    for j in range(1, m):
        for k, l in combinations(range(1, n + 1), 2):
            ak, al = weights[k - 1], weights[l - 1]
            if j + ak <= m - 1 and j + al <= m - 1 and j + ak + al <= m - 1:
                relators.append(
                    AlgebraElement(
                        quiver,
                        {
                            Path(j, (mckay_arrow_name(j, (k,)), mckay_arrow_name(j + ak, (l,)))): Fraction(1),
                            Path(j, (mckay_arrow_name(j, (l,)), mckay_arrow_name(j + al, (k,)))): Fraction(-1),
                        },
                    )
                )
    return PresentedAlgebra(quiver, tuple(relators))


# ---------------------------------------------------------------------------
# The former dgquiver.cy.build_omega_tilde, kept verbatim with the
# omega_gen_name it called, as an oracle for the subset table that
# replaced them: it recomputes each name, d(S) and shuffle sign for every
# generator and split.


def omega_gen_name(j: int, subset: tuple[int, ...]) -> str:
    return f"w{j}_{_subset_name(subset)}" if subset else f"w{j}_e"


def old_build_omega_tilde(s: SplitModel) -> OmegaTilde:
    """Generators w_{j,S} for proper S with j + d(S) <= m-1, with the
    differential induced by d(Db) = -D(db) + [b, g] on the cone of the
    noncommutative differentials."""
    s.require_closure()
    data = s.data
    m, n = data.m, data.n
    gens = []
    for j in range(1, m):
        for size in range(n):  # proper subsets only
            for sub in combinations(range(1, n + 1), size):
                if j + subset_weight(data, sub) <= m - 1:
                    gens.append(OmegaGenerator(omega_gen_name(j, sub), j, sub, j + subset_weight(data, sub), -len(sub)))
    d_on: dict[str, dict[Word, Scalar]] = {}
    for g in gens:
        el: dict[Word, Scalar] = {}
        sset = set(g.subset)
        for size_a in range(len(g.subset) + 1):
            for a in combinations(g.subset, size_a):
                b = tuple(sorted(sset - set(a)))
                eps = shuffle_sign(a, b)
                mid = g.vertex + subset_weight(data, a)
                if b:  # w_{j,A} . x_{mid,B}
                    add_term(el, (omega_gen_name(g.vertex, a), mckay_arrow_name(mid, b)), (-1) ** len(a) * eps)
                if a:  # - x_{j,A} . w_{mid,B}
                    add_term(el, (mckay_arrow_name(g.vertex, a), omega_gen_name(mid, b)), -eps)
        if el:
            d_on[g.name] = el
    return OmegaTilde(s, tuple(gens), d_on)
