"""The ascending/descending split of a deleted McKay model under the
weight-sum condition sum(a_i) = m, the commuting-square algebra C, the
bimodule of noncommutative differentials with its differential, and the
pairing element omega with its three verification properties.

A bimodule term u.g.v is the flat word u + (g,) + v over the arrow
names and the generator names (w..., disjoint from the arrow names x...),
with exactly one generator letter.  The bimodule elements,
d_on_generators among them, and the trace elements g (x) word, read as
the word (g,) + word, are {word: coefficient} with int coefficients while
integral.  OmegaTilde.d is the deleted McKay model's own Leibniz loop
(differential.leibniz) with d_on_generators added as the images of the
generator letters; once closure holds that is the ascending model's d on
ascending words.  The d^2 = 0 check applies OmegaTilde.d twice, and the
closedness check of omega applies it to each term g.word and rotates the
result."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .core import GradedQuiver, Scalar, Vertex, WordIds, add_term
from .differential import DGModel, leibniz
from .errors import InvalidInputError, failed, passed
from .homology import Word, cohomology_dims, truncated_dims
from .koszul import _MCKAY_NAME, McKayData, _commuting_squares, _jn_series, _subset_table, deleted_mckay_model
from .presentations import PresentedAlgebra


@dataclass(frozen=True)
class SplitModel:
    model: DGModel  # the deleted McKay model
    data: McKayData
    ascending: frozenset[str]
    descending: frozenset[str]
    closure: dict

    @property
    def closure_holds(self) -> bool:
        return self.closure["status"] == "pass"

    def require_closure(self):
        if sum(self.data.weights) != self.data.m:
            raise InvalidInputError("condition (6.6) fails: sum of weights != m")
        if not self.closure_holds:
            raise InvalidInputError(f"split closure violated: {self.closure['witness']}")

    @cached_property
    def _table(self) -> tuple:
        """(the subsets S of 1..n, their weights, their splits, and per
        vertex j the names w_{j,S} and the names x_{j,S}, all by the index
        of S): koszul._subset_table with the names of the generators of ω̃
        and of the arrows, made once per split model, for build_omega_tilde
        and _omega_element."""
        subsets, digits, weight, splits = _subset_table(self.data.weights, self.data.n)
        w = [[f"w{j}_{s or 'e'}" for s in digits] for j in range(self.data.m)]
        x = [[_MCKAY_NAME.format(j=j, s=s) for s in digits] for j in range(self.data.m)]
        return subsets, weight, splits, w, x

    def ascending_model(self) -> DGModel:
        """The ascending sub-DG-algebra, valid once closure holds."""
        self.require_closure()
        sub = _ascending(self.model.quiver, self.ascending)
        return DGModel(sub, self.model.differential.restricted(sub), provenance="ascending")


def _ascending(q: GradedQuiver, ascending: frozenset[str]) -> GradedQuiver:
    """The subquiver of q on all its vertices and its ascending arrows."""
    return GradedQuiver(q.vertices, tuple(a for a in q.arrows if a.name in ascending))


def split(model: DGModel, data: McKayData) -> SplitModel:
    """Classify arrows as ascending (integer target > source in 1..m-1)
    or descending, and check that both halves are closed under d:
    d(ascending) uses ascending arrows only, d(descending) has exactly
    one descending factor per term.  Closure is not the weight-sum
    condition: it fails on (2; 0,1,1), whose sum is m, and holds on
    (3; 1,1), whose sum is not, so cy_check tests the sum on its own."""
    q = model.quiver
    asc, desc = set(), set()
    for a in q.arrows:
        (asc if a.target > a.source else desc).add(a.name)

    witness = None
    for a in q.arrows:
        da = model.differential.on_arrows.get(a.name)
        if da is None:
            continue
        for p in da.terms:
            n_desc = sum(1 for name in p.arrows if name in desc)
            if a.name in asc and n_desc:
                witness = {"arrow": a.name, "term": list(p.arrows), "reason": "ascending arrow with descending term"}
                break
            if a.name in desc and n_desc != 1:
                witness = {
                    "arrow": a.name,
                    "term": list(p.arrows),
                    "reason": f"descending arrow with {n_desc} descending factors",
                }
                break
        if witness:
            break
    closure = passed("split_closure") if witness is None else failed("split_closure", **witness)
    return SplitModel(model, data, frozenset(asc), frozenset(desc), closure)


def build_split(data: McKayData) -> SplitModel:
    """Convenience: the McKay model without vertex 0, split."""
    return split(deleted_mckay_model(data, 0), data)


def build_C(s: SplitModel) -> PresentedAlgebra:
    """The path algebra on the degree-0 ascending arrows modulo the
    commuting squares whose four corners all avoid the deleted vertex:
    the commutation presentation without vertex 0, built without it,
    restricted to its ascending arrows.  A square keeps both terms or
    neither: once closure holds every weight is >= 1, so each term is an
    ascending path exactly when j + a_k + a_l <= m - 1."""
    s.require_closure()
    pres = _commuting_squares(s.data, 0)
    return pres.restricted(_ascending(pres.quiver, s.ascending))


def check_C_koszul_and_model(s: SplitModel, nadams: int) -> dict:
    """Two truncated checks behind the Koszulity lemma: the ascending
    sub-DG-algebra has cohomology concentrated in hdeg 0 with the graded
    dimensions of C, and its generator bidegrees match the J_n table of
    the quadratic presentation of C."""
    s.require_closure()
    c = build_C(s)
    asc = s.ascending_model()

    dims = cohomology_dims(asc, -nadams, nadams, by_component=True)
    negative = {str(k): v for k, v in dims.items() if k[0] < 0}
    if negative:
        return failed("c_koszul", nonzero_negative_cohomology=negative)
    h0 = {(st, tt, a): v for (h, a, st, tt), v in dims.items() if h == 0}
    c_dims = truncated_dims(c, nadams)
    if h0 != c_dims:
        diff = {
            str(k): (h0.get(k, 0), c_dims.get(k, 0))
            for k in sorted(set(h0) | set(c_dims), key=lambda k: (k[2], k[0], k[1]))
            if h0.get(k, 0) != c_dims.get(k, 0)
        }
        return failed("c_koszul", h0_vs_C=diff)

    # C is quadratic by construction, arrows of degree (0, 1) and relators
    # of length 2, as _jn_series checks
    n = len(s.data.weights)
    ids = WordIds(c.quiver)
    for deg, basis in zip(range(1, n + 2), _jn_series(c)):
        jn: dict[tuple[Vertex, Vertex], int] = defaultdict(int)
        for b in basis:
            p = ids.path(min(b))  # every word of a row has its pivot's endpoints
            jn[(p.start, c.quiver.path_target(p))] += 1
        gens: dict[tuple[Vertex, Vertex], int] = defaultdict(int)
        for a in asc.quiver.arrows:
            if a.adeg == deg:
                gens[(a.source, a.target)] += 1
        if dict(jn) != dict(gens):
            return failed(
                "c_koszul",
                degree=deg,
                J_n={str(k): v for k, v in jn.items()},
                generators={str(k): v for k, v in gens.items()},
            )
    return passed("c_koszul", nadams=nadams)


# ---------------------------------------------------------------------------
# the bimodule of noncommutative differentials over the ascending algebra


@dataclass(frozen=True)
class OmegaGenerator:
    name: str
    vertex: int  # source j
    subset: tuple[int, ...]  # proper subset of 1..n, possibly empty
    target: int  # j + d(S), no reduction needed
    hdeg: int  # -|S|


def _parity(word: Word, odd: frozenset[str]) -> int:
    """hdeg(word) mod 2, given the letters of odd hdeg."""
    return sum(a in odd for a in word) % 2


@dataclass(frozen=True)
class OmegaTilde:
    """Free bimodule over the ascending algebra on generators w_{j,S}
    (S a proper subset, endpoints inside 1..m-1), where w_{j,empty} is
    the central degree-0 generator at j and w_{j,S} is the class of the
    noncommutative differential of the ascending arrow x_{j,S}."""

    split_model: SplitModel
    generators: tuple[OmegaGenerator, ...]
    d_on_generators: dict[str, dict[Word, Scalar]]

    @cached_property
    def by_name(self) -> dict[str, OmegaGenerator]:
        return {g.name: g for g in self.generators}

    @cached_property
    def _letters(self) -> tuple[dict[str, tuple[tuple[Word, Scalar], ...]], frozenset[str]]:
        """(the images of the letters under d, the letters of odd hdeg),
        the letters being the deleted model's arrows and the generators."""
        images, odd_arrows = self.split_model.model.differential._compiled
        images = {**images, **{g: tuple(el.items()) for g, el in self.d_on_generators.items()}}
        return images, odd_arrows | {g.name for g in self.generators if g.hdeg % 2}

    def d(self, el: dict[Word, Scalar]) -> dict[Word, Scalar]:
        """The bimodule Leibniz extension of d_on_generators,
        d(u.g.v) = d(u).g.v + (-1)^|u| u.d(g).v + (-1)^(|u|+|g|) u.g.d(v),
        with d on the words u and v that of the deleted McKay model.  On
        the ascending algebra that is the ascending model's d: once
        closure holds, d of an ascending arrow has only ascending terms,
        so by the Leibniz rule so has d of an ascending word, and
        restricting d to the ascending arrows drops no term.  The model's
        d also applies to words with descending arrows, as _trace_d needs."""
        images, odd = self._letters
        out: dict[Word, Scalar] = {}
        for w, c in el.items():
            leibniz(w, images, odd, out, c)
        return out

    def check_d_squared(self) -> dict:
        for g in self.generators:
            if self.d(self.d({(g.name,): 1})):
                return failed("omega_tilde_d_squared", generator=g.name)
        return passed("omega_tilde_d_squared")


def build_omega_tilde(s: SplitModel) -> OmegaTilde:
    """Generators w_{j,S} for proper S with j + d(S) <= m-1, with the
    differential induced by d(Db) = -D(db) + [b, g] on the cone of the
    noncommutative differentials, read off the split model's subset
    table."""
    s.require_closure()
    m = s.data.m
    subsets, weight, splits, w, x = s._table
    gens = []
    d_on: dict[str, dict[Word, Scalar]] = {}
    for j in range(1, m):
        for k, sub in enumerate(subsets[:-1]):  # proper subsets only
            if j + weight[k] > m - 1:
                continue
            gens.append(OmegaGenerator(w[j][k], j, sub, j + weight[k], -len(sub)))
            el: dict[Word, Scalar] = {}
            for a, b, eps in splits[k]:  # index 0 is the empty set
                mid = j + weight[a]
                if b:  # (-1)^|A| w_{j,A} . x_{mid,B}
                    add_term(el, (w[j][a], x[mid][b]), -eps if len(subsets[a]) % 2 else eps)
                if a:  # - x_{j,A} . w_{mid,B}
                    add_term(el, (x[j][a], w[mid][b]), -eps)
            if el:
                d_on[w[j][k]] = el
    return OmegaTilde(s, tuple(gens), d_on)


# ---------------------------------------------------------------------------
# the pairing element omega in OmegaTilde (x) D, up to super-cyclic rotation


def _omega_element(ot: OmegaTilde) -> dict[Word, Scalar]:
    subsets, _weight, splits, _w, x = ot.split_model._table
    # the splits of the full set pair each S with its complement C and eps(S, C)
    complement = {subsets[a]: (b, eps) for a, b, eps in splits[-1]}
    el: dict[Word, Scalar] = {}
    for g in ot.generators:
        c, eps = complement[g.subset]
        add_term(el, (g.name, x[g.target][c]), eps if len(g.subset) % 2 else -eps)
    return el


def _trace_d(ot: OmegaTilde, el: dict[Word, Scalar]) -> dict[Word, Scalar]:
    """Differential on OmegaTilde (x)_{E^e} D: ot.d of the bimodule
    element g.word, each term u.g2.v then rotated to the canonical form
    g2 (x) v.u with the Koszul sign (-1)^{|u| (|g2| + |v|)} of moving u
    across the rest of the term."""
    odd = ot._letters[1]
    out: dict[Word, Scalar] = {}
    for w, c in ot.d(el).items():
        i = next(i for i, a in enumerate(w) if a in ot.by_name)
        u, rest = w[:i], w[i:]
        add_term(out, rest + u, -c if _parity(u, odd) and _parity(rest, odd) else c)
    return out


def build_and_check_omega(ot: OmegaTilde) -> dict:
    """Construct omega in ot and verify: every term has hdeg -n+1,
    d(omega)=0 in the super-cyclic trace space, and the generator pairing
    is a perfect matching with unit coefficients against the descending
    arrows."""
    s = ot.split_model
    s.require_closure()
    n = s.data.n
    q = s.model.quiver
    omega = _omega_element(ot)
    by_name = ot.by_name

    for (gname, *word), c in omega.items():
        h = by_name[gname].hdeg + sum(q.arrow(a).hdeg for a in word)
        if h != -n + 1:
            return failed("omega", term=(gname, word), hdeg=h, expected=-n + 1)

    residue = _trace_d(ot, omega)
    if residue:
        term, c = next(iter(sorted(residue.items())))
        return failed("omega", d_omega_term=(term[0], list(term[1:])), coeff=str(c))

    pairing: dict[str, tuple[str, Scalar]] = {}
    for (gname, *word), c in omega.items():
        if len(word) != 1 or gname in pairing:
            return failed("omega", reason="pairing is not a matching", term=(gname, word))
        pairing[gname] = (word[0], c)
    partners = [p for p, _c in pairing.values()]
    if set(pairing) != {g.name for g in ot.generators}:
        return failed("omega", reason="some generator unpaired")
    if sorted(partners) != sorted(s.descending):
        return failed("omega", reason="pairing not onto the descending arrows")
    if any(abs(c) != 1 for _p, c in pairing.values()):
        return failed("omega", reason="non-unit pairing coefficient")

    return passed("omega", degree=-n + 1, closed=True, nondegenerate=True, pairs=len(pairing))


def cy_check(data: McKayData, nadams: int = 5) -> dict:
    """Full pipeline behind the tensor-algebra description: split
    closure, truncated Koszulity of C, and the omega properties.

    Only the finitely checkable proof obligations are certified:
    isomorphism-level statements are reported as 'verified at truncation
    via the listed checks', never as abstract isomorphisms.
    """
    if nadams < 1:
        raise InvalidInputError(f"the Adams bound must be >= 1, got {nadams}")
    s = build_split(data)
    report: dict = {"m": data.m, "weights": list(data.weights), "closure": s.closure}
    if sum(data.weights) != data.m:
        report["status"] = "fail"
        report["reason"] = "condition (6.6) fails: sum of weights != m"
        report["weight_sum"] = failed("weight_sum", m=data.m, sum=sum(data.weights))
        return report
    if not s.closure_holds:
        report["status"] = "fail"
        return report
    report["koszul_truncated"] = check_C_koszul_and_model(s, nadams)
    ot = build_omega_tilde(s)
    report["omega_tilde_d_squared"] = ot.check_d_squared()
    report["omega"] = build_and_check_omega(ot)
    ok = all(
        report[k]["status"] == "pass"
        for k in ("closure", "koszul_truncated", "omega_tilde_d_squared", "omega")
    )
    report["status"] = "pass" if ok else "fail"
    report["note"] = (
        "isomorphism claims certified only through these finite checks at the stated truncation"
    )
    return report
