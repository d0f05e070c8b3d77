"""Quivers with superpotential: cyclic derivatives, the Ginzburg DG
algebra, the Jacobian presentation and the vertex-deletion restriction."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import AlgebraElement, Arrow, GradedQuiver, Path, Vertex, add_term, restrict
from .differential import Differential, DGModel
from .errors import InvalidInputError
from .presentations import PresentedAlgebra


def _rotations(p: Path, quiver: GradedQuiver):
    for i in range(len(p.arrows)):
        arrows = p.arrows[i:] + p.arrows[:i]
        yield Path(quiver.arrow(arrows[0]).source, arrows)


def _canonical_rotation(p: Path, quiver: GradedQuiver) -> Path:
    if not p.arrows:
        return p
    return min(_rotations(p, quiver), key=lambda r: r.arrows)


@dataclass(frozen=True)
class Superpotential:
    """A rational combination of cycles, normalized so that every cycle
    is stored in its lexicographically least rotation."""

    quiver: GradedQuiver
    terms: Mapping[Path, Fraction]

    def __post_init__(self):
        for a in self.quiver.arrows:
            if a.hdeg != 0:
                raise InvalidInputError("superpotential quivers live in hdeg 0")
        norm: dict[Path, Fraction] = {}
        for p, c in self.terms.items():
            if not self.quiver.is_valid_path(p):
                raise InvalidInputError(f"invalid path {p}")
            if self.quiver.path_target(p) != p.start or not p.arrows:
                raise InvalidInputError(f"superpotential term {p} is not a cycle")
            add_term(norm, _canonical_rotation(p, self.quiver), Fraction(c))
        object.__setattr__(self, "terms", norm)

    def as_element(self) -> AlgebraElement:
        return AlgebraElement(self.quiver, self.terms)

    def is_adams_homogeneous(self) -> bool:
        return len({self.quiver.path_adeg(p) for p in self.terms}) <= 1


def cyclic_derivative(w: Superpotential, arrow: str) -> AlgebraElement:
    """Sum over occurrences p = u a v of cycles of w of the paths v u."""
    a = w.quiver.arrow(arrow)
    out: dict[Path, Fraction] = {}
    for p, c in w.terms.items():
        for i, name in enumerate(p.arrows):
            if name != arrow:
                continue
            add_term(out, Path(a.target, p.arrows[i + 1 :] + p.arrows[:i]), c)
    return AlgebraElement(w.quiver, out)


def star_name(arrow: str) -> str:
    return arrow + "_star"


def loop_name(v: Vertex) -> str:
    return f"c_{v}"


def ginzburg_model(w: Superpotential) -> DGModel:
    """Ginzburg DG algebra of (Q, w): arrows a (hdeg 0), reversed arrows
    a* (hdeg -1) with d(a*) = dw/da, and loops c_v (hdeg -2) with
    d(c_v) = e_v (sum_a [a*, a]) e_v.

    When w is Adams-homogeneous of degree L the duals get adeg L-1 and
    the loops adeg L, making d Adams-homogeneous; otherwise every new
    generator gets the path-length grading (adeg 1 resp. 2) and Adams
    truncation degenerates to path-length truncation.
    """
    q = w.quiver
    homogeneous = w.is_adams_homogeneous()
    if w.terms and homogeneous:
        ell = q.path_adeg(next(iter(w.terms)))
    else:
        ell = 2
    star_adeg = max(ell - 1, 1)
    arrows = list(q.arrows)
    arrows += [
        Arrow(star_name(a.name), a.target, a.source, -1, star_adeg, label=f"{a.label or a.name}*")
        for a in q.arrows
    ]
    arrows += [Arrow(loop_name(v), v, v, -2, star_adeg + 1, label=f"c_{v}") for v in q.vertices]
    tq = GradedQuiver(q.vertices, tuple(arrows))

    def lift(el: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(tq, el.terms)

    on_arrows: dict[str, AlgebraElement] = {}
    for a in q.arrows:
        da = cyclic_derivative(w, a.name)
        if da:
            on_arrows[star_name(a.name)] = lift(da)
    # d(c_v) = e_v (sum_a a*.a - a.a*) e_v
    for v in q.vertices:
        terms: dict[Path, int] = {}
        for a in q.arrows:
            if a.target == v:  # a* then a is a cycle at target(a)
                p = Path(v, (star_name(a.name), a.name))
                add_term(terms, p, 1)
            if a.source == v:  # a then a* is a cycle at source(a)
                p = Path(v, (a.name, star_name(a.name)))
                add_term(terms, p, -1)
        el = AlgebraElement(tq, terms)
        if el:
            on_arrows[loop_name(v)] = el
    d = Differential(tq, on_arrows)
    return DGModel(
        tq,
        d,
        provenance="ginzburg",
        metadata={"adams_homogeneous": homogeneous, "potential_adeg": ell if w.terms and homogeneous else None},
    )


def jacobian_presentation(w: Superpotential) -> PresentedAlgebra:
    """kQ modulo the cyclic derivatives of w."""
    relators = []
    for a in sorted(w.quiver.arrows, key=lambda a: a.name):
        da = cyclic_derivative(w, a.name)
        if da:
            relators.append(da)
    return PresentedAlgebra(w.quiver, tuple(relators))


def restrict_potential(w: Superpotential, v: Vertex) -> Superpotential:
    """(Q^0, w^0): drop v, adjacent arrows, and cycles through v."""
    q0 = w.quiver.without(v)
    return Superpotential(q0, restrict(w.as_element(), q0).terms)
