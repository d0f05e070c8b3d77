"""Presented algebras: quadratic data for Koszul constructions and
general relator presentations for H^0 comparisons."""

from __future__ import annotations

from dataclasses import dataclass

from .core import AlgebraElement, GradedQuiver, Vertex, restrict
from .errors import InvalidInputError


def _check_relator(quiver: GradedQuiver, r: AlgebraElement):
    if r.quiver != quiver:
        raise InvalidInputError("relator lives over a different quiver")
    if not r.terms:
        raise InvalidInputError("zero relator")
    for p in r.terms:
        if not quiver.is_valid_path(p):
            raise InvalidInputError(f"relator term {p} is not a path of the quiver")
    r.endpoints()  # raises unless component-pure
    r.adeg()  # raises unless Adams-homogeneous


def check_quadratic(quiver: GradedQuiver, relators: tuple[AlgebraElement, ...]):
    """Raise unless every arrow has degree (0, 1) and every relator term length 2."""
    for a in quiver.arrows:
        if a.hdeg != 0 or a.adeg != 1:
            raise InvalidInputError(f"arrow {a.name}: quadratic input needs hdeg 0, adeg 1")
    if any(len(p.arrows) != 2 for r in relators for p in r.terms):
        raise InvalidInputError("quadratic relators must be length-2")


@dataclass(frozen=True)
class PresentedAlgebra:
    """kQ / (relators) for a quiver concentrated in hdeg 0.

    Relators are component-pure and Adams-homogeneous but may have any
    path length.
    """

    quiver: GradedQuiver
    relators: tuple[AlgebraElement, ...]

    def __post_init__(self):
        for a in self.quiver.arrows:
            if a.hdeg != 0:
                raise InvalidInputError(f"arrow {a.name}: presented algebras live in hdeg 0")
        for r in self.relators:
            _check_relator(self.quiver, r)

    def delete_vertex(self, v: Vertex) -> "PresentedAlgebra":
        """Quotient by the two-sided ideal of the idempotent e_v: the
        presentation restricted to the quiver without v."""
        return self.restricted(self.quiver.without(v))

    def restricted(self, sub: GradedQuiver) -> "PresentedAlgebra":
        """The path algebra of the subquiver sub modulo the relators
        restricted to sub (core.restrict); relators that lose all their
        terms disappear."""
        images = (restrict(r, sub) for r in self.relators)
        return PresentedAlgebra(sub, tuple(r for r in images if r))


class QuadraticPresentation(PresentedAlgebra):
    """T_l V / (R) with V the arrow bimodule of a degree-(0,1) quiver."""

    def __post_init__(self):
        super().__post_init__()
        check_quadratic(self.quiver, self.relators)
