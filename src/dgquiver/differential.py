"""Differentials on graded path algebras.

A differential is defined on arrows and extended to paths by the graded
Leibniz rule

    d(a1 ... ak) = sum_i (-1)^{hdeg(a1...a_{i-1})} a1...a_{i-1} d(a_i) a_{i+1}...ak

with d(e_v) = 0.  leibniz is the one loop of this rule, on words over any
letters: a model's arrows, and in cy also the bimodule's generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .core import AlgebraElement, GradedQuiver, Path, Scalar, Vertex, add_term, restrict
from .errors import InvalidInputError


def leibniz(word: tuple[str, ...], images: Mapping[str, tuple], odd: frozenset[str]) -> dict[tuple[str, ...], Scalar]:
    """d of the word by the graded Leibniz rule, given {letter: ((mid
    word, coeff), ...)} for the letters of nonzero d and the letters of
    odd hdeg; coefficients stay int while integral."""
    out: dict[tuple[str, ...], Scalar] = {}
    sign = 1
    for i, name in enumerate(word):
        image = images.get(name)
        if image:
            pre = word[:i]
            post = word[i + 1 :]
            for mid, c in image:
                add_term(out, pre + mid + post, c if sign > 0 else -c)
        if name in odd:
            sign = -sign
    return out


@dataclass(frozen=True)
class Differential:
    quiver: GradedQuiver
    on_arrows: Mapping[str, AlgebraElement]

    def __post_init__(self):
        for name in self.on_arrows:
            self.quiver.arrow(name)  # raises on unknown ids

    def of_arrow(self, name: str) -> AlgebraElement:
        da = self.on_arrows.get(name)
        return da if da is not None else self.quiver.zero()

    def restricted(self, sub: GradedQuiver) -> "Differential":
        """d on the arrows of the subquiver sub, each d(a) restricted to
        sub (core.restrict); the arrows whose d(a) vanishes drop out."""
        images = ((name, restrict(da, sub)) for name, da in self.on_arrows.items() if sub.has_arrow(name))
        return Differential(sub, {name: da for name, da in images if da})

    @cached_property
    def _compiled(self) -> tuple[dict[str, tuple[tuple[tuple[str, ...], Scalar], ...]], frozenset[str]]:
        """({arrow: ((mid arrows, coeff), ...)}, odd arrows)."""
        images = {
            name: tuple((mid.arrows, c) for mid, c in da.terms.items())
            for name, da in self.on_arrows.items()
            if da.terms
        }
        return images, frozenset(a.name for a in self.quiver.arrows if a.hdeg % 2)

    @cached_property
    def _leads(self) -> tuple[frozenset[str], dict[str, tuple[str, ...]]]:
        """(the arrows a with a term of d(a) that starts below a, {a: the
        least term of d(a)} for every arrow with d(a) != 0), once the
        hypothesis of the lead lemma in homology.cohomology_dims is
        checked: no term of d(a) is empty, starts with a or is a proper
        prefix of another; otherwise this raises InvalidInputError."""
        smaller, least = set(), {}
        for name in self._compiled[0]:
            mids = tuple(self.apply_to_word((name,)))
            if any(not m or m[0] == name or any(m != n and m == n[: len(m)] for n in mids) for m in mids):
                raise InvalidInputError(f"d({name}) has a term that is empty, starts with {name} or prefixes another")
            if mids:
                least[name] = min(mids)
                if least[name][0] < name:
                    smaller.add(name)
        return frozenset(smaller), least

    def apply_to_word(self, word: tuple[str, ...]) -> dict[tuple[str, ...], Scalar]:
        """d of the path with these arrows (leibniz), keyed by arrow words
        (every term starts where the path does)."""
        return leibniz(word, *self._compiled)

    def apply(self, u: AlgebraElement) -> AlgebraElement:
        """d(u) by the Leibniz rule, accumulated on (start, arrow word)
        keys (apply_to_word); the AlgebraElement is built once, from what
        does not cancel."""
        if not u.is_hdeg_homogeneous():
            raise InvalidInputError("d applies to hdeg-homogeneous elements only")
        out: dict[tuple[Vertex, tuple[str, ...]], Scalar] = {}
        for p, c in u.terms.items():
            for w, v in self.apply_to_word(p.arrows).items():
                add_term(out, (p.start, w), c * v)
        return AlgebraElement(self.quiver, {Path(*key): c for key, c in out.items()})

    def __call__(self, u: AlgebraElement) -> AlgebraElement:
        return self.apply(u)


@dataclass(frozen=True)
class DGModel:
    """A graded quiver together with a differential on its path algebra."""

    quiver: GradedQuiver
    differential: Differential
    provenance: str = "general"
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.differential.quiver != self.quiver:
            raise InvalidInputError("differential defined over a different quiver")

    def d(self, u: AlgebraElement) -> AlgebraElement:
        return self.differential.apply(u)


def check_grading(d: Differential) -> dict:
    """Arrow-by-arrow check of the differential invariants.

    For every arrow a, each path of d(a) must share a's endpoints, have
    hdeg(a)+1 and adeg(a), and have length >= 2 (minimality).
    """
    q = d.quiver
    for a in q.arrows:
        da = d.on_arrows.get(a.name)
        if da is None or not da.terms:
            continue
        for p in da.terms:
            if p.start != a.source or q.path_target(p) != a.target:
                return _fail("grading", a.name, f"term {p} has wrong endpoints")
            if q.path_hdeg(p) != a.hdeg + 1:
                return _fail("grading", a.name, f"term {p} has hdeg {q.path_hdeg(p)}, want {a.hdeg + 1}")
            if q.path_adeg(p) != a.adeg:
                return _fail("grading", a.name, f"term {p} has adeg {q.path_adeg(p)}, want {a.adeg}")
            if len(p.arrows) < 2:
                return _fail("grading", a.name, f"term {p} has length {len(p.arrows)} < 2 (minimality)")
    return {"check": "grading", "status": "pass"}


def check_d_squared(d: Differential) -> dict:
    """Check d(d(a)) = 0 for every arrow.

    By the Leibniz rule a vanishing d^2 on arrows extends to all paths,
    so this check is complete.
    """
    for a in d.quiver.arrows:
        residue = d.apply(d.of_arrow(a.name))
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


def _fail(check: str, arrow: str, reason: str) -> dict:
    return {"check": check, "status": "fail", "witness": {"arrow": arrow, "reason": reason}}
