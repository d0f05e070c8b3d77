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
from .errors import InvalidInputError, failed, passed


def leibniz(word: tuple[str, ...], images: Mapping[str, tuple], odd: frozenset[str], out: dict, c: Scalar = 1) -> None:
    """Add c times d of the word, by the graded Leibniz rule, into out,
    given {letter: ((mid word, coeff), ...)} for the letters of nonzero d
    and the letters of odd hdeg; coefficients stay int while integral."""
    for i, name in enumerate(word):
        image = images.get(name)
        if image:
            pre = word[:i]
            post = word[i + 1 :]
            for mid, x in image:
                add_term(out, pre + mid + post, c * x)
        if name in odd:
            c = -c


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
    def _grading(self) -> dict:
        """check_grading's report, made once per differential."""
        q = self.quiver
        for a in q.arrows:
            da = self.on_arrows.get(a.name)
            if da is None or not da.terms:
                continue
            for p in da.terms:
                if not q.is_valid_path(p):
                    return failed("grading", arrow=a.name, reason=f"term {p} is not a path of the quiver")
                if p.start != a.source or q.path_target(p) != a.target:
                    return failed("grading", arrow=a.name, reason=f"term {p} has wrong endpoints")
                if q.path_hdeg(p) != a.hdeg + 1:
                    return failed("grading", arrow=a.name, reason=f"term {p} has hdeg {q.path_hdeg(p)}, want {a.hdeg + 1}")
                if q.path_adeg(p) != a.adeg:
                    return failed("grading", arrow=a.name, reason=f"term {p} has adeg {q.path_adeg(p)}, want {a.adeg}")
                if len(p.arrows) < 2:
                    return failed("grading", arrow=a.name, reason=f"term {p} has length {len(p.arrows)} < 2 (minimality)")
        return passed("grading")

    @cached_property
    def _leads(self) -> tuple[frozenset[str], dict[str, tuple[str, ...]]]:
        """(the arrows a whose least term of d(a) starts below a, {a: the
        least term of d(a)} for every arrow with d(a) != 0).  The lead
        lemma in homology.cohomology_dims holds for every d that passes
        check_grading, its one judge: otherwise this raises
        InvalidInputError with check_grading's witness."""
        report = self._grading
        if report["status"] != "pass":
            witness = report["witness"]
            raise InvalidInputError(f"d fails the grading check at arrow {witness['arrow']}: {witness['reason']}")
        least = {name: min(mid for mid, _c in image) for name, image in self._compiled[0].items()}
        return frozenset(name for name, mid in least.items() if mid[0] < name), least

    def apply_to_word(self, word: tuple[str, ...]) -> dict[tuple[str, ...], Scalar]:
        """d of the path with these arrows (leibniz), keyed by arrow words
        (every term starts where the path does)."""
        out: dict[tuple[str, ...], Scalar] = {}
        leibniz(word, *self._compiled, out)
        return out

    def apply(self, u: AlgebraElement) -> AlgebraElement:
        """d(u) by the Leibniz rule, accumulated in place on arrow words,
        one sum per start vertex (leibniz); the AlgebraElement is built
        once, from what does not cancel."""
        if not u.is_hdeg_homogeneous():
            raise InvalidInputError("d applies to hdeg-homogeneous elements only")
        images, odd = self._compiled
        out: dict[Vertex, dict[tuple[str, ...], Scalar]] = {}
        for p, c in u.terms.items():
            leibniz(p.arrows, images, odd, out.setdefault(p.start, {}), c)
        return AlgebraElement(self.quiver, {Path(s, w): c for s, words in out.items() for w, c in words.items()})

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

    For every arrow a, each term of d(a) must be a path of the quiver
    with a's endpoints, have hdeg(a)+1 and adeg(a), and have length >= 2
    (minimality).  This is the one judge of a well-formed d:
    Differential._leads, and so homology.cohomology_dims, refuses every
    d it fails.  The report is made once per Differential and shared by
    every caller (Differential._grading).
    """
    return d._grading


def check_d_squared(d: Differential) -> dict:
    """Check d(d(a)) = 0 for every arrow.

    By the Leibniz rule a vanishing d^2 on arrows extends to all paths,
    so this check is complete.
    """
    for a in d.quiver.arrows:
        residue = d.apply(d.of_arrow(a.name))
        if residue:
            return failed("d_squared", arrow=a.name, residue=repr(residue))
    return passed("d_squared", note="verified on arrows; Leibniz extends the identity to all paths")
