"""Graded quivers, paths and exact-rational path algebra elements.

One rule holds every coefficient: an ``int`` when it is integral, a
``fractions.Fraction`` with a denominator other than 1 otherwise.
``exact`` decides it, and only here: ``AlgebraElement`` applies it to
each coefficient it is built from and to the factor of ``scale``, and
``Superpotential`` to each sum of rotations.  It refuses anything else,
a float, a bool or a str among them, so there is no floating point
anywhere.  Every other module takes the rule as given and converts no
coefficient: the hot paths (``Differential.apply_to_word``, the normal
forms of ``truncated_dims``, the J_n rows of ``koszul``, the bimodule of
``cy``) use element coefficients as they are, and ``linalg`` returns its
rows in the same form.
Elements are stored sparsely as ``{Path: coefficient}`` with a canonical
ordering of paths so that iteration and printing are deterministic.
Every sparse sum, whatever its keys, accumulates through ``add_term``;
only the elimination kernel of ``linalg`` keeps its own loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterator, Mapping, Union

from .errors import InvalidInputError

Vertex = Union[int, str]
Scalar = Union[int, Fraction]


def exact(c: object) -> Scalar:
    """c as a coefficient: an int as it is, an integral Fraction as an
    int and any other Fraction as it is; anything else raises."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    raise InvalidInputError(f"coefficient {c!r} is neither an int nor a Fraction")


def vertex_key(v: Vertex):
    """Total order on vertex ids, valid for mixed int/str vertex sets."""
    if isinstance(v, bool):
        raise InvalidInputError(f"bad vertex id {v!r}")
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, str(v))


@dataclass(frozen=True)
class Arrow:
    name: str
    source: Vertex
    target: Vertex
    hdeg: int
    adeg: int
    label: str = ""

    def __post_init__(self):
        if self.hdeg > 0:
            raise InvalidInputError(f"arrow {self.name}: hdeg must be <= 0, got {self.hdeg}")
        if self.adeg < 1:
            raise InvalidInputError(f"arrow {self.name}: adeg must be >= 1, got {self.adeg}")


@dataclass(frozen=True)
class Path:
    """A composable left-to-right sequence of arrow names.

    The empty sequence is the idempotent path e_v at ``start``.
    """

    start: Vertex
    arrows: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.arrows)

    def sort_key(self):
        return (len(self.arrows), vertex_key(self.start), self.arrows)


@dataclass(frozen=True)
class GradedQuiver:
    vertices: tuple[Vertex, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInputError("duplicate vertex ids")
        vset = set(self.vertices)
        seen = set()
        for a in self.arrows:
            if a.name in seen:
                raise InvalidInputError(f"duplicate arrow id {a.name!r}")
            seen.add(a.name)
            if a.source not in vset or a.target not in vset:
                raise InvalidInputError(f"arrow {a.name}: endpoint not a vertex")

    @cached_property
    def _by_name(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def _out(self) -> dict[Vertex, tuple[Arrow, ...]]:
        out: dict[Vertex, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
        return {v: tuple(lst) for v, lst in out.items()}

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidInputError(f"unknown arrow id {name!r}") from None

    def has_arrow(self, name: str) -> bool:
        return name in self._by_name

    def out_arrows(self, v: Vertex) -> tuple[Arrow, ...]:
        return self._out[v]

    def without(self, v: Vertex) -> "GradedQuiver":
        """The full subquiver on every vertex but v: v and the arrows at v dropped."""
        if v not in self._out:
            raise InvalidInputError(f"unknown vertex {v!r}")
        rest = tuple(a for a in self.arrows if a.source != v and a.target != v)
        return GradedQuiver(tuple(w for w in self.vertices if w != v), rest)

    # -- path bookkeeping ------------------------------------------------

    def is_valid_path(self, p: Path) -> bool:
        if p.start not in self._out:
            return False
        at = p.start
        for name in p.arrows:
            a = self._by_name.get(name)
            if a is None or a.source != at:
                return False
            at = a.target
        return True

    def path_target(self, p: Path) -> Vertex:
        return self._by_name[p.arrows[-1]].target if p.arrows else p.start

    def path_hdeg(self, p: Path) -> int:
        return sum(self._by_name[n].hdeg for n in p.arrows)

    def path_adeg(self, p: Path) -> int:
        return sum(self._by_name[n].adeg for n in p.arrows)

    def path_vertices(self, p: Path) -> list[Vertex]:
        """All visited vertices, endpoints included."""
        out = [p.start]
        for name in p.arrows:
            out.append(self._by_name[name].target)
        return out

    def compose(self, p: Path, q: Path) -> Path | None:
        """Concatenation p then q; None when endpoints mismatch."""
        if self.path_target(p) != q.start:
            return None
        return Path(p.start, p.arrows + q.arrows)

    # -- element constructors ---------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def idempotent(self, v: Vertex) -> "AlgebraElement":
        if v not in self._out:
            raise InvalidInputError(f"unknown vertex {v!r}")
        return AlgebraElement(self, {Path(v): 1})

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, {Path(v): 1 for v in self.vertices})

    def gen(self, name: str) -> "AlgebraElement":
        a = self.arrow(name)
        return AlgebraElement(self, {Path(a.source, (name,)): 1})

    def element(self, terms: Mapping[Path, Scalar]) -> "AlgebraElement":
        return AlgebraElement(self, terms)


class WordIds:
    """Integer ids of paths that sort as Path.sort_key.

    With B = max(2, number of arrows), rn(x) the rank of the arrow x by
    name and rank(s) that of the vertex s by vertex_key among the V
    vertices, the word w_0...w_{L-1} from s has the id
    (V + rank(s))*B^L + sum_i rn(w_i)*B^(L-1-i), and e_s the id V + rank(s).
    Lemma: the ids of length L lie in [V*B^L, 2V*B^L), below those of
    length L + 1 as B >= 2, and within one length they are base-B
    numerals with the digits V + rank(s), rn(w_0), ..., so they compare
    as (vertex_key(s), word), arrow names being distinct.  So ids order
    as Path.sort_key, distinct paths have distinct ids, and an RREF basis
    over the ids is the one over the paths.  w*y has the id
    id(w)*B + rn(y), and x*w, w of length L, the id id(w) + prepend[x]*B^L
    with prepend[x] = (V + rank(source x))*B + rn(x) - V - rank(target x).
    source(k) reads the start back from the leading digit of k."""

    def __init__(self, quiver: GradedQuiver):
        self.names = sorted(a.name for a in quiver.arrows)  # by rn
        self.rank = {name: i for i, name in enumerate(self.names)}  # rn
        self.base = max(2, len(self.names))
        self.vertices = sorted(quiver.vertices, key=vertex_key)
        self.empty = empty = {v: len(self.vertices) + i for i, v in enumerate(self.vertices)}  # the id of e_v
        self.prepend = {a.name: empty[a.source] * self.base + self.rank[a.name] - empty[a.target] for a in quiver.arrows}

    def of(self, p: Path) -> int:
        return reduce(lambda k, name: k * self.base + self.rank[name], p.arrows, self.empty[p.start])

    def source(self, k: int) -> Vertex:
        n = len(self.vertices)
        while k >= 2 * n:
            k //= self.base
        return self.vertices[k - n]


class AlgebraElement:
    """Finite rational linear combination of composable paths."""

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: GradedQuiver, terms: Mapping[Path, Scalar]):
        clean: dict[Path, Scalar] = {}
        for p, c in terms.items():
            c = exact(c)
            if c:
                clean[p] = c
        self.quiver = quiver
        self.terms = clean

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[Path, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key())

    def __iter__(self) -> Iterator[tuple[Path, Scalar]]:
        return iter(self.sorted_terms())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.quiver == other.quiver and self.terms == other.terms

    def __hash__(self):
        return hash((self.quiver, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for p, c in self.sorted_terms():
            word = "*".join(p.arrows) if p.arrows else f"e_{p.start}"
            bits.append(f"({c})" + word if c != 1 else word)
        return " + ".join(bits)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            add_term(out, p, c)
        return AlgebraElement(self.quiver, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.quiver, {p: -c for p, c in self.terms.items()})

    def scale(self, c: Scalar) -> "AlgebraElement":
        c = exact(c)
        return AlgebraElement(self.quiver, {p: c * v for p, v in self.terms.items()})

    def __rmul__(self, other: Scalar) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return NotImplemented

    def _check_compatible(self, other: "AlgebraElement"):
        if self.quiver != other.quiver:
            raise InvalidInputError("elements live over different quivers")

    # -- degrees -------------------------------------------------------------

    def hdeg(self) -> int | None:
        """Common homological degree, or raises when inhomogeneous.

        Returns None for the zero element (homogeneous of every degree).
        """
        degs = {self.quiver.path_hdeg(p) for p in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InvalidInputError(f"element not hdeg-homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def adeg(self) -> int | None:
        degs = {self.quiver.path_adeg(p) for p in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InvalidInputError(f"element not adeg-homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def is_hdeg_homogeneous(self) -> bool:
        return len({self.quiver.path_hdeg(p) for p in self.terms}) <= 1

    def endpoints(self) -> tuple[Vertex, Vertex] | None:
        """Common (source, target), or raises when mixed; None when zero."""
        ends = {(p.start, self.quiver.path_target(p)) for p in self.terms}
        if not ends:
            return None
        if len(ends) > 1:
            raise InvalidInputError("element is not component-pure")
        return ends.pop()


def multiply(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of path concatenation; mismatches give zero."""
    u._check_compatible(v)
    q = u.quiver
    out: dict[Path, Scalar] = {}
    for p, c in u.terms.items():
        pt = q.path_target(p)
        for r, d in v.terms.items():
            if r.start != pt:
                continue
            add_term(out, Path(p.start, p.arrows + r.arrows), c * d)
    return AlgebraElement(q, out)


def graded_commutator(
    u: AlgebraElement,
    v: AlgebraElement,
    hu: int | None = None,
    hv: int | None = None,
) -> AlgebraElement:
    """[u, v] = uv - (-1)^{hu*hv} vu for hdeg-homogeneous u, v."""
    du = u.hdeg()
    dv = v.hdeg()
    if hu is None:
        hu = du if du is not None else 0
    elif du is not None and du != hu:
        raise InvalidInputError(f"u has hdeg {du}, not {hu}")
    if hv is None:
        hv = dv if dv is not None else 0
    elif dv is not None and dv != hv:
        raise InvalidInputError(f"v has hdeg {dv}, not {hv}")
    sign = -1 if (hu * hv) % 2 else 1
    return u * v - sign * (v * u)


def restrict(u: AlgebraElement, sub: GradedQuiver) -> AlgebraElement:
    """u on the subquiver sub: the terms of u that are still paths in sub.

    For sub = q.without(v) this is the image of u in the quotient by the
    ideal of e_v; sub may also keep every vertex and drop arrows."""
    return AlgebraElement(sub, {p: c for p, c in u.terms.items() if sub.is_valid_path(p)})


def add_term(out: dict, key, c: Scalar) -> None:
    """out[key] += c in a sparse map, dropping the key when the sum is 0."""
    acc = out.get(key, 0) + c
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)
