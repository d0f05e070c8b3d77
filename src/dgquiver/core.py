"""Graded quivers, paths and exact-rational path algebra elements.

One rule holds every coefficient: an ``int`` when it is integral, a
``fractions.Fraction`` with a denominator other than 1 otherwise.
``exact`` decides it, and only here: ``AlgebraElement`` applies it to
each coefficient it is built from and to the factor of ``scale``,
``Superpotential`` to each sum of rotations, the JSON reader to each
coefficient it parses, and ``truncated_dims`` to each quotient by the
leading coefficient of a Groebner rule.  It refuses anything else, a
float, a bool or a str among them, so there is no floating point
anywhere.  Every other module takes the rule as given and converts no
coefficient: the hot paths (``Differential.apply_to_word``, the
reductions of ``truncated_dims``, the J_n rows of ``koszul``, the
bimodule of ``cy``) use element coefficients as they are, and ``linalg``
returns its rows in the same form.
Elements are stored sparsely as ``{Path: coefficient}`` with a canonical
ordering of paths so that iteration and printing are deterministic.
Every sparse sum, whatever its keys, accumulates through ``add_term``;
only the elimination kernel of ``linalg`` keeps its own loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable, Iterator, Mapping, NamedTuple, Union

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


class Path(NamedTuple):
    """A composable left-to-right sequence of arrow names.

    The empty sequence is the idempotent path e_v at ``start``.  A tuple
    (start, arrows), so hashing and equality run in C; sort by sort_key,
    not by the tuple order, which may compare a str start with an int.
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
        a = self._by_name.get(name)
        if a is None:
            raise InvalidInputError(f"unknown arrow id {name!r}")
        return a

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

    With rn(x) in 1..B-1 the rank of the arrow x by (vertex_key(source),
    name) and B = max(2, number of arrows + 1), 2 for a quiver with no
    arrows, the word w_0...w_{L-1} has the id sum_i rn(w_i)*B^(L-1-i),
    and every e_v the id 0.  Lemma: the ids of length L >= 1 lie in
    [B^(L-1), B^L), below those of length L + 1, and within one length
    they are base-B numerals with the digits rn(w_0), rn(w_1), ..., so
    they compare as the words do at their first differing arrow.  There
    both arrows leave the same vertex unless it is the first, so the
    ranks compare as the names, and at the first as (start, name).  So
    the ids of nonempty paths order as Path.sort_key, distinct nonempty
    paths have distinct ids, and an RREF basis over the ids is the one
    over the paths.  No digit is 0, so every prefix k // B^j and every
    suffix k mod B^j of an id is the id of that prefix or suffix, and
    u*v has the id id(u)*B^|v| + id(v).  Only path, the inverse of of on
    nonempty paths, turns an id back into a path."""

    def __init__(self, quiver: GradedQuiver):
        arrows = sorted(quiver.arrows, key=lambda a: (vertex_key(a.source), a.name))
        self.rank = {a.name: r for r, a in enumerate(arrows, 1)}  # rn
        self.base = max(2, len(arrows) + 1)
        self._arrows = [None, *arrows]  # by rn

    def of(self, p: Path) -> int:
        return reduce(lambda k, name: k * self.base + self.rank[name], p.arrows, 0)

    def path(self, k: int) -> Path:
        """The nonempty path with the id k > 0: its base-B digits, last
        first, are the ranks of its arrows, and the source of the arrow
        of its leading digit is its start."""
        base, arrows, names = self.base, self._arrows, []
        while k:
            k, r = divmod(k, base)
            names.append(arrows[r].name)
        names.reverse()
        return Path(arrows[r].source, tuple(names))


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

    def _common(self, of: Callable[[Path], object], what: str):
        """The value of of(p) that every term p shares, None for the zero
        element; raises when two terms differ."""
        values = {of(p) for p in self.terms}
        if len(values) > 1:
            raise InvalidInputError(f"element is not {what}")
        return values.pop() if values else None

    def hdeg(self) -> int | None:
        """Common homological degree, or raises when inhomogeneous.

        Returns None for the zero element (homogeneous of every degree).
        """
        return self._common(self.quiver.path_hdeg, "hdeg-homogeneous")

    def adeg(self) -> int | None:
        return self._common(self.quiver.path_adeg, "adeg-homogeneous")

    def is_hdeg_homogeneous(self) -> bool:
        return len({self.quiver.path_hdeg(p) for p in self.terms}) <= 1

    def endpoints(self) -> tuple[Vertex, Vertex] | None:
        """Common (source, target), or raises when mixed; None when zero."""
        return self._common(lambda p: (p.start, self.quiver.path_target(p)), "component-pure")


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


def graded_commutator(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """[u, v] = uv - (-1)^{|u||v|} vu for hdeg-homogeneous u, v, a zero
    argument counting as hdeg 0."""
    sign = -1 if ((u.hdeg() or 0) * (v.hdeg() or 0)) % 2 else 1
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
