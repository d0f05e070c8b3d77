"""Degree-truncated cohomology of DG path algebras by exact linear
algebra, H^0 presentations, and truncated dimension tables for
presented algebras.

Every bidegree (hdeg, adeg) is finite dimensional because arrows carry
adeg >= 1, so all computations here are exact at the stated truncation.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass

from . import linalg
from .core import AlgebraElement, GradedQuiver, Path, Vertex, vertex_key
from .differential import DGModel
from .errors import InvalidInputError, ResourceLimitError
from .presentations import PresentedAlgebra

DEFAULT_PATH_CAP = 10**6

SliceKey = tuple[int, int, Vertex, Vertex]  # (hdeg, adeg, source, target)


def path_cap(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("DGQ_PATH_CAP")
    if not env:
        return DEFAULT_PATH_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise InvalidInputError(f"DGQ_PATH_CAP must be a positive integer, got {env!r}")
    return cap


@dataclass(frozen=True)
class BigradedSlice:
    hdeg: int
    adeg: int
    source: Vertex
    target: Vertex
    basis: tuple[Path, ...]


def bigraded_slices(
    quiver: GradedQuiver, hmin: int, nadams: int, cap: int | None = None
) -> dict[SliceKey, BigradedSlice]:
    """Enumerate all paths with hdeg >= hmin and adeg <= nadams, bucketed
    by (hdeg, adeg, source, target) with the canonical basis order."""
    cap = path_cap(cap)
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
    return {
        key: BigradedSlice(*key, tuple(sorted(paths, key=Path.sort_key)))
        for key, paths in buckets.items()
    }


def _outgoing_rank(model: DGModel, slices: dict[SliceKey, BigradedSlice], key: SliceKey) -> int:
    """Rank of d restricted to the given slice."""
    sl = slices.get(key)
    if sl is None:
        return 0
    h, a, s, t = key
    tgt = slices.get((h + 1, a, s, t))
    if tgt is None:
        return 0
    index = {p: i for i, p in enumerate(tgt.basis)}
    images = map(model.differential.apply_to_path, sl.basis)
    return linalg.rank({index[r]: c for r, c in img.items()} for img in images if img)


def cohomology_dims(
    model: DGModel,
    hmin: int,
    nadams: int,
    cap: int | None = None,
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
    slices = bigraded_slices(model.quiver, hmin - 1, nadams, cap)
    out_rank: dict[SliceKey, int] = {}
    for key in slices:
        out_rank[key] = _outgoing_rank(model, slices, key)
    comp: dict[tuple[int, int, Vertex, Vertex], int] = {}
    for (h, a, s, t), sl in slices.items():
        if h < hmin:
            continue
        dim = len(sl.basis) - out_rank[(h, a, s, t)] - out_rank.get((h - 1, a, s, t), 0)
        if dim:
            comp[(h, a, s, t)] = dim
    if by_component:
        return comp
    table = {(h, a): 0 for h in range(hmin, 1) for a in range(nadams + 1)}
    for (h, a, _s, _t), dim in comp.items():
        table[(h, a)] += dim
    return table


def h0_presentation(model: DGModel) -> PresentedAlgebra:
    """Presentation of H^0: the hdeg-0 arrows modulo d of the hdeg -1
    arrows.  Exact because the algebra is concentrated in degrees <= 0."""
    q = model.quiver
    arrows0 = tuple(a for a in q.arrows if a.hdeg == 0)
    names0 = {a.name for a in arrows0}
    q0 = GradedQuiver(q.vertices, arrows0)
    relators = []
    for a in sorted(q.arrows, key=lambda a: a.name):
        if a.hdeg != -1:
            continue
        da = model.differential.of_arrow(a.name)
        if not da:
            continue
        if any(set(p.arrows) - names0 for p in da.terms):
            raise InvalidInputError(
                f"d({a.name}) involves arrows of hdeg < 0; the model is not minimal in degree -1"
            )
        relators.append(AlgebraElement(q0, da.terms))
    return PresentedAlgebra(q0, tuple(relators))


def truncated_dims(
    pres: PresentedAlgebra, nadams: int, cap: int | None = None
) -> dict[tuple[Vertex, Vertex, int], int]:
    """Graded dimensions of kQ/(relators) up to Adams degree nadams.

    Keys (source, target, adeg); zero entries are dropped.  Ideal
    membership per degree is the span of all u * r * v, which is exact
    degreewise since relators are Adams-homogeneous.
    """
    if nadams < 0:
        raise InvalidInputError("nadams must be >= 0")
    cap = path_cap(cap)
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
            dim = count - linalg.rank(rows_by_block.get((s, t), ()))
            if dim:
                dims[(s, t, a)] = dim
    return dims


def compare_h0(
    model: DGModel,
    pres: PresentedAlgebra,
    nadams: int,
    arrow_map: dict[str, str] | None = None,
    vertex_map: dict[Vertex, Vertex] | None = None,
    cap: int | None = None,
) -> dict:
    """Compare truncated dimension tables of H^0(model) and pres under an
    explicit generator map.  Reports the first mismatching (s, t, adeg)."""
    h0 = h0_presentation(model)
    gen_names = sorted(a.name for a in h0.quiver.arrows)
    if arrow_map is None:
        arrow_map = {n: n for n in gen_names}
    vmap: dict[Vertex, Vertex] = dict(vertex_map or {})
    for name in gen_names:
        if name not in arrow_map:
            raise InvalidInputError(f"unmapped generator {name!r}")
        if not pres.quiver.has_arrow(arrow_map[name]):
            raise InvalidInputError(f"generator {name!r} maps to unknown arrow {arrow_map[name]!r}")
        g = h0.quiver.arrow(name)
        b = pres.quiver.arrow(arrow_map[name])
        if g.adeg != b.adeg:
            raise InvalidInputError(f"generator {name!r} maps across Adams degrees")
        for frm, to in ((g.source, b.source), (g.target, b.target)):
            if vmap.setdefault(frm, to) != to:
                raise InvalidInputError(f"inconsistent vertex map at {frm!r}")
    image = {arrow_map[name] for name in gen_names}
    if len(image) != len(gen_names) or len(image) != len(pres.quiver.arrows):
        raise InvalidInputError("generator map is not a bijection onto the presentation's arrows")
    for v in h0.quiver.vertices:
        if v not in vmap:
            if v in pres.quiver.vertices:
                vmap[v] = v
            else:
                raise InvalidInputError(f"unmapped vertex {v!r}")

    left = truncated_dims(h0, nadams, cap)
    right = truncated_dims(pres, nadams, cap)
    mapped = {(vmap[s], vmap[t], a): dim for (s, t, a), dim in left.items()}
    if mapped == right:
        return {
            "check": "compare_h0",
            "status": "pass",
            "nadams": nadams,
            "total_dim": sum(mapped.values()),
        }
    keys = sorted(
        set(mapped) | set(right),
        key=lambda k: (k[2], vertex_key(k[0]), vertex_key(k[1])),
    )
    for k in keys:
        if mapped.get(k, 0) != right.get(k, 0):
            return {
                "check": "compare_h0",
                "status": "fail",
                "witness": {
                    "source": k[0],
                    "target": k[1],
                    "adeg": k[2],
                    "model_dim": mapped.get(k, 0),
                    "presentation_dim": right.get(k, 0),
                },
            }
    raise AssertionError("unreachable")
