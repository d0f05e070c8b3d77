"""Degree-truncated cohomology of DG path algebras by exact linear
algebra, H^0 presentations, and truncated dimension tables for
presented algebras, whose words are core.WordIds ids, as in the J_n
lattice of koszul; the slices of the cohomology are arrow-name tuples.

Every bidegree (hdeg, adeg) is finite dimensional because arrows carry
adeg >= 1, so all computations here are exact at the stated truncation.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter, defaultdict
from itertools import compress
from typing import Iterator

from . import linalg
from .core import AlgebraElement, GradedQuiver, Scalar, Vertex, WordIds, add_term, vertex_key
from .differential import DGModel, Differential
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


Word = tuple[str, ...]  # arrow names; with a slice's source it names a path
# a slice's words, the index of each word's lead in the slice one hdeg up
# (-1 when d(w) = 0) and whether that lead is fixed, see _stream_slices
Bucket = tuple[list[Word], array, bytearray]
Leads = tuple[frozenset[str], dict[str, Word]]  # Differential._leads


def _check_cap(key: SliceKey, words: list[Word], cap: int) -> None:
    if len(words) > cap:
        raise ResourceLimitError(f"slice {key} exceeds the path cap {cap}; raise DGQ_PATH_CAP to override")


def _stream_slices(
    quiver: GradedQuiver, hmin: int, nadams: int, cap: int | None = None, leads: Leads = (frozenset(), {})
) -> Iterator[tuple[Vertex, int, dict[tuple[int, Vertex], Bucket]]]:
    """The arrow words of every path with hdeg >= hmin and adeg <= nadams,
    yielded one source vertex s and one Adams level a at a time as
    (s, a, {(hdeg, target): (words, lead, fixed)}), the words of each
    bucket in no particular order.  Paths in one bucket share their
    source, so the word alone is a unique key.

    Built level by level without recursion: arrows have adeg >= 1, so a
    level is complete once every lower level has been extended by one
    arrow, and it is yielded once it has been extended itself, so the
    caller can drop it.  The prefixes of a kept path are kept too, as
    hdeg never rises and adeg never falls along a path.  Each bucket is
    grown in blocks, one per (parent bucket P, arrow y), so the child of
    the parent's word i by y is word offset[(P, y)] + i.

    lead[i] is the index of the lead of words[i] under leads =
    Differential._leads (see cohomology_dims) in the lead bucket, the
    bucket (hdeg + 1, target) of the same level, or -1 when d(w) = 0;
    fixed[i] is 1 once w has met an arrow with a term below it, which
    fixes the lead's position.  For the block (P, y), with LP the lead
    bucket of P and w the parent's word i, the lead of w*y is
    lead(w)*y, the word offset[(LP, y)] + lead(w), when w's lead is fixed
    or d(y) = 0.  Otherwise it is w*least(y), the word i + K of the lead
    bucket, with K the sum of the offsets along the walk from P through
    the arrows of least(y).  That lead has the adeg of w*y and one more
    hdeg, so it lies in the window, and so does every prefix of it, as
    hdeg never rises and adeg never falls along a path: every block of
    the walk exists.  Each of those blocks starts in a level below a, so
    its offset is final once level a is reached, and a level's leads are
    computed then, from the leads of the levels within the largest arrow
    adeg below it, the only ones kept.  With the default leads every
    lead is -1.

    Most blocks need no per-word work, so each is appended whole when it
    can be: as a copy of the parent's leads when these are all -1 and
    d(y) = 0, as the range walk, walk + 1, ... when no parent word is
    fixed and d(y) != 0, and as the parent's leads shifted by the block
    offset when every one of them is fixed or, with d(y) = 0, is not -1.
    Only a block whose parent mixes the two cases is built word by word.
    """
    cap = path_cap(cap)
    smaller, least = leads
    arrows = {arr.name: arr for arr in quiver.arrows}
    span = max((arr.adeg for arr in quiver.arrows), default=1)
    for s in quiver.vertices:
        # levels[a][(h, t)]: (words, blocks) as the bucket grows, each block
        # (parent hdeg, parent target, parent level, arrow name)
        levels: list[dict[tuple[int, Vertex], tuple[list[Word], list]]] = [{} for _ in range(nadams + 1)]
        levels[0][(0, s)] = ([()], [])
        offset: dict[tuple[int, int, Vertex, str], int] = {}  # (hdeg, adeg, target, arrow) of a block
        # kept[a][(h, t)]: the leads and fixed flags of a bucket, with the
        # count of its -1 leads and of its fixed words
        kept: dict[int, dict[tuple[int, Vertex], tuple[array, bytearray, int, int]]] = {}
        for a in range(nadams + 1):
            level: dict[tuple[int, Vertex], Bucket] = {}
            for (h, t), (words, blocks) in levels[a].items():
                _check_cap((h, a, s, t), words, cap)
                lead, fixed = (array("q"), bytearray()) if blocks else (array("q", [-1]), bytearray(1))
                for ph, pt, pa, y in blocks:
                    plead, pfixed, zero, nfixed = kept[pa][(ph, pt)]
                    k = offset.get((ph + 1, pa, pt, y))
                    if y not in least:
                        if zero == len(plead):
                            lead.extend(plead)
                        elif not zero:
                            lead.extend([l + k for l in plead])
                        else:
                            lead.extend([l + k if l >= 0 else -1 for l in plead])
                        fixed += pfixed
                        continue
                    walk, wh, wa, wt = 0, ph, pa, pt
                    try:
                        for m in least[y]:
                            walk += offset[(wh, wa, wt, m)]
                            arr = arrows[m]
                            wh, wa, wt = wh + arr.hdeg, wa + arr.adeg, arr.target
                    except KeyError:  # no such block: least(y) is no path from y's source
                        wt = None
                    if (wh, wa, wt) != (h + 1, a, t):
                        raise InvalidInputError(f"d({y}) has a term of another bidegree or endpoints than {y}")
                    if not nfixed:
                        lead.extend(range(walk, walk + len(plead)))
                    elif nfixed == len(pfixed):
                        lead.extend([l + k for l in plead])
                    else:
                        lead.extend([l + k if f else walk + i for i, (l, f) in enumerate(zip(plead, pfixed))])
                    fixed += b"\x01" * len(pfixed) if y in smaller else pfixed
                level[(h, t)] = (words, lead, fixed)
            levels[a] = {}  # once yielded, the caller may drop the level
            kept[a] = {key: (lead, fixed, lead.count(-1), fixed.count(1)) for key, (_words, lead, fixed) in level.items()}
            kept.pop(a - span, None)
            for (h, t), (words, _lead, _fixed) in level.items():
                for arr in quiver.out_arrows(t):
                    h2, a2 = h + arr.hdeg, a + arr.adeg
                    if h2 >= hmin and a2 <= nadams:
                        key = (h2, arr.target)
                        bucket = levels[a2].get(key)
                        if bucket is None:
                            bucket = levels[a2][key] = ([], [])
                        offset[(h, a, t, arr.name)] = len(bucket[0])
                        name = (arr.name,)
                        bucket[0].extend([w + name for w in words])
                        bucket[1].append((h, t, a, arr.name))
                        # checked as it grows, so memory stays near the cap
                        _check_cap((h2, a2, s, arr.target), bucket[0], cap)
            yield s, a, level


def _image_pivots(d: Differential, source: Bucket, cleared: set[int], target: list[Word]) -> set[int]:
    """The pivots, as indices into target, of the span of the d(w), w a
    source word whose index is not in cleared: the lead indices of the
    images when these are pairwise distinct (apparent pairs, see
    cohomology_dims); otherwise the pivots that linalg.pivot_columns
    finds with the target in tuple order.  Only then are words read.
    """
    words, lead, _fixed = source
    if cleared:
        keep = bytearray(b"\x01") * len(words)
        for i in cleared:
            keep[i] = 0
        lead = list(compress(lead, keep))
    pivots = set(lead)
    pivots.discard(-1)
    if len(pivots) == len(lead) - lead.count(-1):
        return pivots
    order = sorted(range(len(target)), key=target.__getitem__)
    column = {target[j]: c for c, j in enumerate(order)}
    images = (d.apply_to_word(w) for w in (compress(words, keep) if cleared else words))
    return {order[c] for c in linalg.pivot_columns({column[u]: x for u, x in img.items()} for img in images)}


def _level_dims(
    d: Differential, level: dict[tuple[int, Vertex], Bucket], hmin: int
) -> Iterator[tuple[int, Vertex, int]]:
    """(h, target, dim H^h) for every nonzero dimension, h >= hmin, of the
    chains (a, s, target) of one Adams level a of one source s.

    Consumes the level: each slice is popped as its chain reaches it, so
    its words are dropped once the step out of it is ranked.  A step's
    pivots index the words of its target, which the next step clears."""
    sizes = {key: len(words) for key, (words, _lead, _fixed) in level.items()}
    out_rank: dict[tuple[int, Vertex], int] = {}
    for h, t in [(h, t) for h, t in level if (h - 1, t) not in level]:
        bucket = level.pop((h, t))
        cleared: set[int] = set()
        while (tgt := level.pop((h + 1, t), None)) is not None:
            cleared = _image_pivots(d, bucket, cleared, tgt[0])
            out_rank[(h, t)] = len(cleared)
            h, bucket = h + 1, tgt
    for (h, t), size in sizes.items():
        if h >= hmin:
            dim = size - out_rank.get((h, t), 0) - out_rank.get((h - 1, t), 0)
            if dim:
                yield h, t, dim


def slice_order(key: SliceKey) -> tuple:
    """The order of cohomology_dims(..., by_component=True): hdeg, adeg,
    then source and target by vertex_key."""
    h, a, s, t = key
    return (h, a, vertex_key(s), vertex_key(t))


def cohomology_dims(
    model: DGModel,
    hmin: int,
    nadams: int,
    cap: int | None = None,
    by_component: bool = False,
) -> dict:
    """dim H^h in each bidegree with hmin <= h <= 0 and adeg <= nadams.

    With by_component=True the table is keyed (h, a, source, target),
    zero entries are dropped and the keys come in slice_order; otherwise
    it is keyed (h, a) with every requested bidegree present.

    d preserves source, target and adeg, so every chain (a, s, t) lies in
    one Adams level of one source.  The slices are streamed one source
    and one level at a time (_stream_slices); once a level has been
    extended its chains are ranked, each slice's words dropped as soon as
    the step out of it is ranked, and only the slice sizes and ranks are
    kept.  No order of the words is needed: clearing holds for any fixed
    total order, and apparent pairs compare least words in tuple order,
    which each word names by its lead index, a bijection onto the words
    of the target slice.  So the lead test, the pivots and the clearing
    sets are sets of ints, and words are read only at a collision.

    Each chain (a, source, target) is walked upward from its lowest hdeg
    with clearing (Chen & Kerber 2011; Bauer, Kerber & Reininghaus 2014):
    the pivot words of im d^(h-1), the leading words of an echelon basis
    under some total order of the words, are neither differentiated nor
    fed to elimination in d^h.  This is exact when d^2 = 0.  Take the
    pivot rows z = d(x) of that echelon basis, each z = z_c*f_c plus words
    f_k with k > c.  Then 0 = d(z) puts d(f_c) in the span of the d(f_k)
    with k > c, so by downward induction on c the rows of d^h at the
    pivot words add nothing to its rank.  The CLI checks d^2 = 0 before
    it computes a table, and cy passes only the ascending model of a
    McKay model once its closure check holds, a sub-DG-algebra.  Skipping
    rows can only lower a computed rank, so on a non-DG input the
    reported dimensions can only be inflated, never hide cohomology.

    The rank of each step comes from apparent pairs (Bauer 2021;
    Skoldberg 2006).  Images d(w) whose least words in tuple order are
    pairwise distinct already form an echelon basis of their span in that
    order.  So they are independent, the rank is their count, and their
    least words are the pivot words, the ones that clear the next step,
    as any echelon basis has the pivots of the reduced one.  Only when
    two images of a step share a least word, as must happen when they
    are dependent, are the step's images computed in full and reduced
    exactly by linalg.pivot_columns, with the target sorted so that its
    pivots are those of tuple order too.  After clearing, no step of the
    criterion-3 models at hmin = -nadams needs it; their vertex
    deletions, with H^{<0} != 0, do.

    The least word of d(w) is never computed from d(w), by this lemma.
    Suppose no term of any d(a) is the empty word or starts with a, and
    no term of d(a) is a proper prefix of another.  Every d that passes
    check_grading has this property: the terms of d(a) all have
    adeg(a) >= 1 and hdeg(a) + 1, which no empty word and no word a*u has
    (adeg(u) = 0 forces u empty), and a proper prefix of a word has a
    smaller adeg, as arrows have adeg >= 1.  Write w = a_1...a_k and let
    the Leibniz terms of position i be the a_1...a_{i-1} m a_{i+1}...a_k
    with m a term of d(a_i).  A term of position i and one of a later
    position j share a_1...a_{i-1} and differ at index i, where the first
    has m[0] != a_i and the second has a_i.  So terms of different
    positions never cancel, nor do those of one position, as distinct m
    give distinct words: d(w) != 0 exactly when some d(a_i) != 0.  The
    terms of position i all precede those of later positions when some
    m[0] < a_i and all follow them otherwise, and, the m being
    prefix-free, the least of them puts the least m in place of a_i.  So
    the least word of d(w) comes from the first active position with some
    m[0] < a_i, or from the last active position when there is none.  The
    lead is carried from each word's prefix as the word is built:
    lead(w*y) = lead(w)*y when w has already met an arrow with a term
    below it, or when d(y) = 0, and otherwise it is w*least(y).
    _stream_slices names it by its index in the target slice, found by
    block offset arithmetic from the prefix's lead index or from the
    prefix's own index, so no lead word is ever built.  A d that breaks
    the hypothesis, or whose least terms break check_grading, makes this
    function raise InvalidInputError; it cannot pass check_grading, which
    the CLI runs first.
    """
    if hmin > 0:
        raise InvalidInputError("hmin must be <= 0")
    if nadams < 1:
        raise InvalidInputError("nadams must be >= 1")
    d = model.differential
    leads = d._leads  # raises here when the lemma above does not apply
    comp: dict[SliceKey, int] = {}
    for s, a, level in _stream_slices(model.quiver, hmin - 1, nadams, cap, leads):
        for h, t, dim in _level_dims(d, level, hmin):
            comp[(h, a, s, t)] = dim
    if by_component:
        return dict(sorted(comp.items(), key=lambda kv: slice_order(kv[0])))
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

    Keys (source, target, adeg); zero entries are dropped.  Works degree
    by degree on normal words, the paths not reduced by the ideal I.  The
    candidate columns of degree a are the w*y with y an arrow and w a
    normal word of degree a - |y| ending at source(y); the relation rows
    are w*r for each relator r of degree d >= 1 and each normal word w of
    degree a - d ending at source(r), rewritten into candidate columns by
    pushing w through all but the last arrow of each term with the normal
    forms of lower degrees.  Reducing the rows leaves the normal words of
    degree a as the non-pivot columns, and the pivot rows give the normal
    forms of the rest.  This is exact: every path of degree a is p*y with
    p equal to its normal form modulo I, any u*r*v with v = v'*y lies in
    I_{a-|y|}*y, and u*r equals (normal form of u)*r modulo I*y terms, so
    kQ_a/I_a is the span of the candidates modulo the relation rows.  A
    degree-0 relator c*e_v kills the vertex v, and with it every relator
    ending at v, whose rows have no candidate column.  Every word is a
    core.WordIds id, so a candidate w*y is id(w)*B + rn(y) and the rows
    go to linalg in the path order with no sort and no column index.
    The path cap bounds the candidate columns summed over all degrees.
    """
    if nadams < 0:
        raise InvalidInputError("nadams must be >= 0")
    cap = path_cap(cap)
    q = pres.quiver
    ids = WordIds(q)
    base, rank = ids.base, ids.rank
    killed = {r.endpoints()[0] for r in pres.relators if r.adeg() == 0}
    # each relator not ending at a killed vertex as (adeg, source, terms),
    # each term as (the rn digits of its arrows but the last, the last, coeff)
    relators = []
    for r in pres.relators:
        src, tgt = r.endpoints()
        if tgt not in killed:
            terms = [([rank[y] for y in p.arrows[:-1]], rank[p.arrows[-1]], c) for p, c in r.terms.items()]
            relators.append((r.adeg(), src, terms))
    arrows = [(y.adeg, y.source, rank[y.name], y.target) for y in q.arrows if y.target not in killed]
    # normal[a][v]: the ids of the normal words of degree a >= 0 ending at
    # v (e_v in degree 0); nf[k]: the normal form {normal word id: coeff}
    # of every candidate column k, coefficients int while integral
    normal: dict[int, dict[Vertex, list[int]]] = {0: {v: [ids.empty[v]] for v in q.vertices if v not in killed}}
    nf: dict[int, dict[int, Scalar]] = {}
    total = 0

    def times(vec: dict[int, Scalar], y: int) -> dict[int, Scalar]:
        out: dict[int, Scalar] = {}
        for u, c in vec.items():
            for w, cw in nf.get(u * base + y, {}).items():
                add_term(out, w, c * cw)
        return out

    for a in range(1, nadams + 1):
        # the candidate columns w*y as (id, target), ordered as the paths
        cols = [(w * base + y, t) for d, src, y, t in arrows for w in normal.get(a - d, {}).get(src, ())]
        total += len(cols)
        if total > cap:
            raise ResourceLimitError(f"path count exceeds cap {cap}; raise DGQ_PATH_CAP")
        rows: list[linalg.SparseVec] = []
        for d, src, terms in relators:
            for w in normal.get(a - d, {}).get(src, ()):
                row: linalg.SparseVec = {}
                for steps, last, c in terms:
                    vec = {w: c}
                    for y in steps:
                        vec = times(vec, y)
                    for u, cu in vec.items():
                        add_term(row, u * base + last, cu)
                if row:
                    rows.append(row)
        pivots = {min(row): row for row in linalg.row_reduce(rows)}
        normal[a] = level = defaultdict(list)
        for k, t in cols:
            if k in pivots:
                nf[k] = {j: -c for j, c in pivots[k].items() if j != k}
            else:
                nf[k] = {k: 1}
                level[t].append(k)

    dims: dict[tuple[Vertex, Vertex, int], int] = {}
    for a, level in normal.items():
        blocks = Counter((ids.source(k), t) for t, words in level.items() for k in words)
        for (s, t), dim in sorted(blocks.items(), key=lambda kv: (vertex_key(kv[0][0]), vertex_key(kv[0][1]))):
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
        elif vmap[v] not in pres.quiver.vertices:
            raise InvalidInputError(f"vertex {v!r} maps to unknown vertex {vmap[v]!r}")
    if len({vmap[v] for v in h0.quiver.vertices}) != len(h0.quiver.vertices):
        raise InvalidInputError("vertex map sends two vertices to one")

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
