"""Degree-truncated cohomology of DG path algebras by exact linear
algebra, H^0 presentations, and truncated dimension tables for
presented algebras, whose words are core.WordIds ids, as in the J_n
lattice of koszul, split and joined by // B^j, mod B^j and
id(u)*B^|v| + id(v) alone; only core.WordIds.path turns an id back
into a path, here the lead of each Groebner rule.  The slices of the
cohomology are arrow-name tuples.

Every bidegree (hdeg, adeg) is finite dimensional because arrows carry
adeg >= 1, so all computations here are exact at the stated truncation.

The tables of presented algebras count the normal words of a Groebner
basis truncated at the Adams bound (Bergman's diamond lemma; the
argument is in truncated_dims).  An overlap lies above both of its
leads, so the rules of a degree are complete before its words are
counted, and the count is exact up to the bound; no leading word lies
inside another; the path cap counts the candidates w*y, w normal, whose
number does not depend on the order and which include every leading
word, and the walk stops after a run of degrees with no normal word.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from fractions import Fraction
from itertools import compress
from typing import Iterator

from . import linalg
from .core import AlgebraElement, GradedQuiver, Scalar, Vertex, WordIds, add_term, exact, vertex_key
from .differential import DGModel, Differential
from .errors import InvalidInputError, ResourceLimitError, failed, passed, path_cap
from .presentations import PresentedAlgebra

SliceKey = tuple[int, int, Vertex, Vertex]  # (hdeg, adeg, source, target)
Word = tuple[str, ...]  # arrow names; with a slice's source it names a path
# a slice's words, the index of each word's lead in the slice one hdeg up
# (-1 when d(w) = 0) and whether that lead is fixed, see _stream_slices
Bucket = tuple[list[Word], array, bytearray]
Leads = tuple[frozenset[str], dict[str, Word]]  # Differential._leads


def _stream_slices(
    quiver: GradedQuiver, hmin: int, nadams: int, leads: Leads = (frozenset(), {})
) -> Iterator[tuple[Vertex, int, dict[tuple[int, Vertex], Bucket]]]:
    """The arrow words of every path with hdeg >= hmin and adeg <= nadams,
    yielded one source vertex s and one Adams level a at a time as
    (s, a, {(hdeg, target): (words, lead, fixed)}), the words of each
    bucket in no particular order.  Paths in one bucket share their
    source, so the word alone is a unique key.

    Built level by level without recursion: arrows have adeg >= 1, so a
    level is complete once every lower level has been extended by one
    arrow, and it is yielded once it has been extended itself, so the
    caller can drop it.  Only the levels not yet reached are held, and
    the walk ends once none is left, whatever nadams is.  The prefixes
    of a kept path are kept too, as hdeg never rises and adeg never
    falls along a path.  Each bucket is grown in blocks, one per (parent
    bucket P, arrow y), so the child of the parent's word i by y is word
    offset[(P, y)] + i.

    lead[i] is the index of the lead of words[i] under leads =
    Differential._leads (see cohomology_dims) in the lead bucket, the
    bucket (hdeg + 1, target) of the same level, or -1 when d(w) = 0;
    fixed[i] is 1 once w has met an arrow with a term below it, which
    fixes the lead's position.  For the block (P, y), with LP the lead
    bucket of P and w the parent's word i, the lead of w*y is
    lead(w)*y, the word offset[(LP, y)] + lead(w), when w's lead is fixed
    or d(y) = 0.  Otherwise it is w*least(y), the word i + K of the lead
    bucket, with K the sum of the offsets along the walk from P through
    the arrows of least(y).  As d passes check_grading, which _leads
    runs, least(y) is a path with y's endpoints, so that lead has the
    adeg of w*y and one more hdeg and lies in the window, and so does
    every prefix of it, as hdeg never rises and adeg never falls along a
    path: every block of the walk exists.  Each of those blocks starts in
    a level below a, so its offset is final once level a is reached, and
    a level's leads are computed then, from the leads of the levels
    within the largest arrow adeg below it, the only ones kept.  With the
    default leads every lead is -1.

    Most blocks need no per-word work, so each is appended whole when it
    can be: as a copy of the parent's leads when these are all -1 and
    d(y) = 0, as the range walk, walk + 1, ... when no parent word is
    fixed and d(y) != 0, and as the parent's leads shifted by the block
    offset when every one of them is fixed or, with d(y) = 0, is not -1.
    Only a block whose parent mixes the two cases is built word by word.
    """
    cap = path_cap()
    smaller, least = leads
    arrows = {arr.name: arr for arr in quiver.arrows}
    span = max((arr.adeg for arr in quiver.arrows), default=1)
    for s in quiver.vertices:
        # pending[a][(h, t)]: (words, blocks) as the bucket of a level not yet
        # reached grows, each block (parent hdeg, parent target, parent
        # level, arrow name); a level is popped as it is reached
        pending: defaultdict[int, dict[tuple[int, Vertex], tuple[list[Word], list]]] = defaultdict(dict)
        pending[0][(0, s)] = ([()], [])
        offset: dict[tuple[int, int, Vertex, str], int] = {}  # (hdeg, adeg, target, arrow) of a block
        # kept[a][(h, t)]: the leads and fixed flags of a bucket, with the
        # count of its -1 leads and of its fixed words
        kept: dict[int, dict[tuple[int, Vertex], tuple[array, bytearray, int, int]]] = {}
        for a in range(nadams + 1):
            if not pending:
                break
            level: dict[tuple[int, Vertex], Bucket] = {}
            for (h, t), (words, blocks) in pending.pop(a, {}).items():
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
                    for m in least[y]:
                        walk += offset[(wh, wa, wt, m)]
                        arr = arrows[m]
                        wh, wa, wt = wh + arr.hdeg, wa + arr.adeg, arr.target
                    if not nfixed:
                        lead.extend(range(walk, walk + len(plead)))
                    elif nfixed == len(pfixed):
                        lead.extend([l + k for l in plead])
                    else:
                        lead.extend([l + k if f else walk + i for i, (l, f) in enumerate(zip(plead, pfixed))])
                    fixed += b"\x01" * len(pfixed) if y in smaller else pfixed
                level[(h, t)] = (words, lead, fixed)
            kept[a] = {key: (lead, fixed, lead.count(-1), fixed.count(1)) for key, (_words, lead, fixed) in level.items()}
            kept.pop(a - span, None)
            for (h, t), (words, _lead, _fixed) in level.items():
                for arr in quiver.out_arrows(t):
                    h2, a2 = h + arr.hdeg, a + arr.adeg
                    if h2 >= hmin and a2 <= nadams:
                        key = (h2, arr.target)
                        bucket = pending[a2].get(key)
                        if bucket is None:
                            bucket = pending[a2][key] = ([], [])
                        offset[(h, a, t, arr.name)] = len(bucket[0])
                        name = (arr.name,)
                        bucket[0].extend([w + name for w in words])
                        bucket[1].append((h, t, a, arr.name))
                        # checked as it grows, so memory stays near the cap; no
                        # slice grows elsewhere, and the one of level 0 has one word
                        if len(bucket[0]) > cap:
                            raise ResourceLimitError(
                                f"slice {(h2, a2, s, arr.target)} exceeds the path cap {cap}; "
                                "raise DGQ_PATH_CAP to override"
                            )
            yield s, a, level


def _image_pivots(d: Differential, source: Bucket, cleared: set[int], target: list[Word]) -> set[int]:
    """The pivots, as indices into target, of the span of the d(w), w a
    source word whose index is not in cleared: the lead indices of the
    images when these are pairwise distinct (apparent pairs, see
    cohomology_dims); otherwise the pivots that linalg.pivot_columns
    finds with the target in its own index order.  Only then are words
    read.
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
    column = {u: j for j, u in enumerate(target)}
    images = (d.apply_to_word(w) for w in (compress(words, keep) if cleared else words))
    return linalg.pivot_columns({column[u]: x for u, x in img.items()} for img in images)


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
    exactly by linalg.pivot_columns, in the target's own index order:
    clearing needs the pivots of one echelon basis per step, under any
    fixed total order.  After clearing, no step of the criterion-3
    models at hmin = -nadams needs it; their vertex deletions, with
    H^{<0} != 0, do.

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
    prefix's own index, so no lead word is ever built.

    This function refuses, with InvalidInputError and check_grading's
    witness, every d that check_grading refuses, and only those: the CLI
    cohomology runs the same check first.  That includes a graded d with
    a term of length 1, which the lemma would allow.
    """
    if hmin > 0:
        raise InvalidInputError("hmin must be <= 0")
    if nadams < 1:
        raise InvalidInputError("nadams must be >= 1")
    d = model.differential
    leads = d._leads  # raises here unless d passes check_grading
    comp: dict[SliceKey, int] = {}
    for s, a, level in _stream_slices(model.quiver, hmin - 1, nadams, leads):
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


def truncated_dims(pres: PresentedAlgebra, nadams: int) -> dict[tuple[Vertex, Vertex, int], int]:
    """Graded dimensions of kQ/(relators) up to Adams degree nadams.

    Keys (source, target, adeg); zero entries are dropped.  The table
    counts normal words: the paths, as core.WordIds ids, that contain no
    leading word of a Groebner basis of the ideal I, built degree by
    degree up to nadams (Bergman's diamond lemma, Adv. Math. 29, 1978;
    for path algebras Farkas, Feustel & Green, Canad. J. Math. 45, 1993).
    The words of one Adams degree, finitely many, compare by id, an order
    that concatenation keeps (the ids order as Path.sort_key).  A rule
    lead -> tail is an element lead - tail of I whose greatest word is
    lead; it rewrites a word u*lead*z to u*tail*z, a sum of smaller words.

    The walk goes up by Adams degree a.  First the relators of degree a
    and the S-polynomials tail1*t - u*tail2 of degree a, one for each
    overlap lead1 = u*v, lead2 = v*t of two leads with u, v and t
    nonempty, are reduced by the rules so far, greatest word first; each
    that does not reduce to 0 becomes a rule, its greatest word leading.
    The overlaps are found through indices of the proper prefixes and
    suffixes of the leads as each lead is added, and bucketed by the
    degree of u*v*t.  Then the normal words of degree a are the w*y, y an
    arrow and w a normal word of degree a - |y| ending at source(y), that
    no lead ends: w*y can contain a lead only as a suffix, as w contains
    none.

    The table is exact up to nadams.  Rewriting keeps the degree, and an
    overlap word u*v*t has a degree above those of both leads, so the rules
    of degree a come from the relators and overlaps of degree a alone, all
    known once degree a is reached.  Every overlap of degree <= a then
    resolves: its S-polynomial reduces to 0, or to an element that became a
    rule and so reduces to 0.  No inclusion ambiguity, one lead inside
    another, arises: each new lead is irreducible by the rules before it, a
    later lead is irreducible by it, and of two leads of one degree neither
    is a proper subword of the other, as arrows have adeg >= 1.  So by the
    diamond lemma, restricted to degrees <= a, the normal words of degree a
    are a basis of (kQ/I)_a.  Dimensions do not depend on the order of the
    words, so the table, key order included, is that of any other admissible
    order.  A degree-0 relator c*e_v kills the vertex v: no word runs through
    v, and the relator terms that do are dropped.

    The path cap bounds the candidates w*y, normal or not, summed over all
    degrees.  Their count in degree a is a sum of dimensions in degrees
    a - |y|, the same for every order, and each lead is one of them, as its
    prefix without its last arrow is normal, so the cap bounds the rules
    too.  As every normal word of degree a is some w*y with w normal of
    degree a - |y|, the walk ends once as many consecutive degrees as the
    largest arrow adeg hold no normal word: no later degree holds one,
    whatever rules it would add.
    """
    if nadams < 0:
        raise InvalidInputError("nadams must be >= 0")
    cap = path_cap()
    q = pres.quiver
    ids = WordIds(q)
    base = ids.base
    killed = {r.endpoints()[0] for r in pres.relators if r.adeg() == 0}
    adeg = {y.name: y.adeg for y in q.arrows}
    arrows = [(y.adeg, y.source, ids.rank[y.name], y.target) for y in q.arrows if y.target not in killed]
    span = max((d for d, _src, _y, _t in arrows), default=1)
    # pending[a]: the relators and S-polynomials of degree a, as {word id: coeff}
    pending: defaultdict[int, list[dict[int, Scalar]]] = defaultdict(list)
    for r in pres.relators:
        f = {ids.of(p): c for p, c in r.terms.items() if killed.isdisjoint(q.path_vertices(p))}
        if f and (d := r.adeg()) <= nadams:
            pending[d].append(f)
    # normal[a][t][s]: the ids of the normal words of degree a from s to t;
    # rules: (B^l, B^(l-1), {lead: tail}) for the leads of each length l, by
    # increasing l, each tail as [(B^len(w), w, coeff)]; prefixes, suffixes:
    # the leads (arrows, id, tail, adeg) by their proper prefixes and suffixes
    normal: dict[int, dict[Vertex, dict[Vertex, list[int]]]] = {
        0: {v: {v: [0]} for v in q.vertices if v not in killed}
    }
    by_length: dict[int, dict[int, list]] = {}
    rules: list[tuple[int, int, dict[int, list]]] = []
    prefixes: defaultdict[Word, list] = defaultdict(list)
    suffixes: defaultdict[Word, list] = defaultdict(list)
    total = 0

    def at_end(k: int):
        """(u, tail) with k = u*lead, for a lead that ends the word k; or None."""
        for m, low, leads in rules:
            if k < low:  # k is shorter than these leads
                break
            tail = leads.get(k % m)
            if tail is not None:
                return k // m, tail
        return None

    def find(k: int):
        """(u, tail, B^len(z), z) with k = u*lead*z; or None."""
        mz = 1
        while k >= mz:
            hit = at_end(k // mz)
            if hit is not None:
                return (*hit, mz, k % mz)
            mz *= base
        return None

    def substitute(f: dict[int, Scalar], u: int, tail: list, mz: int, z: int, c: Scalar) -> None:
        """f += c*u*tail*z."""
        for mw, dw, cw in tail:
            add_term(f, (u * mw + dw) * mz + z, c * cw)

    def overlap(lead1, lead2, n: int) -> None:
        """Schedule tail1*t - u*tail2 for lead1 = u*v, lead2 = v*t, |v| = n."""
        (word1, k1, tail1, d1), (word2, k2, tail2, _d2) = lead1, lead2
        degree = d1 + sum(adeg[y] for y in word2[n:])
        if degree <= nadams:
            mt, f = base ** (len(word2) - n), {}
            substitute(f, 0, tail1, mt, k2 % mt, 1)
            substitute(f, k1 // base**n, tail2, 1, 0, -1)
            pending[degree].append(f)

    for a in range(1, nadams + 1):
        if not any(normal.get(a - k) for k in range(1, span + 1)):
            break
        total += sum(len(ws) for d, src, _y, _t in arrows for ws in normal.get(a - d, {}).get(src, {}).values())
        if total > cap:
            raise ResourceLimitError(f"path count exceeds cap {cap}; raise DGQ_PATH_CAP")
        for f in pending.pop(a, ()):
            g: dict[int, Scalar] = {}  # the words of f that no rule rewrites
            while f:
                hit = find(k := max(f))
                if hit is None:
                    g[k] = f.pop(k)
                else:
                    substitute(f, *hit, f.pop(k))
            if not g:
                continue
            k = max(g)
            lc, word = g.pop(k), ids.path(k).arrows
            tail = [(base ** len(ids.path(w)), w, exact(Fraction(-c) / lc)) for w, c in g.items()]
            by_length.setdefault(base ** len(word), {})[k] = tail
            rules[:] = [(m, m // base, leads) for m, leads in sorted(by_length.items())]
            lead = (word, k, tail, a)
            for i in range(1, len(word)):
                prefixes[word[:i]].append(lead)
            for i in range(1, len(word)):
                for other in prefixes.get(word[i:], ()):
                    overlap(lead, other, len(word) - i)
                for other in suffixes.get(word[:i], ()):
                    overlap(other, lead, i)
            for i in range(1, len(word)):
                suffixes[word[i:]].append(lead)
        normal[a] = level = defaultdict(lambda: defaultdict(list))
        for d, src, y, t in arrows:
            for s, words in normal.get(a - d, {}).get(src, {}).items():
                for w in words:
                    if at_end(w * base + y) is None:
                        level[t][s].append(w * base + y)

    dims: dict[tuple[Vertex, Vertex, int], int] = {}
    for a, level in normal.items():
        blocks = [(s, t, len(words)) for t, by_source in level.items() for s, words in by_source.items()]
        for s, t, dim in sorted(blocks, key=lambda b: (vertex_key(b[0]), vertex_key(b[1]))):
            dims[(s, t, a)] = dim
    return dims


def compare_h0(
    model: DGModel,
    pres: PresentedAlgebra,
    nadams: int,
    arrow_map: dict[str, str] | None = None,
    vertex_map: dict[Vertex, Vertex] | None = None,
) -> dict:
    """Compare truncated dimension tables of H^0(model) and pres under an
    explicit generator map.  Reports the first mismatching (s, t, adeg)."""
    h0 = h0_presentation(model)
    gen_names = sorted(a.name for a in h0.quiver.arrows)
    if arrow_map is None:
        arrow_map = {n: n for n in gen_names}
    vmap: dict[Vertex, Vertex] = dict(vertex_map or {})
    for v in vmap:
        if v not in h0.quiver.vertices:
            raise InvalidInputError(f"vertex map names {v!r}, which is no vertex of the model")
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
    unknown = set(arrow_map).difference(gen_names)
    if unknown:
        raise InvalidInputError(f"arrow map names {min(unknown)!r}, which is no generator of H^0")
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

    left = truncated_dims(h0, nadams)
    right = truncated_dims(pres, nadams)
    mapped = {(vmap[s], vmap[t], a): dim for (s, t, a), dim in left.items()}
    if mapped == right:
        return passed("compare_h0", nadams=nadams, total_dim=sum(mapped.values()))
    keys = sorted(
        set(mapped) | set(right),
        key=lambda k: (k[2], vertex_key(k[0]), vertex_key(k[1])),
    )
    for k in keys:
        if mapped.get(k, 0) != right.get(k, 0):
            return failed(
                "compare_h0",
                source=k[0],
                target=k[1],
                adeg=k[2],
                model_dim=mapped.get(k, 0),
                presentation_dim=right.get(k, 0),
            )
    raise AssertionError("unreachable")
