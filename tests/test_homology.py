"""Truncated cohomology, H^0 presentations and dimension comparisons."""

from fractions import Fraction
from math import comb

import pytest

from dgquiver import (
    Arrow,
    Differential,
    DGModel,
    GradedQuiver,
    InvalidInputError,
    McKayData,
    Path,
    PresentedAlgebra,
    ResourceLimitError,
    Superpotential,
    cohomology_dims,
    compare_h0,
    delete_vertex,
    ginzburg_model,
    h0_presentation,
    jacobian_presentation,
    mckay_model,
    polynomial_model,
    truncated_dims,
)
from dgquiver.homology import _stream_slices
from dgquiver.koszul import mckay_commutation_presentation
from oracles import mckay_h0_oracle, polynomial_h0_dim, row_reduce


def test_zero_differential_cohomology_is_path_count():
    q = GradedQuiver((0,), (Arrow("a", 0, 0, 0, 1), Arrow("b", 0, 0, -1, 1)))
    model = DGModel(q, Differential(q, {}))
    dims = cohomology_dims(model, -3, 3)
    # paths are words in a, b; hdeg = -(number of b), adeg = length
    for h in range(0, -4, -1):
        for a in range(4):
            expected = comb(a, -h) if -h <= a else 0
            assert dims[(h, a)] == expected


def test_polynomial_model_cohomology_is_polynomial_ring():
    for n in (2, 3):
        model = polynomial_model(n)
        dims = cohomology_dims(model, -4, 4)
        for (h, a), v in dims.items():
            if h == 0:
                assert v == polynomial_h0_dim(n, a)
            else:
                assert v == 0


def test_mckay_cohomology_by_component_matches_oracle():
    data = McKayData(3, (1, 1, 1))
    model = mckay_model(data)
    dims = cohomology_dims(model, -4, 4, by_component=True)
    h0 = {(s, t, a): v for (h, a, s, t), v in dims.items() if h == 0}
    assert all(h == 0 for (h, _a, _s, _t) in dims)
    assert h0 == mckay_h0_oracle(3, (1, 1, 1), 4)


def test_euler_characteristic_invariant():
    """sum_h (-1)^h dim H^{h,a} equals the same alternating sum of slice
    dimensions, per Adams degree."""
    data = McKayData(3, (1, 1, 1))
    model = delete_vertex(mckay_model(data), 0)
    nadams, hmin = 4, -6
    dims = cohomology_dims(model, hmin, nadams)
    euler_c = [0] * (nadams + 1)
    for _s, a, level in _stream_slices(model.quiver, hmin, nadams):
        for (h, _t), (words, _lead, _fixed) in level.items():
            euler_c[a] += (-1) ** h * len(words)
    for a in range(nadams + 1):
        assert sum((-1) ** h * dims[(h, a)] for h in range(hmin, 1)) == euler_c[a]


def test_h0_presentation_of_ginzburg_is_jacobian():
    quiver = GradedQuiver(
        (0, 1),
        (
            Arrow("p", 0, 1, 0, 1),
            Arrow("q", 0, 1, 0, 1),
            Arrow("r", 1, 0, 0, 1),
            Arrow("s", 1, 0, 0, 1),
        ),
    )
    w = Superpotential(
        quiver,
        {
            Path(0, ("p", "s", "q", "r")): Fraction(1),
            Path(0, ("p", "r", "q", "s")): Fraction(-1),
        },
    )
    h0 = h0_presentation(ginzburg_model(w))
    jac = jacobian_presentation(w)
    assert h0.quiver.vertices == jac.quiver.vertices
    assert {a.name for a in h0.quiver.arrows} == {a.name for a in jac.quiver.arrows}
    # same relator span, degree by degree (relators here are all cubic)
    paths = sorted(
        {p for r in h0.relators for p in r.terms} | {p for r in jac.relators for p in r.terms},
        key=Path.sort_key,
    )
    index = {p: i for i, p in enumerate(paths)}
    left = row_reduce([{index[p]: c for p, c in r.terms.items()} for r in h0.relators])
    right = row_reduce([{index[p]: c for p, c in r.terms.items()} for r in jac.relators])
    assert left == right


def test_h0_presentation_rejects_nonminimal_degree_minus_one():
    q = GradedQuiver(
        (0,),
        (Arrow("a", 0, 0, 0, 1), Arrow("b", 0, 0, -1, 2), Arrow("c", 0, 0, -2, 2)),
    )
    d = Differential(q, {"b": q.element({Path(0, ("c",)): 1})})
    with pytest.raises(InvalidInputError):
        h0_presentation(DGModel(q, d))


def test_truncated_dims_symmetric_algebra():
    q = GradedQuiver((0,), tuple(Arrow(f"y{i}", 0, 0, 0, 1) for i in (1, 2, 3)))
    relators = tuple(
        q.gen(f"y{i}") * q.gen(f"y{j}") - q.gen(f"y{j}") * q.gen(f"y{i}")
        for i, j in ((1, 2), (1, 3), (2, 3))
    )
    pres = PresentedAlgebra(q, relators)
    dims = truncated_dims(pres, 3)
    assert dims[(0, 0, 0)] == 1
    assert dims[(0, 0, 2)] == 6  # symmetric square of a 3-dim space
    assert dims[(0, 0, 3)] == 10


def test_truncated_dims_free_algebra():
    q = GradedQuiver((0,), (Arrow("a", 0, 0, 0, 1), Arrow("b", 0, 0, 0, 1)))
    dims = truncated_dims(PresentedAlgebra(q, ()), 4)
    assert [dims[(0, 0, a)] for a in range(5)] == [1, 2, 4, 8, 16]


def test_truncated_dims_by_hand_on_mixed_ids_and_two_word_lengths():
    """Vertices 1, "u", "v", 0 and arrows a: 0 -> 1, b: 1 -> 0, c: 0 -> 0
    of adeg 2, d: 0 -> u, e: v -> 0; relators e_u, 2ab - 3c, ba and
    cd - abd.  e_u kills u, and with it d and cd - abd, which ends at u.
    So c = (2/3)ab and ba = 0: the paths from 0 are e_0, a and ab ~ c,
    as aba, ca and cc all contain ba; from 1, e_1 and b, as bab and
    bc ~ (2/3)bab vanish; from v, e_v, e, ea and eab ~ (3/2)ec, while
    eaba and eca vanish.  Adams degree 2 holds c and ab, and degree 3
    ec and eab, words of two lengths whose ids order them by length.
    Keys come by degree, then by vertex_key: 0, 1, then "v"."""
    q = GradedQuiver(
        (1, "u", "v", 0),
        (
            Arrow("a", 0, 1, 0, 1),
            Arrow("b", 1, 0, 0, 1),
            Arrow("c", 0, 0, 0, 2),
            Arrow("d", 0, "u", 0, 1),
            Arrow("e", "v", 0, 0, 1),
        ),
    )

    def el(*terms):
        return q.element({Path(start, tuple(w)): c for start, w, c in terms})

    relators = (
        el(("u", "", 1)),
        el((0, "ab", 2), (0, "c", -3)),
        el((1, "ba", 1)),
        el((0, "cd", 1), (0, "abd", -1)),
    )
    dims = truncated_dims(PresentedAlgebra(q, relators), 4)
    assert list(dims.items()) == [
        ((0, 0, 0), 1), ((1, 1, 0), 1), (("v", "v", 0), 1),
        ((0, 1, 1), 1), ((1, 0, 1), 1), (("v", 0, 1), 1),
        ((0, 0, 2), 1), (("v", 1, 2), 1),
        (("v", 0, 3), 1),
    ]


def test_truncated_dims_deleted_commutation_presentation():
    pres = mckay_commutation_presentation(McKayData(3, (1, 1, 1))).delete_vertex(0)
    dims = truncated_dims(pres, 6)
    assert sum(dims.values()) == 5  # finite dimensional: e_1, e_2, three arrows


def test_compare_h0_identity_map():
    data = McKayData(3, (1, 1, 1))
    model = delete_vertex(mckay_model(data), 0)
    pres = mckay_commutation_presentation(data).delete_vertex(0)
    report = compare_h0(model, pres, 6)
    assert report["status"] == "pass"
    assert report["total_dim"] == 5


def test_compare_h0_detects_dropped_relator():
    # m = 4 keeps commuting-square relators after deletion (1 -> 2 -> 3)
    data = McKayData(4, (1, 1, 1, 1))
    model = delete_vertex(mckay_model(data), 0)
    pres = mckay_commutation_presentation(data).delete_vertex(0)
    assert pres.relators  # the control only makes sense with relators left
    assert compare_h0(model, pres, 5)["status"] == "pass"
    weakened = PresentedAlgebra(pres.quiver, pres.relators[1:])
    report = compare_h0(model, weakened, 5)
    assert report["status"] == "fail"
    assert report["witness"]["model_dim"] != report["witness"]["presentation_dim"]


def test_compare_h0_requires_total_generator_map():
    data = McKayData(3, (1, 1, 1))
    model = delete_vertex(mckay_model(data), 0)
    pres = mckay_commutation_presentation(data).delete_vertex(0)
    names = sorted(a.name for a in pres.quiver.arrows)
    with pytest.raises(InvalidInputError, match="unmapped generator"):
        compare_h0(model, pres, 4, arrow_map={names[0]: names[0]})
    with pytest.raises(InvalidInputError, match="bijection"):
        compare_h0(model, pres, 4, arrow_map={n: names[0] for n in names})


def _loop_at_1(vertices: tuple) -> GradedQuiver:
    return GradedQuiver(vertices, (Arrow("x", 1, 1, 0, 1),))


def test_compare_h0_refuses_a_vertex_map_that_is_not_injective():
    """Sending e_2 onto e_1 would drop e_2 from the mapped table, and the
    tables would agree on the dimension 3 of k[x]/x^3 at the truncation
    2, though H^0 of the model has dimension 4."""
    model = DGModel(_loop_at_1((1, 2)), Differential(_loop_at_1((1, 2)), {}))
    pres = PresentedAlgebra(_loop_at_1((1,)), ())
    with pytest.raises(InvalidInputError, match="two vertices to one"):
        compare_h0(model, pres, 2, vertex_map={2: 1})
    # injective onto part of the presentation's vertices: the tables differ
    wider = PresentedAlgebra(_loop_at_1((1, 2, 3)), ())
    report = compare_h0(model, wider, 2, vertex_map={2: 3})
    assert report["status"] == "fail"
    assert report["witness"] == {"source": 2, "target": 2, "adeg": 0, "model_dim": 0, "presentation_dim": 1}


def test_compare_h0_refuses_a_vertex_map_onto_an_unknown_vertex():
    """Vertex 9 is not a vertex of the presentation: bad input, not a
    check failure with a witness at the presentation's vertex 2."""
    model = DGModel(_loop_at_1((1, 2)), Differential(_loop_at_1((1, 2)), {}))
    pres = PresentedAlgebra(_loop_at_1((1, 2)), ())
    with pytest.raises(InvalidInputError, match="vertex 2 maps to unknown vertex 9"):
        compare_h0(model, pres, 2, vertex_map={2: 9})
    assert compare_h0(model, pres, 2, vertex_map={2: 2})["status"] == "pass"


def test_compare_h0_refuses_a_vertex_map_from_an_unknown_vertex():
    """A key of the vertex map that is no vertex of H^0, such as 9 or the
    string "1" for the int vertex 1, is refused, not dropped."""
    model = DGModel(_loop_at_1((1, 2)), Differential(_loop_at_1((1, 2)), {}))
    pres = PresentedAlgebra(_loop_at_1((1, 2)), ())
    for key in (9, "1"):
        with pytest.raises(InvalidInputError, match="no vertex of the model"):
            compare_h0(model, pres, 2, vertex_map={key: 2})


@pytest.mark.parametrize("extra", ["no_such_arrow", "x1_12"])
def test_compare_h0_refuses_an_arrow_map_key_that_names_no_generator(extra):
    """A key of the arrow map that is no generator of H^0, an unknown
    name or the hdeg -1 arrow x1_12 of the model, is refused, as a vertex
    map key that names no vertex is.  Both maps passed with total_dim 44
    while such keys were ignored."""
    data = McKayData(5, (1, 1, 1, 2))
    model = delete_vertex(mckay_model(data), 0)
    pres = mckay_commutation_presentation(data).delete_vertex(0)
    identity = {a.name: a.name for a in pres.quiver.arrows}
    assert compare_h0(model, pres, 4, arrow_map=identity)["total_dim"] == 44
    with pytest.raises(InvalidInputError, match=f"arrow map names '{extra}', which is no generator of H"):
        compare_h0(model, pres, 4, arrow_map=identity | {extra: "x1_1"})


def test_resource_cap(monkeypatch):
    model = polynomial_model(3)
    monkeypatch.setenv("DGQ_PATH_CAP", "5")
    with pytest.raises(ResourceLimitError):
        cohomology_dims(model, -4, 6)
    pres = PresentedAlgebra(
        GradedQuiver((0,), (Arrow("a", 0, 0, 0, 1),)),
        (),
    )
    monkeypatch.setenv("DGQ_PATH_CAP", "10")
    with pytest.raises(ResourceLimitError):
        truncated_dims(pres, 50)


def test_path_cap_env_override(monkeypatch):
    from dgquiver.homology import path_cap

    monkeypatch.setenv("DGQ_PATH_CAP", "123")
    assert path_cap() == 123
    monkeypatch.delenv("DGQ_PATH_CAP")
    assert path_cap() == 10**6


def test_compare_h0_rejects_non_injective_map_padded_with_extra_keys():
    model = polynomial_model(2)
    pres = h0_presentation(model)
    assert compare_h0(model, pres, 4)["status"] == "pass"
    # x1 and x2 both land on x1; the unused key zzz covers x2, so the
    # values of the whole map do cover the presentation's arrows
    with pytest.raises(InvalidInputError, match="bijection"):
        compare_h0(model, pres, 4, arrow_map={"x1": "x1", "x2": "x1", "zzz": "x2"})
    # not surjective: a presentation with one more arrow than generators
    q = pres.quiver
    bigger = PresentedAlgebra(GradedQuiver(q.vertices, q.arrows + (Arrow("y", 0, 0, 0, 1),)), ())
    with pytest.raises(InvalidInputError, match="bijection"):
        compare_h0(model, bigger, 4)


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
def test_path_cap_env_rejects_bad_values(monkeypatch, value):
    from dgquiver.homology import path_cap

    monkeypatch.setenv("DGQ_PATH_CAP", value)
    with pytest.raises(InvalidInputError, match="DGQ_PATH_CAP"):
        path_cap()


def test_enumeration_is_not_recursive():
    """Paths far longer than the interpreter's recursion limit."""
    q = GradedQuiver((0,), (Arrow("a", 0, 0, 0, 1),))
    model = DGModel(q, Differential(q, {}))
    dims = cohomology_dims(model, 0, 1500)
    assert all(dims[(0, a)] == 1 for a in range(1501))
    assert truncated_dims(PresentedAlgebra(q, ()), 1500) == {(0, 0, a): 1 for a in range(1501)}
