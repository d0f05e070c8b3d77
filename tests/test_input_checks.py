"""Input checks of the library that no other test reaches: each refuses
its input with InvalidInputError and a message naming what is wrong."""

import pytest

from dgquiver import (
    AlgebraElement,
    Arrow,
    DGModel,
    Differential,
    GradedQuiver,
    InvalidInputError,
    McKayData,
    Path,
    PresentedAlgebra,
    QuadraticPresentation,
    Superpotential,
    build_split,
    cohomology_dims,
    compare_h0,
    compute_Jn,
    minimal_model_general,
    polynomial_model,
    truncated_dims,
)
from dgquiver.core import vertex_key
from dgquiver.koszul import mckay_commutation_presentation

LOOP = GradedQuiver((0,), (Arrow("x", 0, 0, 0, 1),))
OTHER_LOOP = GradedQuiver((1,), (Arrow("x", 1, 1, 0, 1),))
# d(a) = x*y runs from 0 to 1, but a is a loop at 0
WRONG_ENDS = GradedQuiver(
    (0, 1), (Arrow("x", 0, 0, 0, 1), Arrow("y", 0, 1, 0, 1), Arrow("a", 0, 0, -1, 2))
)
POLY2 = polynomial_model(2)
C3 = mckay_commutation_presentation(McKayData(3, (1, 1, 1)))


def _loop_model(vertices: tuple) -> DGModel:
    """A loop x at 1 on these vertices, with d = 0."""
    q = GradedQuiver(vertices, (Arrow("x", 1, 1, 0, 1),))
    return DGModel(q, Differential(q, {}))


def _two_loops(adeg_y: int) -> PresentedAlgebra:
    """The free algebra on the loops x1 (adeg 1) and x2 (adeg adeg_y)."""
    return PresentedAlgebra(GradedQuiver((0,), (Arrow("x1", 0, 0, 0, 1), Arrow("x2", 0, 0, 0, adeg_y))), ())


CASES = {
    "core.vertex_key of a bool": (lambda: vertex_key(True), "bad vertex id True"),
    "core.idempotent of an unknown vertex": (lambda: LOOP.idempotent(9), "unknown vertex 9"),
    "core elements over two quivers": (lambda: LOOP.gen("x") + OTHER_LOOP.gen("x"), "over different quivers"),
    "differential grading witness": (
        lambda: cohomology_dims(
            DGModel(WRONG_ENDS, Differential(WRONG_ENDS, {"a": WRONG_ENDS.gen("x") * WRONG_ENDS.gen("y")})), -1, 2
        ),
        "at arrow a: term .* has wrong endpoints",
    ),
    "ginzburg superpotential off hdeg 0": (
        lambda: Superpotential(GradedQuiver((0,), (Arrow("a", 0, 0, -1, 1),)), {}),
        "superpotential quivers live in hdeg 0",
    ),
    "cohomology_dims hmin > 0": (lambda: cohomology_dims(POLY2, 1, 2), "hmin must be <= 0"),
    "cohomology_dims nadams < 1": (lambda: cohomology_dims(POLY2, -1, 0), "nadams must be >= 1"),
    "truncated_dims nadams < 0": (lambda: truncated_dims(C3, -1), "nadams must be >= 0"),
    "compare_h0 onto an unknown arrow": (
        lambda: compare_h0(POLY2, _two_loops(1), 2, arrow_map={"x1": "x1", "x2": "zz"}),
        "generator 'x2' maps to unknown arrow 'zz'",
    ),
    "compare_h0 across Adams degrees": (
        lambda: compare_h0(POLY2, _two_loops(2), 2),
        "generator 'x2' maps across Adams degrees",
    ),
    "compare_h0 of an unmapped vertex": (
        lambda: compare_h0(_loop_model((1, 2)), PresentedAlgebra(_loop_model((1, 3)).quiver, ()), 2),
        "unmapped vertex 2",
    ),
    "compute_Jn n < 1": (lambda: compute_Jn(QuadraticPresentation(C3.quiver, C3.relators), 0), "need n >= 1"),
    "minimal_model_general nmax < 2": (
        lambda: minimal_model_general(QuadraticPresentation(C3.quiver, C3.relators), 1),
        "need nmax >= 2",
    ),
    "presentations relator over another quiver": (
        lambda: PresentedAlgebra(LOOP, (AlgebraElement(OTHER_LOOP, {Path(1, ("x", "x")): 1}),)),
        "relator lives over a different quiver",
    ),
    "cy require_closure on a violated closure": (
        lambda: build_split(McKayData(2, (0, 1, 1))).require_closure(),
        "split closure violated: .*descending arrow with 2 descending factors",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_input_check_refuses_with_its_message(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()
