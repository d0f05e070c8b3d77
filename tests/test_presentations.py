"""Presentation containers: relator validation and vertex deletion."""

import pytest

from dgquiver import (
    AlgebraElement,
    Arrow,
    GradedQuiver,
    InvalidInputError,
    Path,
    PresentedAlgebra,
    QuadraticPresentation,
)


@pytest.fixture
def quiver():
    return GradedQuiver(
        (0, 1, 2),
        (
            Arrow("a", 0, 1, 0, 1),
            Arrow("b", 1, 2, 0, 1),
            Arrow("c", 0, 1, 0, 1),
        ),
    )


def test_relator_validation(quiver):
    q = quiver
    good = q.gen("a") * q.gen("b") - q.gen("c") * q.gen("b")
    QuadraticPresentation(q, (good,))
    with pytest.raises(InvalidInputError):  # zero relator
        QuadraticPresentation(q, (q.zero(),))
    with pytest.raises(InvalidInputError):  # not component-pure
        PresentedAlgebra(q, (q.gen("a") + q.gen("b"),))
    with pytest.raises(InvalidInputError):  # not quadratic
        QuadraticPresentation(q, (q.gen("a"),))
    # general presentations accept linear relators
    PresentedAlgebra(q, (q.gen("a") - q.gen("c"),))


@pytest.mark.parametrize("presentation", [QuadraticPresentation, PresentedAlgebra])
@pytest.mark.parametrize(
    "path",
    [
        Path(1, ("a", "c")),  # a ends at 1, c starts at 0
        Path(0, ("b", "a")),  # b starts at 1, not at 0
        Path(0, ("a", "z")),  # no arrow z
        Path(7, ()),  # no vertex 7
    ],
)
def test_relator_terms_must_be_paths(quiver, presentation, path):
    """Relators are built over the quiver but their terms are not
    checked there; a term that is no path of the quiver is rejected, with
    the exit code of bad input, not a number for a non-presentation."""
    good = Path(0, ("a", "b"))
    with pytest.raises(InvalidInputError, match="not a path"):
        presentation(quiver, (AlgebraElement(quiver, {path: 1}),))
    with pytest.raises(InvalidInputError, match="not a path"):
        presentation(quiver, (AlgebraElement(quiver, {good: 1, path: -1}),))


def test_quadratic_requires_degree_01():
    q = GradedQuiver((0,), (Arrow("a", 0, 0, -1, 1),))
    with pytest.raises(InvalidInputError):
        QuadraticPresentation(q, ())
    q2 = GradedQuiver((0,), (Arrow("a", 0, 0, 0, 2),))
    with pytest.raises(InvalidInputError):
        QuadraticPresentation(q2, ())


def test_delete_vertex(quiver):
    q = quiver
    pres = PresentedAlgebra(q, (q.gen("a") * q.gen("b") - q.gen("c") * q.gen("b"),))
    out = pres.delete_vertex(1)
    assert out.quiver.vertices == (0, 2)
    assert out.quiver.arrows == ()
    assert out.relators == ()
    with pytest.raises(InvalidInputError):
        pres.delete_vertex(9)
