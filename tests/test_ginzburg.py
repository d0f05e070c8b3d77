"""Superpotentials, cyclic derivatives and the Ginzburg construction."""

import random
from fractions import Fraction

import pytest

from dgquiver import (
    Arrow,
    GradedQuiver,
    InvalidInputError,
    Path,
    Superpotential,
    check_d_squared,
    check_grading,
    cohomology_dims,
    cyclic_derivative,
    delete_vertex,
    ginzburg_model,
    jacobian_presentation,
    restrict_potential,
)
from dgquiver.ginzburg import loop_name, star_name


@pytest.fixture
def conifold():
    """Two vertices, arrows p, q: 0 -> 1 and r, s: 1 -> 0, w = psqr - prqs."""
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
    return quiver, w


def test_superpotential_normalizes_rotations(conifold):
    quiver, _ = conifold
    w1 = Superpotential(quiver, {Path(0, ("p", "s", "q", "r")): Fraction(1)})
    w2 = Superpotential(quiver, {Path(1, ("s", "q", "r", "p")): Fraction(1)})
    assert w1.terms == w2.terms
    # rotations of the same cycle cancel against each other
    cancel = Superpotential(
        quiver,
        {
            Path(0, ("p", "s", "q", "r")): Fraction(1),
            Path(1, ("s", "q", "r", "p")): Fraction(-1),
        },
    )
    assert cancel.terms == {}


def test_superpotential_rejects_noncycles(conifold):
    quiver, _ = conifold
    with pytest.raises(InvalidInputError):
        Superpotential(quiver, {Path(0, ("p",)): Fraction(1)})
    with pytest.raises(InvalidInputError):
        Superpotential(quiver, {Path(0): Fraction(1)})


def test_cyclic_derivative_conifold(conifold):
    quiver, w = conifold
    dp = cyclic_derivative(w, "p")
    assert dp == quiver.element(
        {Path(1, ("s", "q", "r")): 1, Path(1, ("r", "q", "s")): -1}
    )
    assert len(jacobian_presentation(w).relators) == 4


def test_cyclic_derivative_power():
    quiver = GradedQuiver((0,), (Arrow("a", 0, 0, 0, 1),))
    w = Superpotential(quiver, {Path(0, ("a", "a", "a")): Fraction(1)})
    da = cyclic_derivative(w, "a")
    assert da == quiver.element({Path(0, ("a", "a")): 3})


def test_cyclic_derivative_rotation_invariance(conifold):
    quiver, _ = conifold
    for start, cycle in ((0, ("p", "s", "q", "r")), (1, ("s", "q", "r", "p")), (1, ("r", "p", "s", "q"))):
        w = Superpotential(quiver, {Path(start, cycle): Fraction(1)})
        assert cyclic_derivative(w, "p") == quiver.element({Path(1, ("s", "q", "r")): 1})


def test_ginzburg_model_conifold(conifold):
    _, w = conifold
    model = ginzburg_model(w)
    q = model.quiver
    stars = [a for a in q.arrows if a.hdeg == -1]
    loops = [a for a in q.arrows if a.hdeg == -2]
    assert len(stars) == 4 and len(loops) == 2
    assert q.arrow(star_name("p")).source == 1 and q.arrow(star_name("p")).target == 0
    assert model.metadata["adams_homogeneous"] is True
    assert model.metadata["potential_adeg"] == 4
    assert check_d_squared(model.differential)["status"] == "pass"
    # d(c_v) = e_v (sum over arrows [a*, a]) e_v
    dc0 = model.differential.of_arrow(loop_name(0))
    expected = {
        Path(0, (star_name("r"), "r")): Fraction(1),
        Path(0, (star_name("s"), "s")): Fraction(1),
        Path(0, ("p", star_name("p"))): Fraction(-1),
        Path(0, ("q", star_name("q"))): Fraction(-1),
    }
    assert dc0.terms == expected


def test_jacobian_identity_on_random_potentials():
    """sum_a [dw/da, a] = 0 for arbitrary potentials."""
    rng = random.Random(2024)
    for case in range(120):
        nv = rng.randrange(1, 4)
        vertices = tuple(range(nv))
        arrows = tuple(
            Arrow(f"a{i}", rng.randrange(nv), rng.randrange(nv), 0, 1)
            for i in range(rng.randrange(2, 6))
        )
        quiver = GradedQuiver(vertices, arrows)
        cycles = _random_cycles(quiver, rng, count=rng.randrange(1, 4), max_len=5)
        if not cycles:
            continue
        w = Superpotential(
            quiver,
            {p: Fraction(rng.randrange(-3, 4) or 1) for p in cycles},
        )
        total = quiver.zero()
        for a in quiver.arrows:
            da = cyclic_derivative(w, a.name)
            total = total + da * quiver.gen(a.name) - quiver.gen(a.name) * da
        assert total.is_zero(), f"case {case}"


def _random_cycles(quiver, rng, count, max_len):
    cycles = []
    for _ in range(count * 10):
        if len(cycles) >= count:
            break
        v = rng.choice(quiver.vertices)
        walk = []
        at = v
        for _ in range(rng.randrange(1, max_len + 1)):
            outs = quiver.out_arrows(at)
            if not outs:
                break
            a = rng.choice(outs)
            walk.append(a.name)
            at = a.target
        if walk and at == v:
            cycles.append(Path(v, tuple(walk)))
    return cycles


def test_restrict_potential_conifold(conifold):
    _, w = conifold
    w0 = restrict_potential(w, 0)
    assert w0.quiver.vertices == (1,)
    assert w0.quiver.arrows == ()
    assert w0.terms == {}
    model0 = ginzburg_model(w0)
    # one loop c_1 in hdeg -2 and nothing else: cohomology is k[c]
    dims = cohomology_dims(model0, -8, 8)  # the loop has adeg 2, so c^4 sits in adeg 8
    for h in range(0, -9, -1):
        total = sum(v for (hh, a), v in dims.items() if hh == h)
        assert total == (1 if h % 2 == 0 else 0)


def test_restriction_commutes_with_construction():
    """Deleting a vertex of the Ginzburg model equals building the model
    of the restricted potential, when the surviving potential is nonzero
    and of the same cycle length."""
    quiver = GradedQuiver(
        (0, 1),
        (
            Arrow("u", 1, 1, 0, 1),
            Arrow("v", 1, 1, 0, 1),
            Arrow("p", 0, 1, 0, 1),
            Arrow("q", 1, 0, 0, 1),
        ),
    )
    w = Superpotential(
        quiver,
        {
            Path(1, ("u", "u", "v")): Fraction(1),
            Path(0, ("p", "q", "p", "q")): Fraction(0),  # drops out
            Path(1, ("u", "v", "v")): Fraction(2),
        },
    )
    left = delete_vertex(ginzburg_model(w), 0)
    right = ginzburg_model(restrict_potential(w, 0))
    assert set(a.name for a in left.quiver.arrows) == set(a.name for a in right.quiver.arrows)
    for a in left.quiver.arrows:
        assert left.differential.of_arrow(a.name).terms == right.differential.of_arrow(a.name).terms


def test_ginzburg_inhomogeneous_potential_falls_back_to_length():
    quiver = GradedQuiver((0,), (Arrow("a", 0, 0, 0, 1),))
    w = Superpotential(
        quiver,
        {Path(0, ("a", "a")): Fraction(1), Path(0, ("a", "a", "a")): Fraction(1)},
    )
    model = ginzburg_model(w)
    assert model.metadata["adams_homogeneous"] is False
    assert model.quiver.arrow(star_name("a")).adeg == 1
    assert model.quiver.arrow(loop_name(0)).adeg == 2


def test_grading_of_ginzburg_model(conifold):
    _, w = conifold
    model = ginzburg_model(w)
    # d raises hdeg by one and preserves adeg on every arrow with nonzero d
    for name, da in model.differential.on_arrows.items():
        a = model.quiver.arrow(name)
        assert da.hdeg() == a.hdeg + 1
        assert da.adeg() == a.adeg
    assert check_grading(model.differential)["status"] == "pass"
