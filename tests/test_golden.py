"""CLI and serializer output pinned byte for byte.

The files under ``golden/`` were written before the changes they guard:
the first four by the Fraction-only implementation, the McKay (7;11113)
``compare-h0`` and (6;1^6) ``cy-check`` outputs by the span builders that
the normal-word and J_n recursions replaced, and the criterion-3
``cohomology`` outputs of McKay (2;1111) and (5;1112) by the Path-based
slices that the word-level slices replaced, and the ``cohomology``
output of the vertex-0 deletion of (5;1112), where images share leading
words so the exact elimination runs, by the code before apparent pairs,
and the ``cohomology`` outputs of the quantum model (Fraction
coefficients, ``j*`` arrow names) and of the conifold Ginzburg model
(starred arrows and loops) by the code that took each leading word from
the full image d(w), and the ``cy-check`` output of (7;11113) by the
Path-keyed bimodule Leibniz loops of ``cy``, and the
``minimal_model_general`` model of the McKay (3;111) commutation
presentation at nmax 4, the first with several vertices, by the loop
that solved for each J_n vector among the products of J_i and J_{n-i}
basis vectors, and the vertex-0 deletions of the (5;1112) model and
commutation presentation, the ``ginzburg --delete-vertex 0`` model of a
two-vertex potential and the algebra ``C`` of (7;11113) by the separate
restriction routines of ``koszul``, ``presentations``, ``ginzburg`` and
``cy``, and the ``verify`` report of the vertex-0 deletion of (3;111)
by the ``check_d_squared`` without a truncation bound, and the
``model-poly`` model for n = 4, the ``model-mckay --delete-zero`` model of
(2;1111) and the commutation presentation of (11;137), where the names
of the arrows at vertices 10 and up sort apart from their vertex order,
so the file pins the arrow and relator order, by the three loops that
wrote out the subset splits of the polynomial model, the McKay model and
the commuting squares, and the conifold Ginzburg model (acceptance
criterion 2) and the ``model-mckay`` model of (5;113), a criterion-5
case and the first undeleted McKay model pinned, by the code that read
the path cap from an argument as well as from ``DGQ_PATH_CAP``.  Any
change to the arithmetic, elimination, span or restriction kernels must
leave these outputs unchanged.  To rebuild them after a deliberate change
of output format, run ``python tests/test_golden.py --write`` from the
repository root with ``src`` on the path.
"""

from __future__ import annotations

import contextlib
import io
import sys
from fractions import Fraction
from pathlib import Path as FilePath

import pytest

from dgquiver import serialize
from dgquiver.cli import main
from dgquiver.core import Arrow, AlgebraElement, GradedQuiver, Path
from dgquiver.cy import build_C, build_split
from dgquiver.ginzburg import Superpotential, ginzburg_model
from dgquiver.koszul import (
    McKayData,
    delete_vertex,
    mckay_commutation_presentation,
    mckay_model,
    minimal_model_general,
    polynomial_model,
)
from dgquiver.presentations import QuadraticPresentation

GOLDEN = FilePath(__file__).parent / "golden"

QUANTUM_Q = {(1, 2): Fraction(3, 7), (1, 3): Fraction(-5, 11), (2, 3): Fraction(13, 2)}


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return out.getvalue()


def _write(path: FilePath, doc) -> str:
    path.write_text(serialize.dumps(doc))
    return str(path)


def _quantum_model():
    names = ("x1", "x2", "x3")
    quiver = GradedQuiver((0,), tuple(Arrow(x, 0, 0, 0, 1) for x in names))
    relators = tuple(
        AlgebraElement(quiver, {Path(0, (f"x{i}", f"x{j}")): 1, Path(0, (f"x{j}", f"x{i}")): -q})
        for (i, j), q in QUANTUM_Q.items()
    )
    return minimal_model_general(QuadraticPresentation(quiver, relators), 3)


def _conifold_model():
    ends = {"p": (0, 1), "q": (0, 1), "r": (1, 0), "s": (1, 0)}
    quiver = GradedQuiver((0, 1), tuple(Arrow(n, s, t, 0, 1) for n, (s, t) in ends.items()))
    w = Superpotential(quiver, {Path(0, ("p", "s", "q", "r")): 1, Path(0, ("p", "r", "q", "s")): -1})
    return ginzburg_model(w)


def _mckay_general_model():
    pres = mckay_commutation_presentation(McKayData(3, (1, 1, 1)))
    return minimal_model_general(QuadraticPresentation(pres.quiver, pres.relators), 4)


def _restriction_potential():
    """The potential of test_ginzburg's restriction test: its 4-cycle
    has coefficient 0 and drops out, the two cycles at vertex 1 stay."""
    quiver = GradedQuiver(
        (0, 1),
        (Arrow("u", 1, 1, 0, 1), Arrow("v", 1, 1, 0, 1), Arrow("p", 0, 1, 0, 1), Arrow("q", 1, 0, 0, 1)),
    )
    w = Superpotential(
        quiver,
        {
            Path(1, ("u", "u", "v")): Fraction(1),
            Path(0, ("p", "q", "p", "q")): Fraction(0),
            Path(1, ("u", "v", "v")): Fraction(2),
        },
    )
    return quiver, w


def golden_outputs(work: FilePath) -> dict[str, str]:
    poly = _write(work / "poly3.json", serialize.model_to_json(polynomial_model(3)))
    mckay = _write(work / "mckay3.json", serialize.model_to_json(mckay_model(McKayData(3, (1, 1, 1)))))
    deleted3 = _write(
        work / "deleted3.json", serialize.model_to_json(delete_vertex(mckay_model(McKayData(3, (1, 1, 1))), 0))
    )
    data = McKayData(5, (1, 1, 1, 2))
    deleted = _write(work / "deleted5.json", serialize.model_to_json(delete_vertex(mckay_model(data), 0)))
    quotient = _write(
        work / "quotient5.json",
        serialize.presentation_to_json(mckay_commutation_presentation(data).delete_vertex(0)),
    )
    data7 = McKayData(7, (1, 1, 1, 1, 3))
    deleted7 = _write(work / "deleted7.json", serialize.model_to_json(delete_vertex(mckay_model(data7), 0)))
    quotient7 = _write(
        work / "quotient7.json",
        serialize.presentation_to_json(mckay_commutation_presentation(data7).delete_vertex(0)),
    )
    mckay2 = _write(work / "mckay2.json", serialize.model_to_json(mckay_model(McKayData(2, (1, 1, 1, 1)))))
    mckay5 = _write(work / "mckay5.json", serialize.model_to_json(mckay_model(data)))
    quantum3 = _write(work / "quantum3.json", serialize.model_to_json(_quantum_model()))
    conifold = _write(work / "conifold.json", serialize.model_to_json(_conifold_model()))
    quiver, w = _restriction_potential()
    potential_quiver = _write(work / "potential_quiver.json", serialize.quiver_to_json(quiver))
    potential = _write(work / "potential.json", serialize.potential_to_json(w))
    window = ("--hmin", "-4", "--adams-max", "4")
    criterion3 = ("--hmin", "-6", "--adams-max", "6")
    return {
        "cohomology_poly3.json": _cli("cohomology", "--model", poly, *window),
        "cohomology_mckay3_111.json": _cli("cohomology", "--model", mckay, *window),
        "cohomology_mckay2_1111.json": _cli("cohomology", "--model", mckay2, *criterion3),
        "cohomology_mckay5_1112.json": _cli("cohomology", "--model", mckay5, *criterion3),
        "cohomology_mckay5_1112_del0.json": _cli("cohomology", "--model", deleted, *criterion3),
        "cohomology_quantum3.json": _cli("cohomology", "--model", quantum3, *criterion3),
        "cohomology_conifold.json": _cli("cohomology", "--model", conifold, *criterion3),
        "compare_h0_mckay5_1112.json": _cli(
            "compare-h0", "--model", deleted, "--presentation", quotient, "--adams-max", "5"
        ),
        "compare_h0_mckay7_11113.json": _cli(
            "compare-h0", "--model", deleted7, "--presentation", quotient7, "--adams-max", "6"
        ),
        "cy_check_mckay6_111111.json": _cli("cy-check", "--m", "6", "--weights", "1,1,1,1,1,1", "--adams-max", "4"),
        "cy_check_mckay7_11113.json": _cli("cy-check", "--m", "7", "--weights", "1,1,1,1,3", "--adams-max", "5"),
        "quantum3_model.json": serialize.dumps(serialize.model_to_json(_quantum_model())),
        "mckay3_111_general_model.json": serialize.dumps(serialize.model_to_json(_mckay_general_model())),
        "model_mckay5_1112_del0.json": _cli("model-mckay", "--m", "5", "--weights", "1,1,1,2", "--delete-zero"),
        "presentation_mckay5_1112_del0.json": FilePath(quotient).read_text(),
        "ginzburg_restricted_del0.json": _cli(
            "ginzburg", "--quiver", potential_quiver, "--potential", potential, "--delete-vertex", "0"
        ),
        "c_mckay7_11113.json": serialize.dumps(serialize.presentation_to_json(build_C(build_split(data7)))),
        "verify_mckay3_111_del0.json": _cli("verify", "--model", deleted3),
        "model_poly4.json": _cli("model-poly", "--n", "4"),
        "model_mckay2_1111_del0.json": _cli("model-mckay", "--m", "2", "--weights", "1,1,1,1", "--delete-zero"),
        "presentation_mckay11_137.json": serialize.dumps(
            serialize.presentation_to_json(mckay_commutation_presentation(McKayData(11, (1, 3, 7))))
        ),
        "model_conifold.json": FilePath(conifold).read_text(),
        "model_mckay5_113.json": _cli("model-mckay", "--m", "5", "--weights", "1,1,3"),
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize(
    "name",
    [
        "cohomology_poly3.json",
        "cohomology_mckay3_111.json",
        "cohomology_mckay2_1111.json",
        "cohomology_mckay5_1112.json",
        "cohomology_mckay5_1112_del0.json",
        "cohomology_quantum3.json",
        "cohomology_conifold.json",
        "compare_h0_mckay5_1112.json",
        "compare_h0_mckay7_11113.json",
        "cy_check_mckay6_111111.json",
        "cy_check_mckay7_11113.json",
        "quantum3_model.json",
        "mckay3_111_general_model.json",
        "model_mckay5_1112_del0.json",
        "presentation_mckay5_1112_del0.json",
        "ginzburg_restricted_del0.json",
        "c_mckay7_11113.json",
        "verify_mckay3_111_del0.json",
        "model_poly4.json",
        "model_mckay2_1111_del0.json",
        "presentation_mckay11_137.json",
        "model_conifold.json",
        "model_mckay5_113.json",
    ],
)
def test_output_matches_golden_file(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_text()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in golden_outputs(FilePath(tmp)).items():
            (GOLDEN / name).write_text(text)
