"""The benchmark's workloads.

Each workload's set-up builds its inputs with the library constructors
and writes them as the JSON files a CLI user would pass.  It returns the
cases of one pass.  A case loads its inputs from those files, through the
CLI or ``serialize``, so no program object outlives a case.  A case's
``call`` is the timed part; ``check`` compares its answer with the
closed-form reference in ``reference.py`` and returns a description of
the first mismatch, or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference


@dataclass
class Case:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _write(lib, path: Path, doc) -> str:
    path.write_text(lib.serialize.dumps(doc))
    return str(path)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _cli(lib, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
        return code, out.getvalue()

    return call


def _cli_check(expect: Callable[[dict], str | None]) -> Callable[[tuple[int, str]], str | None]:
    def check(answer):
        code, text = answer
        if code != 0:
            return f"exit code {code}"
        return expect(json.loads(text))

    return check


def _label(m: int, weights: tuple[int, ...]) -> str:
    return f"({m};{''.join(map(str, weights))})"


def _diff(got: dict, want: dict) -> str | None:
    for key in sorted(set(got) | set(want), key=str):
        if got.get(key) != want.get(key):
            return f"at {key}: got {got.get(key)}, want {want.get(key)}"
    return None


# --------------------------------------------------------------------------
# cohomology: the criterion-3 set through the CLI

HMIN, COHOMOLOGY_ADAMS = -6, 6
POLY_CASES = (2, 3, 4)
MCKAY_CASES = ((2, (1, 1, 1, 1)), (3, (1, 1, 1)), (5, (1, 1, 1, 2)))


def cohomology(lib, work: Path, seed: int) -> list[Case]:
    inputs = []
    for n in POLY_CASES:
        model = lib.koszul.polynomial_model(n)
        path = _write(lib, work / f"poly{n}.json", lib.serialize.model_to_json(model))
        h0 = {a: reference.monomials(n, a) for a in range(COHOMOLOGY_ADAMS + 1)}
        inputs.append((f"poly n={n}", path, h0))
    for m, weights in MCKAY_CASES:
        model = lib.koszul.mckay_model(lib.koszul.McKayData(m, weights))
        path = _write(lib, work / f"mckay{m}.json", lib.serialize.model_to_json(model))
        h0 = {a: 0 for a in range(COHOMOLOGY_ADAMS + 1)}
        for (_s, _t, a), dim in reference.weighted_monomials(m, weights, COHOMOLOGY_ADAMS).items():
            h0[a] += dim
        inputs.append((f"mckay {_label(m, weights)}", path, h0))

    cases = []
    for name, path, h0 in inputs:
        want = reference.cohomology_table(HMIN, COHOMOLOGY_ADAMS, h0)
        argv = ["cohomology", "--model", path, "--hmin", str(HMIN), "--adams-max", str(COHOMOLOGY_ADAMS)]
        cases.append(Case(name, _cli(lib, argv), _cli_check(lambda doc, want=want: _diff(doc["dims"], want))))
    return cases


# --------------------------------------------------------------------------
# presented: McKay quotient presentations, in two halves that stress
# different layers and run as one workload (README.md says why).  The
# ideal half: H^0 comparisons of deleted McKay models and one ideal span,
# rank on redundant binomial rows while the differential idles.

COMPARE_CASES = ((5, (1, 1, 1, 2), 8), (7, (1, 1, 1, 1, 3), 6))
SPAN_CASE = (5, (1, 1, 1, 2), 6)


def _ideal(lib, work: Path) -> list[Case]:
    koszul = lib.koszul
    cases = []
    for m, weights, nadams in COMPARE_CASES:
        data = koszul.McKayData(m, weights)
        model = koszul.delete_vertex(koszul.mckay_model(data), 0)
        pres = koszul.mckay_commutation_presentation(data).delete_vertex(0)
        model_path = _write(lib, work / f"deleted{m}.json", lib.serialize.model_to_json(model))
        pres_path = _write(lib, work / f"quotient{m}.json", lib.serialize.presentation_to_json(pres))
        total = reference.deleted_quotient_dim(m, weights, nadams)

        def expect(doc, total=total):
            if doc["status"] != "pass":
                return f"status {doc['status']}: {doc.get('witness')}"
            if doc["total_dim"] != total:
                return f"total_dim {doc['total_dim']}, want {total}"
            return None

        argv = ["compare-h0", "--model", model_path, "--presentation", pres_path, "--adams-max", str(nadams)]
        cases.append(Case(f"compare-h0 {_label(m, weights)}", _cli(lib, argv), _cli_check(expect)))

    m, weights, nadams = SPAN_CASE
    pres = koszul.mckay_commutation_presentation(koszul.McKayData(m, weights))
    pres_path = _write(lib, work / f"commutation{m}.json", lib.serialize.presentation_to_json(pres))
    want = reference.weighted_monomials(m, weights, nadams)

    def span():
        return lib.homology.truncated_dims(lib.serialize.presentation_from_json(_load(pres_path)), nadams)

    cases.append(Case(f"truncated_dims {_label(m, weights)}", span, lambda got: _diff(got, want)))
    return cases


# The lattice half: J_n of a six-variable McKay presentation and two
# cy-checks, row_reduce, intersect_rowspaces and the cy pipeline.

LATTICE_DATA = (6, (1, 1, 1, 1, 1, 1))
JN_DEGREES = (1, 2, 3, 4)
CY_CASES = ((6, (1, 1, 1, 1, 1, 1), 4), (7, (1, 1, 1, 1, 3), 5))
CY_CHECKS = ("closure", "koszul_truncated", "omega_tilde_d_squared", "omega")


def _lattice(lib, work: Path) -> list[Case]:
    m, weights = LATTICE_DATA
    pres = lib.koszul.mckay_commutation_presentation(lib.koszul.McKayData(m, weights))
    pres_path = _write(lib, work / f"commutation{m}.json", lib.serialize.presentation_to_json(pres))
    cases = []
    for k in JN_DEGREES:
        want = reference.koszul_dual_dim(m, len(weights), k)

        def jn(k=k):
            loaded = lib.serialize.presentation_from_json(_load(pres_path))
            quadratic = lib.presentations.QuadraticPresentation(loaded.quiver, loaded.relators)
            return len(lib.koszul.compute_Jn(quadratic, k))

        cases.append(Case(f"J_{k}", jn, lambda got, want=want: None if got == want else f"dim {got}, want {want}"))

    for m, weights, nadams in CY_CASES:

        def expect(doc, n=len(weights)):
            if doc["status"] != "pass":
                return f"status {doc['status']}"
            for key in CY_CHECKS:
                if doc[key]["status"] != "pass":
                    return f"{key}: {doc[key]}"
            if doc["omega"]["degree"] != 1 - n:
                return f"omega degree {doc['omega']['degree']}, want {1 - n}"
            return None

        argv = ["cy-check", "--m", str(m), "--weights", ",".join(map(str, weights)), "--adams-max", str(nadams)]
        cases.append(Case(f"cy-check {_label(m, weights)}", _cli(lib, argv), _cli_check(expect)))
    return cases


def presented(lib, work: Path, seed: int) -> list[Case]:
    return _ideal(lib, work) + _lattice(lib, work)


# --------------------------------------------------------------------------
# rational: a quantum polynomial ring with seed-drawn rational parameters

RATIONAL_VARS = 5
RATIONAL_NMAX = 5
RATIONAL_HMIN, RATIONAL_ADAMS = -6, 6
# q_ij = ±p/r for distinct primes p, r drawn from this window, so every
# seed gives rows of about the same height and about the same cost.
Q_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def quantum_parameters(seed: int) -> dict[tuple[int, int], Fraction]:
    rng = random.Random(f"rational-{seed}")
    params = {}
    for i in range(1, RATIONAL_VARS + 1):
        for j in range(i + 1, RATIONAL_VARS + 1):
            p, r = rng.sample(Q_PRIMES, 2)
            params[(i, j)] = Fraction(rng.choice((-1, 1)) * p, r)
    return params


def rational(lib, work: Path, seed: int) -> list[Case]:
    core = lib.core
    names = [f"x{i}" for i in range(1, RATIONAL_VARS + 1)]
    quiver = core.GradedQuiver((0,), tuple(core.Arrow(x, 0, 0, 0, 1) for x in names))
    relators = tuple(
        core.AlgebraElement(
            quiver,
            {core.Path(0, (f"x{i}", f"x{j}")): 1, core.Path(0, (f"x{j}", f"x{i}")): -q},
        )
        for (i, j), q in quantum_parameters(seed).items()
    )
    pres = lib.presentations.QuadraticPresentation(quiver, relators)
    pres_path = _write(lib, work / "quantum.json", lib.serialize.presentation_to_json(pres))

    def resolve():
        loaded = lib.serialize.presentation_from_json(_load(pres_path))
        quadratic = lib.presentations.QuadraticPresentation(loaded.quiver, loaded.relators)
        model = lib.koszul.minimal_model_general(quadratic, RATIONAL_NMAX)
        gens = {}
        for arrow in model.quiver.arrows:
            gens[arrow.adeg] = gens.get(arrow.adeg, 0) + 1
        table = lib.homology.cohomology_dims(model, RATIONAL_HMIN, RATIONAL_ADAMS)
        return gens, {f"{h},{a}": v for (h, a), v in table.items()}

    want_gens = {k: reference.exterior_generators(RATIONAL_VARS, k) for k in range(1, RATIONAL_NMAX + 1)}
    h0 = {a: reference.monomials(RATIONAL_VARS, a) for a in range(RATIONAL_ADAMS + 1)}
    want_table = reference.cohomology_table(RATIONAL_HMIN, RATIONAL_ADAMS, h0)

    def check(answer):
        gens, table = answer
        return _diff(gens, want_gens) or _diff(table, want_table)

    return [Case(f"quantum k[x1..x{RATIONAL_VARS}]", resolve, check)]


WORKLOADS = {
    "cohomology": cohomology,
    "presented": presented,
    "rational": rational,
}
