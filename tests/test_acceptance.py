"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime and enforcing its time budget.  All checks are exact
(rational arithmetic); there are no tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb

from dgquiver import (
    AlgebraElement,
    Arrow,
    GradedQuiver,
    McKayData,
    Path,
    QuadraticPresentation,
    Superpotential,
    build_and_check_omega,
    build_omega_tilde,
    build_split,
    check_C_koszul_and_model,
    check_d_squared,
    check_grading,
    cohomology_dims,
    compare_h0,
    cyclic_derivative,
    delete_vertex,
    ginzburg_model,
    mckay_model,
    minimal_model_general,
    polynomial_model,
    restrict_potential,
    shuffle_sign,
)
from dgquiver.cli import main
from dgquiver.homology import _stream_slices
from dgquiver.koszul import mckay_arrow_name, mckay_commutation_presentation
from oracles import mckay_h0_oracle, polynomial_h0_dim


@contextmanager
def budget(label: str, seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {label}: PASS ({elapsed:.2f}s, budget {seconds:.0f}s)")
    assert elapsed < seconds, f"{label} exceeded its {seconds}s budget: {elapsed:.2f}s"


def test_criterion_1_cyclic_order_two_example(capsys, tmp_path):
    """Deleted model for m=2, weights (1,1,1,1): six hdeg -1 loops, one
    hdeg -3 loop with the exact six-term differential."""
    with budget("criterion 1 (order-two deleted model)", 1.0):
        out_file = tmp_path / "model.json"
        code = main(
            ["model-mckay", "--m", "2", "--weights", "1,1,1,1", "--delete-zero", "--out", str(out_file)]
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["quiver"]["vertices"] == [1]
        by_hdeg = defaultdict(list)
        for a in doc["quiver"]["arrows"]:
            assert a["source"] == 1 and a["target"] == 1
            by_hdeg[a["hdeg"]].append(a["id"])
        assert sorted(by_hdeg) == [-3, -1]
        assert sorted(by_hdeg[-1]) == [
            mckay_arrow_name(1, pair) for pair in combinations((1, 2, 3, 4), 2)
        ]
        assert by_hdeg[-3] == [mckay_arrow_name(1, (1, 2, 3, 4))]
        # the six pair loops are closed
        assert set(doc["differential"]) == {mckay_arrow_name(1, (1, 2, 3, 4))}
        # d(x_1234) = -[x12, x34] - [x23, x14] + [x24, x13], commutators of
        # odd generators expanded to uv + vu
        x = lambda i, j: mckay_arrow_name(1, (i, j))
        expected = {
            (x(1, 2), x(3, 4)): "-1",
            (x(3, 4), x(1, 2)): "-1",
            (x(2, 3), x(1, 4)): "-1",
            (x(1, 4), x(2, 3)): "-1",
            (x(2, 4), x(1, 3)): "1",
            (x(1, 3), x(2, 4)): "1",
        }
        got = {
            tuple(t["path"]): t["coeff"]
            for t in doc["differential"][mckay_arrow_name(1, (1, 2, 3, 4))]
        }
        assert got == expected


def _conifold():
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
    return w


def test_criterion_2_conifold_example():
    """Conifold potential: d^2 = 0, restriction kills the potential, and
    the restricted model has the cohomology of k[c] with |c| = -2."""
    with budget("criterion 2 (conifold restriction)", 1.0):
        w = _conifold()
        model = ginzburg_model(w)
        assert check_d_squared(model.differential)["status"] == "pass"
        w0 = restrict_potential(w, 0)
        assert w0.quiver.vertices == (1,)
        assert w0.terms == {}
        model0 = ginzburg_model(w0)
        dims = cohomology_dims(model0, -8, 8)
        for h in range(0, -9, -1):
            total = sum(v for (hh, _a), v in dims.items() if hh == h)
            assert total == (1 if h % 2 == 0 else 0), (h, total)


def test_criterion_3_quasi_isomorphism_at_truncation():
    """H^{<0} vanishes and H^0 agrees with the weighted-monomial oracle
    for the polynomial and McKay models, through Adams degree 6."""
    with budget("criterion 3 (truncated quasi-isomorphism)", 60.0):
        for n in (2, 3, 4):
            model = polynomial_model(n)
            dims = cohomology_dims(model, -6, 6)
            for (h, a), v in dims.items():
                expected = polynomial_h0_dim(n, a) if h == 0 else 0
                assert v == expected, (n, h, a, v)
        for m, weights in ((2, (1, 1, 1, 1)), (3, (1, 1, 1)), (5, (1, 1, 1, 2))):
            model = mckay_model(McKayData(m, weights))
            dims = cohomology_dims(model, -6, 6, by_component=True)
            assert all(h == 0 for (h, _a, _s, _t) in dims), (m, weights)
            h0 = {(s, t, a): v for (h, a, s, t), v in dims.items() if h == 0}
            assert h0 == mckay_h0_oracle(m, weights, 6), (m, weights)


def test_criterion_4_h0_of_the_quotient():
    """compare_h0 between the deleted McKay model and the independently
    built commutation presentation with the zero vertex deleted; the
    total dimension stabilizes (finite-dimensionality)."""
    with budget("criterion 4 (H^0 of the quotient)", 60.0):
        expected_totals = {
            (2, (1, 1, 1, 1)): 1,
            (3, (1, 1, 1)): 5,
            (5, (1, 1, 1, 2)): 44,
        }
        for (m, weights), total in expected_totals.items():
            data = McKayData(m, weights)
            model = delete_vertex(mckay_model(data), 0)
            pres = mckay_commutation_presentation(data).delete_vertex(0)
            report = compare_h0(model, pres, 6)
            assert report["status"] == "pass", (m, weights, report)
            assert report["total_dim"] == total, (m, weights, report)
            # stabilization: nothing survives in the top truncation degrees
            from dgquiver import truncated_dims

            dims = truncated_dims(pres, 6)
            assert all(a <= 3 for (_s, _t, a) in dims), (m, weights, dims)


def _random_quadratic_presentation(rng):
    nv = rng.randrange(1, 3)
    arrows = tuple(
        Arrow(f"a{i}", rng.randrange(nv), rng.randrange(nv), 0, 1)
        for i in range(rng.randrange(2, 5))
    )
    q = GradedQuiver(tuple(range(nv)), arrows)
    paths_by_block = defaultdict(list)
    for a in q.arrows:
        for b in q.out_arrows(a.target):
            paths_by_block[(a.source, b.target)].append(Path(a.source, (a.name, b.name)))
    relators = []
    for paths in paths_by_block.values():
        for _ in range(rng.randrange(0, 3)):
            chosen = rng.sample(paths, min(len(paths), rng.randrange(1, 4)))
            el = AlgebraElement(q, {p: Fraction(rng.randrange(-2, 3)) for p in chosen})
            if el:
                relators.append(el)
    return QuadraticPresentation(q, tuple(relators))


def _random_cycles(quiver, rng, count, max_len):
    cycles = []
    for _ in range(count * 10):
        if len(cycles) >= count:
            break
        v = rng.choice(quiver.vertices)
        walk, at = [], v
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


def _random_potential(rng):
    nv = rng.randrange(1, 4)
    arrows = tuple(
        Arrow(f"a{i}", rng.randrange(nv), rng.randrange(nv), 0, 1)
        for i in range(rng.randrange(2, 6))
    )
    quiver = GradedQuiver(tuple(range(nv)), arrows)
    cycles = _random_cycles(quiver, rng, count=rng.randrange(1, 4), max_len=5)
    terms = {p: Fraction(rng.randrange(-3, 4) or 1) for p in cycles}
    return Superpotential(quiver, terms)


def test_criterion_5_d_squared_suite():
    """d^2 = 0 across every construction, plus the cyclic-derivative
    identity sum_a [dw/da, a] = 0 on at least 100 random potentials."""
    with budget("criterion 5 (d^2 = 0 suite)", 120.0):
        rng = random.Random(20240817)
        # general quadratic minimal models over random presentations
        for _ in range(10):
            pres = _random_quadratic_presentation(rng)
            model = minimal_model_general(pres, nmax=4)
            assert check_grading(model.differential)["status"] == "pass"
            assert check_d_squared(model.differential)["status"] == "pass"
        # polynomial models up to n = 5
        for n in range(1, 6):
            model = polynomial_model(n)
            assert check_d_squared(model.differential)["status"] == "pass"
        # McKay models with valid weights, m <= 6
        mckay_cases = [
            (2, (1, 1)),
            (2, (1, 1, 1, 1)),
            (3, (1, 2)),
            (3, (1, 1, 1)),
            (4, (1, 3)),
            (5, (1, 1, 3)),
            (5, (1, 1, 1, 2)),
            (6, (1, 5)),
            (6, (1, 1, 1, 1, 1, 1)),
        ]
        for m, weights in mckay_cases:
            model = mckay_model(McKayData(m, weights))
            assert check_grading(model.differential)["status"] == "pass"
            assert check_d_squared(model.differential)["status"] == "pass", (m, weights)
        # Ginzburg models over random potentials
        checked = 0
        identity_checked = 0
        while checked < 25 or identity_checked < 100:
            w = _random_potential(rng)
            if not w.terms:
                continue
            total = w.quiver.zero()
            for a in w.quiver.arrows:
                da = cyclic_derivative(w, a.name)
                total = total + da * w.quiver.gen(a.name) - w.quiver.gen(a.name) * da
            assert total.is_zero()
            identity_checked += 1
            if checked < 25:
                model = ginzburg_model(w)
                assert check_d_squared(model.differential)["status"] == "pass"
                checked += 1
        assert identity_checked >= 100


def test_criterion_6_pairing_suite():
    """Split closure, truncated Koszulity of C and the pairing element
    checks for the weight-sum cases, plus the failing control."""
    with budget("criterion 6 (pairing suite)", 60.0):
        for m, weights in ((3, (1, 1, 1)), (4, (1, 1, 1, 1)), (5, (1, 1, 1, 2))):
            s = build_split(McKayData(m, weights))
            assert s.closure_holds, (m, weights)
            assert check_C_koszul_and_model(s, nadams=5)["status"] == "pass", (m, weights)
            report = build_and_check_omega(build_omega_tilde(s))
            assert report["status"] == "pass", (m, weights, report)
            assert report["degree"] == -len(weights) + 1
            assert report["closed"] and report["nondegenerate"]
        control = build_split(McKayData(2, (1, 1, 1, 1)))
        assert not control.closure_holds
        assert control.closure["witness"]["reason"].startswith("descending arrow")


def test_criterion_7_sign_laws_and_invariants():
    """Shuffle-sign law exhaustively for n <= 8; graded Leibniz and Euler
    characteristic on >= 1000 randomized cases."""
    with budget("criterion 7 (sign laws)", 30.0):
        for n in range(1, 9):
            universe = tuple(range(1, n + 1))
            for k in range(n + 1):
                for a in combinations(universe, k):
                    b = tuple(sorted(set(universe) - set(a)))
                    assert shuffle_sign(a, b) * shuffle_sign(b, a) == (-1) ** (len(a) * len(b))

        rng = random.Random(99)
        models = [polynomial_model(2), polynomial_model(3), mckay_model(McKayData(3, (1, 1, 1)))]
        cases = 0
        for _ in range(800):
            model = rng.choice(models)
            q = model.quiver
            names = [a.name for a in q.arrows]
            u = q.gen(rng.choice(names))
            for _ in range(rng.randrange(3)):
                u = u * q.gen(rng.choice(names))
            v = q.gen(rng.choice(names))
            if not u or not v:
                cases += 1
                continue
            sign = Fraction((-1) ** (u.hdeg() % 2))
            d = model.differential
            assert d(u * v) == d(u) * v + sign * (u * d(v))
            cases += 1
        # Euler characteristic: alternating cohomology sum equals the
        # alternating slice-dimension sum in every Adams degree
        tables = {}
        for _ in range(300):
            i = rng.randrange(len(models))
            model = models[i]
            if i not in tables:
                euler_c = [0] * 6
                for _s, aa, level in _stream_slices(model.quiver, -5, 5):
                    for (h, _t), (words, _lead, _fixed) in level.items():
                        euler_c[aa] += (-1) ** h * len(words)
                tables[i] = (cohomology_dims(model, -5, 5), euler_c)
            dims, euler_c = tables[i]
            a = rng.randrange(1, 6)
            euler_h = sum((-1) ** h * dims[(h, a)] for h in range(-5, 1))
            assert euler_h == euler_c[a], (i, a)
            cases += 1
        assert cases >= 1000
