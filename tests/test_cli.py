"""Command-line interface: exit codes, determinism, file round trips."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import dgquiver
from dgquiver import GradedQuiver, McKayData, h0_presentation, mckay_model, polynomial_model, serialize
from dgquiver import cli
from dgquiver.cli import main
from dgquiver.koszul import mckay_commutation_presentation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_model_poly(capsys):
    code, out, _ = run(capsys, "model-poly", "--n", "2", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert {a["id"] for a in doc["quiver"]["arrows"]} == {"x1", "x2", "x12"}
    assert doc["differential"]["x12"] == [
        {"start": 0, "path": ["x1", "x2"], "coeff": "1"},
        {"start": 0, "path": ["x2", "x1"], "coeff": "-1"},
    ]


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "model-mckay", "--m", "3", "--weights", "1,1,1")
    _, second, _ = run(capsys, "model-mckay", "--m", "3", "--weights", "1,1,1")
    assert first == second


def test_roundtrip_through_files_is_byte_identical(capsys, tmp_path):
    path = tmp_path / "model.json"
    code, _, _ = run(capsys, "model-poly", "--n", "3", "--out", str(path))
    assert code == 0
    text = path.read_text()
    reparsed = serialize.model_from_json(json.loads(text))
    assert serialize.dumps(serialize.model_to_json(reparsed)) == text


def test_weight_reduction_warning_and_strict(capsys):
    code, _, err = run(capsys, "model-mckay", "--m", "2", "--weights", "1,2")
    assert code == 0
    assert "reduced mod 2" in err
    code, _, err = run(capsys, "model-mckay", "--m", "2", "--weights", "1,2", "--strict")
    assert code == 2


def test_invalid_inputs_exit_2(capsys):
    assert run(capsys, "model-mckay", "--m", "2", "--weights", "1,x")[0] == 2
    assert run(capsys, "model-poly", "--n", "0")[0] == 2
    assert run(capsys, "cohomology", "--model", "/no/such/file", "--hmin", "-1", "--adams-max", "1")[0] == 2


def test_threads_flag_is_rejected(capsys):
    """--threads did nothing and was removed; argparse exits 2 on it."""
    for argv in (["--threads", "4", "model-poly", "--n", "2"], ["model-poly", "--n", "2", "--threads", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
    assert "unrecognized arguments: --threads 4" in captured.err


PARSER_CASES = [
    (),
    ("-h",),
    ("--help",),
    ("bogus",),
    ("cy-check", "--help"),
    ("cohomology", "-h"),
    ("model-mckay", "--help"),
    ("cohomology", "--model", "x", "--hmin", "0", "--adams-max", "1", "--bogus"),
    ("cohomology", "--model", "x"),
    ("cohomology", "--model", "x", "--hmin", "h", "--adams-max", "1"),
    ("cohomology", "--model", "x", "--hmin", "0", "--adams-max", "1", "--format", "xml"),
    ("model-poly",),
    ("model-poly", "--n", "2", "extra"),
    ("model-poly", "--n", "1", "--verify", "dsq"),
    ("verify", "--model", "x", "--verify"),
    ("cy-check", "--m", "3"),
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "no command")
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    """main builds only the parser of the command that argv[0] names.  On
    help at both levels, a missing or unknown command and bad or extra
    arguments, its exit code, stdout and stderr are the full parser's:
    an error of the top-level parser prints a usage line with all seven
    commands."""

    def outcome():
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    one = outcome()
    parser = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda only=None: parser())
    assert outcome() == one
    if "\ndgquiver: error:" in one[2]:
        assert "{model-poly,model-mckay,ginzburg,cohomology,compare-h0,cy-check,verify}" in one[2]


@pytest.mark.parametrize(
    "argv",
    [
        ("cy-check", "--m", "0", "--weights", "1,1"),
        ("model-mckay", "--m", "0", "--weights", "1"),
    ],
)
def test_m_below_2_exits_2(capsys, argv):
    """The weights are reduced mod m, which used to divide by zero at m = 0."""
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "--m must be >= 2" in err and "Traceback" not in err


def test_cy_check_rejects_a_nonpositive_adams_bound(capsys):
    code, _, err = run(capsys, "cy-check", "--m", "3", "--weights", "1,1,1", "--adams-max", "-1")
    assert code == 2
    assert "Adams bound" in err and "hmin" not in err


@pytest.mark.parametrize(
    "command, window, message",
    [
        ("cohomology", ("--hmin", "-1", "--adams-max", "0"), "--adams-max must be >= 1, got 0"),
        ("cohomology", ("--hmin", "1", "--adams-max", "2"), "--hmin must be <= 0, got 1"),
        ("compare-h0", ("--adams-max", "-1"), "--adams-max must be >= 0, got -1"),
    ],
)
def test_out_of_range_windows_name_the_flag(capsys, tmp_path, command, window, message):
    model = tmp_path / "model.json"
    run(capsys, "model-mckay", "--m", "3", "--weights", "1,1,1", "--delete-zero", "--out", str(model))
    pres = tmp_path / "pres.json"
    quotient = mckay_commutation_presentation(McKayData(3, (1, 1, 1))).delete_vertex(0)
    pres.write_text(serialize.dumps(serialize.presentation_to_json(quotient)))
    files = ("--model", str(model)) + (("--presentation", str(pres)) if command == "compare-h0" else ())
    code, out, err = run(capsys, command, *files, *window)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert "nadams" not in err and "Traceback" not in err


def test_cohomology_command(capsys, tmp_path):
    path = tmp_path / "model.json"
    run(capsys, "model-poly", "--n", "2", "--out", str(path))
    code, out, _ = run(capsys, "cohomology", "--model", str(path), "--hmin", "-2", "--adams-max", "3")
    assert code == 0
    dims = json.loads(out)["dims"]
    assert dims["0,1"] == 2 and dims["0,2"] == 3 and dims["-1,2"] == 0
    code, out, _ = run(
        capsys, "cohomology", "--model", str(path), "--hmin", "-2", "--adams-max", "3", "--format", "table"
    )
    assert code == 0 and out.splitlines()[0].startswith("h\\a")


def test_cohomology_grades_the_differential_once(capsys, tmp_path, monkeypatch):
    """The CLI's grading check and the lead lemma of cohomology_dims read
    one report: one is_valid_path call per term of d from reading the
    model and one from grading it, 2 * 36 for McKay (3;111)."""
    model = mckay_model(McKayData(3, (1, 1, 1)))
    assert sum(len(da.terms) for da in model.differential.on_arrows.values()) == 36
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps(serialize.model_to_json(model)))
    calls = []
    is_valid_path = GradedQuiver.is_valid_path
    monkeypatch.setattr(GradedQuiver, "is_valid_path", lambda q, p: calls.append(p) or is_valid_path(q, p))
    code, _out, _err = run(capsys, "cohomology", "--model", str(path), "--hmin", "-3", "--adams-max", "3")
    assert code == 0
    assert len(calls) == 72


def test_verify_detects_corruption(capsys, tmp_path):
    path = tmp_path / "model.json"
    run(capsys, "model-poly", "--n", "3", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["differential"]["x123"][0]["coeff"] = "5"
    bad = tmp_path / "bad.json"
    bad.write_text(serialize.dumps(doc))
    assert run(capsys, "verify", "--model", str(bad))[0] == 1
    assert run(capsys, "verify", "--model", str(path))[0] == 0


def test_ginzburg_command(capsys, tmp_path):
    quiver_doc = {
        "vertices": [0, 1],
        "arrows": [
            {"id": "p", "source": 0, "target": 1, "hdeg": 0, "adeg": 1},
            {"id": "q", "source": 0, "target": 1, "hdeg": 0, "adeg": 1},
            {"id": "r", "source": 1, "target": 0, "hdeg": 0, "adeg": 1},
            {"id": "s", "source": 1, "target": 0, "hdeg": 0, "adeg": 1},
        ],
    }
    potential_doc = [
        {"coeff": "1", "cycle": ["p", "s", "q", "r"]},
        {"coeff": "-1", "cycle": ["p", "r", "q", "s"]},
    ]
    qf, pf = tmp_path / "quiver.json", tmp_path / "potential.json"
    qf.write_text(json.dumps(quiver_doc))
    pf.write_text(json.dumps(potential_doc))
    code, out, _ = run(capsys, "ginzburg", "--quiver", str(qf), "--potential", str(pf), "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"] == "ginzburg"
    assert {a["id"] for a in doc["quiver"]["arrows"]} >= {"p_star", "c_0", "c_1"}
    code, out, _ = run(
        capsys, "ginzburg", "--quiver", str(qf), "--potential", str(pf), "--delete-vertex", "0"
    )
    assert code == 0
    assert [a["id"] for a in json.loads(out)["quiver"]["arrows"]] == ["c_1"]
    assert run(capsys, "ginzburg", "--quiver", str(qf), "--potential", str(pf), "--delete-vertex", "7")[0] == 2


def test_ginzburg_refuses_a_label_that_is_no_string(capsys, tmp_path):
    """A list label used to be copied into the star labels, as "[1, 2]*"."""
    quiver_doc = {"vertices": [0], "arrows": [{"id": "a", "source": 0, "target": 0, "hdeg": 0, "adeg": 1, "label": [1, 2]}]}
    qf, pf = tmp_path / "quiver.json", tmp_path / "potential.json"
    qf.write_text(json.dumps(quiver_doc))
    pf.write_text(json.dumps([{"coeff": "1", "cycle": ["a", "a", "a"]}]))
    code, out, err = run(capsys, "ginzburg", "--quiver", str(qf), "--potential", str(pf))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed") and "Traceback" not in err
    quiver_doc["arrows"][0]["label"] = "a"
    qf.write_text(json.dumps(quiver_doc))
    assert run(capsys, "ginzburg", "--quiver", str(qf), "--potential", str(pf))[0] == 0


def test_compare_h0_command(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    run(capsys, "model-mckay", "--m", "3", "--weights", "1,1,1", "--delete-zero", "--out", str(model_path))
    pres = mckay_commutation_presentation(McKayData(3, (1, 1, 1))).delete_vertex(0)
    pres_path = tmp_path / "pres.json"
    pres_path.write_text(serialize.dumps(serialize.presentation_to_json(pres)))
    map_path = tmp_path / "map.json"
    map_path.write_text(
        json.dumps(
            {
                "arrows": {a.name: a.name for a in pres.quiver.arrows},
                "vertices": {"1": 1, "2": 2},
            }
        )
    )
    code, out, _ = run(
        capsys,
        "compare-h0",
        "--model", str(model_path),
        "--presentation", str(pres_path),
        "--map", str(map_path),
        "--adams-max", "6",
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass" and report["total_dim"] == 5


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "1.0"])
def test_compare_h0_map_refuses_a_vertex_id_that_is_no_string_or_integer(capsys, tmp_path, value):
    """true equals the vertex 1 in Python and would make the comparison
    pass; a mapped vertex id is a string or a JSON integer, as in every
    document serialize reads."""
    model_path = tmp_path / "model.json"
    run(capsys, "model-mckay", "--m", "5", "--weights", "1,1,1,2", "--delete-zero", "--out", str(model_path))
    pres = mckay_commutation_presentation(McKayData(5, (1, 1, 1, 2))).delete_vertex(0)
    pres_path = tmp_path / "pres.json"
    pres_path.write_text(serialize.dumps(serialize.presentation_to_json(pres)))
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"vertices": {"1": value}}))
    code, out, err = run(
        capsys, "compare-h0", "--model", str(model_path), "--presentation", str(pres_path),
        "--map", str(map_path), "--adams-max", "4",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed map")
    map_path.write_text(json.dumps({"vertices": {"1": 1}}))
    code, out, _ = run(
        capsys, "compare-h0", "--model", str(model_path), "--presentation", str(pres_path),
        "--map", str(map_path), "--adams-max", "4",
    )
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_compare_h0_refuses_an_arrow_map_key_that_names_no_generator(capsys, tmp_path):
    """An arrows key of the map that names no generator of H^0 is invalid
    input, exit 2, as a vertices key that names no vertex is."""
    model_path = tmp_path / "model.json"
    run(capsys, "model-mckay", "--m", "5", "--weights", "1,1,1,2", "--delete-zero", "--out", str(model_path))
    pres = mckay_commutation_presentation(McKayData(5, (1, 1, 1, 2))).delete_vertex(0)
    pres_path = tmp_path / "pres.json"
    pres_path.write_text(serialize.dumps(serialize.presentation_to_json(pres)))
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"arrows": {a.name: a.name for a in pres.quiver.arrows} | {"no_such_arrow": "x1_1"}}))
    code, out, err = run(
        capsys, "compare-h0", "--model", str(model_path), "--presentation", str(pres_path),
        "--map", str(map_path), "--adams-max", "4",
    )
    assert (code, out) == (2, "")
    assert "arrow map names 'no_such_arrow', which is no generator" in err and "Traceback" not in err


def test_compare_h0_refuses_a_vertex_map_that_is_not_injective(capsys, tmp_path):
    """Vertices 1 and 2 with a loop x at 1, mapped onto the one vertex of
    k[x]: e_2 would be lost and compare-h0 would pass with total_dim 3,
    though H^0 of the model has dimension 4 at the truncation 2."""
    loop = {"id": "x", "source": 1, "target": 1, "hdeg": 0, "adeg": 1}
    files = {
        "model": {"quiver": {"vertices": [1, 2], "arrows": [loop]}, "differential": {}},
        "presentation": {"quiver": {"vertices": [1], "arrows": [loop]}, "relators": []},
        "map": {"arrows": {"x": "x"}, "vertices": {"2": 1}},
    }
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "compare-h0", "--model", str(tmp_path / "model.json"), "--presentation", str(tmp_path / "presentation.json"),
        "--map", str(tmp_path / "map.json"), "--adams-max", "2",
    )
    assert (code, out) == (2, "")
    assert "two vertices to one" in err


def test_compare_h0_refuses_a_vertex_map_onto_an_unknown_vertex(capsys, tmp_path):
    """Vertices 1 and 2 with a loop x at 1 on both sides, and vertex 2
    sent to 9, which the presentation does not have: exit 2, where a
    check failure with a witness at vertex 2 (exit 1) was reported."""
    loop = {"id": "x", "source": 1, "target": 1, "hdeg": 0, "adeg": 1}
    quiver = {"vertices": [1, 2], "arrows": [loop]}
    files = {
        "model": {"quiver": quiver, "differential": {}},
        "presentation": {"quiver": quiver, "relators": []},
        "map": {"arrows": {"x": "x"}, "vertices": {"2": 9}},
    }
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "compare-h0", "--model", str(tmp_path / "model.json"), "--presentation", str(tmp_path / "presentation.json"),
        "--map", str(tmp_path / "map.json"), "--adams-max", "2",
    )
    assert (code, out) == (2, "")
    assert "maps to unknown vertex 9" in err and "Traceback" not in err


def _two_vertex_quiver(s, t) -> dict:
    """A loop x at s and an arrow y: s -> t, both of degree (0, 1)."""
    arrows = [
        {"id": "x", "source": s, "target": s, "hdeg": 0, "adeg": 1},
        {"id": "y", "source": s, "target": t, "hdeg": 0, "adeg": 1},
    ]
    return {"vertices": [s, t], "arrows": arrows}


@pytest.mark.parametrize(
    "ids, vertices, message",
    [
        (("1", "2", "a", "b"), {"1": "b"}, "inconsistent vertex map at '1'"),
        (("1", "2", "a", "b"), {"9": "a"}, "unknown vertex '9'"),
        (("1", "2", "a", "b"), {"x": "a"}, "unknown vertex 'x'"),
        ((1, 2, 1, 2), {"9": 1}, "unknown vertex '9'"),
        ((1, 2, 1, 2), {"x": 1}, "unknown vertex 'x'"),
    ],
    ids=["str-contradicts-arrows", "str-unknown-9", "str-unknown-x", "int-unknown-9", "int-unknown-x"],
)
def test_compare_h0_reads_map_keys_as_model_vertices(capsys, tmp_path, ids, vertices, message):
    """Each key of the vertex map names a vertex of the model, read as
    --delete-vertex reads one: "1" is the string vertex "1", which the
    arrows send to "a", not "b", and a key that names no vertex is bad
    input.  Every case passed with exit 0 while digit keys were read as
    ints and keys that named no vertex were dropped."""
    s, t, ps, pt = ids
    files = {
        "model": {"quiver": _two_vertex_quiver(s, t), "differential": {}},
        "presentation": {"quiver": _two_vertex_quiver(ps, pt), "relators": []},
        "map": {"vertices": vertices},
    }
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "compare-h0", "--model", str(tmp_path / "model.json"), "--presentation", str(tmp_path / "presentation.json"),
        "--map", str(tmp_path / "map.json"), "--adams-max", "2",
    )
    assert (code, out) == (2, "")
    assert message in err and "Traceback" not in err


def test_cy_check_command(capsys):
    code, out, _ = run(capsys, "cy-check", "--m", "3", "--weights", "1,1,1", "--adams-max", "4")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run(capsys, "cy-check", "--m", "2", "--weights", "1,1,1,1")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_cy_check_weight_sum_failure_carries_a_witness(capsys):
    """(3; 1,1) passes the closure check, so the weight-sum report is the
    one witness of its failure."""
    code, out, _ = run(capsys, "cy-check", "--m", "3", "--weights", "1,1", "--adams-max", "3")
    assert code == 1
    report = json.loads(out)
    assert report["closure"]["status"] == "pass"
    assert "sum of weights" in report["reason"]
    assert report["weight_sum"] == {"check": "weight_sum", "status": "fail", "witness": {"m": 3, "sum": 2}}


GOLDEN = Path(__file__).parent / "golden"


def _limited_run(*argv, timeout=60):
    """The CLI in a child process with 1 GiB of address space and a 60 s
    timeout by default, so a window that is not bounded fails the test,
    not the machine."""
    src = os.path.dirname(os.path.dirname(dgquiver.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("DGQ_PATH_CAP", None)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, "-m", "dgquiver.cli", *argv], capture_output=True, text=True, timeout=timeout, env=env, preexec_fn=limit
    )


def test_huge_adams_windows_end_with_an_exit_code(tmp_path):
    """A dense table past the path cap is refused (exit 3); a finite
    cohomology or H^0 is found whatever the Adams bound, as the walks stop
    once no path or normal word is left."""
    poly3 = tmp_path / "poly3.json"
    poly3.write_text(serialize.dumps(serialize.model_to_json(polynomial_model(3))))
    for window in (("0", "100000000"), ("-30000000", "3")):
        done = _limited_run("cohomology", "--model", str(poly3), "--hmin", window[0], "--adams-max", window[1])
        assert done.returncode == 3, done.stderr
        assert done.stdout == "" and done.stderr.startswith("resource limit: a table of")
    done = _limited_run("cy-check", "--m", "3", "--weights", "1,1,1", "--adams-max", "100000000")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "pass"
    model, pres = GOLDEN / "model_mckay5_1112_del0.json", GOLDEN / "presentation_mckay5_1112_del0.json"
    done = _limited_run("compare-h0", "--model", str(model), "--presentation", str(pres), "--adams-max", "30000000")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["total_dim"] == 44


def test_huge_window_on_an_infinite_h0_reaches_the_path_cap_in_seconds(tmp_path):
    """k[x, y] against its own H^0 presentation at Adams 30000000: every
    degree holds normal words, so only the path cap ends the walk, and
    it must do so well within 20 s."""
    poly2 = polynomial_model(2)
    model, pres = tmp_path / "poly2.json", tmp_path / "poly2_h0.json"
    model.write_text(serialize.dumps(serialize.model_to_json(poly2)))
    pres.write_text(serialize.dumps(serialize.presentation_to_json(h0_presentation(poly2))))
    argv = ("compare-h0", "--model", str(model), "--presentation", str(pres), "--adams-max", "30000000")
    done = _limited_run(*argv, timeout=20)
    assert done.returncode == 3, done.stderr
    assert done.stdout == "" and done.stderr.startswith("resource limit: path count exceeds cap")


def test_resource_cap_exit_3(capsys, tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    run(capsys, "model-poly", "--n", "3", "--out", str(path))
    monkeypatch.setenv("DGQ_PATH_CAP", "2")
    assert run(capsys, "cohomology", "--model", str(path), "--hmin", "-3", "--adams-max", "6")[0] == 3


def test_model_size_cap_exits_3(capsys, monkeypatch):
    """15 arrows and 50 terms for n = 4, 31 and 180 for n = 5."""
    monkeypatch.setenv("DGQ_PATH_CAP", "100")
    assert run(capsys, "model-poly", "--n", "4")[0] == 0
    code, out, err = run(capsys, "model-poly", "--n", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: ")
    for command in ("model-mckay", "cy-check"):
        assert run(capsys, command, "--m", "5", "--weights", "1,1,1,2")[0] == 3


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_path_cap_exits_2(capsys, tmp_path, monkeypatch, value):
    path = tmp_path / "model.json"
    run(capsys, "model-poly", "--n", "2", "--out", str(path))
    monkeypatch.setenv("DGQ_PATH_CAP", value)
    code, out, err = run(capsys, "cohomology", "--model", str(path), "--hmin", "-1", "--adams-max", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: DGQ_PATH_CAP")


def test_cohomology_of_a_long_loop_exits_0(capsys, tmp_path):
    """One vertex, one loop of hdeg 0 and adeg 1: paths up to length 1500
    used to overflow the recursive path enumeration."""
    model = {
        "quiver": {"vertices": [0], "arrows": [{"id": "a", "source": 0, "target": 0, "hdeg": 0, "adeg": 1}]},
        "differential": {},
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(model))
    code, out, _ = run(capsys, "cohomology", "--model", str(path), "--hmin", "0", "--adams-max", "1500")
    assert code == 0
    dims = json.loads(out)["dims"]
    assert dims == {f"0,{a}": 1 for a in range(1501)}
    code, out, _ = run(
        capsys, "cohomology", "--model", str(path), "--hmin", "0", "--adams-max", "1500", "--format", "table"
    )
    assert code == 0
    header, row = out.splitlines()
    assert header.split()[-1] == "1500" and row.split() == ["0"] + ["1"] * 1501


def _poly2_doc() -> dict:
    return serialize.model_to_json(polynomial_model(2))


def _with(doc: dict, edit) -> dict:
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


MALFORMED_MODELS = {
    "missing quiver": {"foo": 1},
    "not an object": [1],
    "zero denominator": _with(_poly2_doc(), lambda d: d["differential"]["x12"][0].update(coeff="1/0")),
    "differential as a list": _with(_poly2_doc(), lambda d: d.update(differential=[1])),
    "element as an object": _with(_poly2_doc(), lambda d: d["differential"].update(x12={})),
    "non-integer hdeg": _with(_poly2_doc(), lambda d: d["quiver"]["arrows"][0].update(hdeg="x")),
    "list label": _with(_poly2_doc(), lambda d: d["quiver"]["arrows"][0].update(label=[1, 2])),
    "integer provenance": _with(_poly2_doc(), lambda d: d.update(provenance=5)),
    "integer metadata": _with(_poly2_doc(), lambda d: d.update(metadata=5)),
    "list metadata": _with(_poly2_doc(), lambda d: d.update(metadata=[["truncated_at", 2]])),
}


def _h0_presentation_file(tmp_path) -> str:
    path = tmp_path / "pres.json"
    path.write_text(serialize.dumps(serialize.presentation_to_json(h0_presentation(polynomial_model(2)))))
    return str(path)


@pytest.mark.parametrize("command", ["cohomology", "compare-h0"])
@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_exits_2(capsys, tmp_path, command, case):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MALFORMED_MODELS[case]))
    if command == "cohomology":
        argv = ["cohomology", "--model", str(path), "--hmin", "-2", "--adams-max", "2"]
    else:
        argv = ["compare-h0", "--model", str(path), "--presentation", _h0_presentation_file(tmp_path)]
        argv += ["--adams-max", "2"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed") and "Traceback" not in err


def test_null_label_provenance_and_metadata_still_load(capsys, tmp_path):
    """JSON null reads as the key left out, so these documents exit 0 as before."""
    def nulls(d):
        d["quiver"]["arrows"][0]["label"] = None
        d.update(provenance=None, metadata=None)

    path = tmp_path / "model.json"
    path.write_text(json.dumps(_with(_poly2_doc(), nulls)))
    code, out, err = run(capsys, "cohomology", "--model", str(path), "--hmin", "-2", "--adams-max", "2")
    assert code == 0 and err == ""


def test_null_differential_loads_as_zero(capsys, tmp_path):
    """A null differential reads as the key left out, d = 0; it used to
    exit 2 when the reader iterated None."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_with(_poly2_doc(), lambda d: d.update(differential=None))))
    code, out, err = run(capsys, "cohomology", "--model", str(path), "--hmin", "-1", "--adams-max", "2")
    assert code == 0 and err == ""
    assert json.loads(out)["dims"]["-1,2"] == 1


@pytest.mark.parametrize("kind", ["model", "presentation"])
@pytest.mark.parametrize("coeff", ["1/0", "x", None, [1], {}], ids=["1/0", "x", "null", "list", "object"])
def test_malformed_coefficient_exits_2(capsys, tmp_path, kind, coeff):
    """A bad coefficient after a good one, so the per-document parse
    cache is already in use when it is read."""
    model, pres = _poly2_doc(), serialize.presentation_to_json(h0_presentation(polynomial_model(2)))
    terms = model["differential"]["x12"] if kind == "model" else pres["relators"][0]
    terms[-1]["coeff"] = coeff
    for name, doc in (("model.json", model), ("pres.json", pres)):
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "compare-h0", "--model", str(tmp_path / "model.json"), "--presentation", str(tmp_path / "pres.json"),
        "--adams-max", "2",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed") and "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    [[1], {"arrows": ["x1"]}, {"arrows": {"x1": ["x1"], "x2": "x2"}}, {"vertices": {"0": {}}},
     {"arrows": {"x1": 7}}],
)
def test_malformed_map_exits_2(capsys, tmp_path, doc):
    model = tmp_path / "model.json"
    model.write_text(serialize.dumps(_poly2_doc()))
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "compare-h0", "--model", str(model), "--presentation", _h0_presentation_file(tmp_path),
        "--map", str(map_path), "--adams-max", "2",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed map") and "Traceback" not in err


def _verify_failure(capsys, path) -> dict:
    code, out, _ = run(capsys, "verify", "--model", str(path))
    assert code == 1
    return next(r for r in json.loads(out)["checks"] if r["status"] != "pass")


def test_cohomology_rejects_a_model_that_fails_the_grading_check(capsys, tmp_path):
    """d(x12) rewritten to a length-1 path used to crash in the rank step."""
    doc = _with(_poly2_doc(), lambda d: d["differential"].update(x12=[{"start": 0, "path": ["x1"], "coeff": "1"}]))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cohomology", "--model", str(path), "--hmin", "-2", "--adams-max", "2")
    assert code == 1
    report = json.loads(out)
    assert report["check"] == "grading" and report["witness"]["arrow"] == "x12"
    assert report == _verify_failure(capsys, path)
    assert "Traceback" not in err


def test_compare_h0_rejects_a_model_that_fails_the_d_squared_check(capsys, tmp_path):
    doc = serialize.model_to_json(polynomial_model(3))
    doc["differential"]["x123"][0]["coeff"] = "5"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    pres = tmp_path / "pres.json"
    pres.write_text(serialize.dumps(serialize.presentation_to_json(h0_presentation(polynomial_model(3)))))
    code, out, err = run(
        capsys, "compare-h0", "--model", str(path), "--presentation", str(pres), "--adams-max", "3"
    )
    assert code == 1
    report = json.loads(out)
    assert report["check"] == "d_squared" and report["status"] == "fail"
    assert report == _verify_failure(capsys, path)
    assert "Traceback" not in err


def test_cohomology_rejects_a_model_that_fails_the_d_squared_check(capsys, tmp_path):
    """cohomology_dims clears rows by d^2 = 0, so no table may be printed
    for a model that fails the check."""
    doc = serialize.model_to_json(polynomial_model(3))
    doc["differential"]["x123"][0]["coeff"] = "5"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cohomology", "--model", str(path), "--hmin", "-3", "--adams-max", "3")
    assert code == 1
    report = json.loads(out)
    assert report["check"] == "d_squared" and report["status"] == "fail"
    assert "dims" not in report
    assert report == _verify_failure(capsys, path)
    assert "Traceback" not in err


def test_verify_stops_after_a_failed_grading_check(capsys, tmp_path):
    """d(x123) with an added hdeg-0 term mixes homological degrees; the
    d^2 check used to run anyway and exit 2 on the inhomogeneous d(x123)."""
    doc = serialize.model_to_json(polynomial_model(3))
    doc["differential"]["x123"].append({"start": 0, "path": ["x1", "x2", "x3"], "coeff": "1"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--model", str(path))
    assert code == 1
    (report,) = json.loads(out)["checks"]
    assert report["check"] == "grading" and report["witness"]["arrow"] == "x123"
    assert json.loads(err) == report
    code, out, _ = run(capsys, "cohomology", "--model", str(path), "--hmin", "-2", "--adams-max", "3")
    assert code == 1 and json.loads(out) == report


def test_ginzburg_refuses_a_potential_that_is_no_array(capsys, tmp_path):
    """A potential is an array of terms: the object {} used to load as W = 0."""
    qf, pf = tmp_path / "quiver.json", tmp_path / "potential.json"
    qf.write_text(json.dumps({"vertices": [0], "arrows": [{"id": "a", "source": 0, "target": 0, "hdeg": 0, "adeg": 1}]}))
    pf.write_text("{}")
    code, out, err = run(capsys, "ginzburg", "--quiver", str(qf), "--potential", str(pf))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed potential") and "Traceback" not in err
    pf.write_text("[]")
    assert run(capsys, "ginzburg", "--quiver", str(qf), "--potential", str(pf))[0] == 0


def test_ginzburg_verify_runs_the_grading_check(capsys, tmp_path):
    """One vertex, two loops at (0, 1), W = ab + aab: d(a*) has the length-1
    term b, so the model is not minimal.  ginzburg --verify used to run only
    the d^2 check and exit 0 on it, where verify and cohomology exit 1."""
    qf, pf = tmp_path / "quiver.json", tmp_path / "potential.json"
    qf.write_text(json.dumps({
        "vertices": [0],
        "arrows": [{"id": x, "source": 0, "target": 0, "hdeg": 0, "adeg": 1} for x in "ab"],
    }))
    pf.write_text(json.dumps([{"coeff": "1", "cycle": ["a", "b"]}, {"coeff": "1", "cycle": ["a", "a", "b"]}]))
    code, out, err = run(capsys, "ginzburg", "--quiver", str(qf), "--potential", str(pf), "--verify")
    assert code == 1
    report = json.loads(err)
    assert report == {
        "check": "grading",
        "status": "fail",
        "witness": {"arrow": "a_star", "reason": "term Path(start=0, arrows=('b',)) has length 1 < 2 (minimality)"},
    }
    path = tmp_path / "model.json"
    path.write_text(out)
    assert report == _verify_failure(capsys, path)


def test_verify_is_a_flag_on_the_builders(capsys):
    """--verify takes no value: it runs the checks of verify, and the
    model JSON is the same as without it."""
    code, plain, _ = run(capsys, "model-poly", "--n", "2")
    assert code == 0
    assert run(capsys, "model-poly", "--n", "2", "--verify") == (0, plain, "")
    with pytest.raises(SystemExit) as exc:
        main(["model-poly", "--n", "2", "--verify", "dsq"])
    assert exc.value.code == 2
    assert "unrecognized arguments: dsq" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("model-poly", "--n", "2"),
        ("cohomology", "--model", "{model}", "--hmin", "-1", "--adams-max", "2", "--format", "table"),
    ],
    ids=["json", "table"],
)
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    """--out into a directory that does not exist used to end in a
    traceback and exit 1."""
    model = tmp_path / "model.json"
    run(capsys, "model-poly", "--n", "2", "--out", str(model))
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *(arg.format(model=model) for arg in argv), "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {out_path}") and "Traceback" not in err
    assert not out_path.exists()


def test_verify_takes_no_adams_bound(capsys, tmp_path):
    """d^2 = 0 is checked on every arrow with no truncation, so verify has
    no --adams-max (argparse exits 2 on it) and its report no truncation."""
    path = tmp_path / "model.json"
    run(capsys, "model-poly", "--n", "2", "--out", str(path))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--model", str(path), "--adams-max", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --adams-max 3" in capsys.readouterr().err
    code, out, _ = run(capsys, "verify", "--model", str(path))
    assert code == 0
    assert json.loads(out)["checks"] == [
        {"check": "grading", "status": "pass"},
        {"check": "d_squared", "status": "pass", "note": "verified on arrows; Leibniz extends the identity to all paths"},
    ]
