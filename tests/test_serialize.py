"""JSON round trips: parse(serialize(x)) == x and byte-identical dumps,
and the exact numbers the readers accept: integer degrees, and
coefficients as strings or integers, never floats or booleans."""

import json
from fractions import Fraction

import pytest

from dgquiver import (
    Arrow,
    GradedQuiver,
    InvalidInputError,
    McKayData,
    Path,
    Superpotential,
    delete_vertex,
    mckay_model,
    polynomial_model,
    serialize,
)
from dgquiver.cli import main
from dgquiver.koszul import mckay_commutation_presentation


def test_quiver_roundtrip():
    q = polynomial_model(3).quiver
    doc = serialize.quiver_to_json(q)
    assert serialize.quiver_from_json(doc) == q
    text = serialize.dumps(doc)
    again = serialize.dumps(serialize.quiver_to_json(serialize.quiver_from_json(doc)))
    assert text == again


def test_element_roundtrip():
    q = polynomial_model(2).quiver
    el = q.gen("x1") * q.gen("x2") - Fraction(2, 3) * q.gen("x12") + q.idempotent(0)
    doc = serialize.element_to_json(el)
    assert serialize.element_from_json(q, doc) == el


def test_model_roundtrip_byte_identical():
    for model in (polynomial_model(3), mckay_model(McKayData(3, (1, 1, 1)))):
        doc = serialize.model_to_json(model)
        back = serialize.model_from_json(doc)
        assert back.quiver == model.quiver
        assert back.differential.on_arrows == dict(model.differential.on_arrows)
        assert serialize.dumps(serialize.model_to_json(back)) == serialize.dumps(doc)


def test_presentation_roundtrip():
    pres = mckay_commutation_presentation(McKayData(3, (1, 1, 1)))
    doc = serialize.presentation_to_json(pres)
    back = serialize.presentation_from_json(doc)
    assert back.quiver == pres.quiver
    assert back.relators == pres.relators


def test_potential_roundtrip():
    quiver = GradedQuiver(
        (0, 1),
        (Arrow("p", 0, 1, 0, 1), Arrow("r", 1, 0, 0, 1)),
    )
    w = Superpotential(quiver, {Path(0, ("p", "r", "p", "r")): Fraction(3, 7)})
    doc = serialize.potential_to_json(w)
    back = serialize.potential_from_json(quiver, doc)
    assert back.terms == w.terms


def test_malformed_documents_raise():
    q = polynomial_model(2).quiver
    with pytest.raises(InvalidInputError):
        serialize.quiver_from_json({"vertices": [0]})
    with pytest.raises(InvalidInputError):
        serialize.element_from_json(q, [{"start": 0, "path": ["nope"], "coeff": "1"}])
    with pytest.raises(InvalidInputError):
        serialize.potential_from_json(q, [{"coeff": "1", "cycle": []}])


@pytest.mark.parametrize("label", [[1, 2], {"a": 1}, 7], ids=["list", "object", "int"])
def test_non_string_label_is_refused(label):
    """An arrow label is a JSON string: a list was copied into the star
    labels of ginzburg ("[1, 2]*"), and the loaded quiver had no hash."""
    doc = {"vertices": [0], "arrows": [{"id": "a", "source": 0, "target": 0, "hdeg": 0, "adeg": 1, "label": label}]}
    with pytest.raises(InvalidInputError, match="malformed quiver"):
        serialize.quiver_from_json(doc)
    doc["arrows"][0]["label"] = "x"
    assert serialize.quiver_from_json(doc).arrow("a").label == "x"


@pytest.mark.parametrize(
    "key, value",
    [("provenance", 5), ("provenance", ["general"]), ("metadata", 5), ("metadata", [1]), ("metadata", "x")],
)
def test_provenance_is_a_string_and_metadata_an_object(key, value):
    """Anything else made model_to_json of the loaded model raise a
    TypeError, or wrote back a document of another shape."""
    doc = serialize.model_to_json(polynomial_model(2))
    doc[key] = value
    with pytest.raises(InvalidInputError, match="malformed model"):
        serialize.model_from_json(doc)
    doc.update(provenance="mine", metadata={"note": [1, {"k": "v"}]})
    back = serialize.model_from_json(doc)
    assert serialize.model_to_json(back) == doc


def test_null_label_provenance_and_metadata_read_as_missing():
    """A null label, provenance or metadata loads as the key left out
    does, as these documents loaded before they were type-checked."""
    doc = serialize.model_to_json(polynomial_model(2))
    doc["quiver"]["arrows"][0]["label"] = None
    doc.update(provenance=None, metadata=None)
    back = serialize.model_from_json(doc)
    assert back.quiver.arrows[0].label == ""
    assert (back.provenance, dict(back.metadata)) == ("general", {})
    out = serialize.model_to_json(back)
    assert serialize.model_to_json(serialize.model_from_json(out)) == out


def _verify(tmp_path, capsys, doc) -> tuple[int, str]:
    """The exit code and stderr of verify on the model document doc."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--model", str(path)])
    return code, capsys.readouterr().err


def _deleted_doc() -> dict:
    return serialize.model_to_json(delete_vertex(mckay_model(McKayData(3, (1, 1, 1))), 0))


@pytest.mark.parametrize("key, value", [("adeg", 1.7), ("hdeg", -0.9), ("adeg", True), ("hdeg", 0.0), ("adeg", "1")])
def test_inexact_degree_exits_2(tmp_path, capsys, key, value):
    """None of these is a JSON integer, though int() turns each into a
    degree that makes the model pass verify."""
    doc = _deleted_doc()
    next(a for a in doc["quiver"]["arrows"] if a["id"] == "x1_1")[key] = value
    code, err = _verify(tmp_path, capsys, doc)
    assert code == 2 and err.startswith("error: malformed quiver")


def _set_vertex_id(doc: dict, where: str, value) -> None:
    if where == "vertices":
        doc["quiver"]["vertices"] = value
    elif where == "source":
        next(a for a in doc["quiver"]["arrows"] if a["id"] == "x1_1")["source"] = value
    else:
        doc["differential"]["x1_123"][0]["start"] = value


@pytest.mark.parametrize(
    "where, value",
    [("source", True), ("source", 1.0), ("vertices", [True, 2]), ("start", 1.0)],
    ids=["source-true", "source-1.0", "vertices-true", "start-1.0"],
)
def test_inexact_vertex_id_exits_2(tmp_path, capsys, where, value):
    """A vertex id is a string or a JSON integer.  Each of these equals
    the id 1 of the model in Python (True == 1.0 == 1), so a reader that
    took it would let the model pass verify."""
    doc = _deleted_doc()
    _set_vertex_id(doc, where, value)
    code, err = _verify(tmp_path, capsys, doc)
    assert code == 2 and err.startswith("error: malformed")


def test_exact_vertex_ids_are_read():
    """Strings and JSON integers, mixed."""
    doc = {"vertices": [0, "u"], "arrows": [{"id": "a", "source": "u", "target": 0, "hdeg": 0, "adeg": 1}]}
    q = serialize.quiver_from_json(doc)
    assert q.vertices == (0, "u") and q.arrow("a").source == "u"
    el = serialize.element_from_json(q, [{"start": "u", "path": ["a"], "coeff": 1}])
    assert el.terms == {Path("u", ("a",)): 1}


@pytest.mark.parametrize("coeff", [0.1, 1.0, True], ids=["0.1", "1.0", "true"])
def test_inexact_coefficient_exits_2(tmp_path, capsys, coeff):
    """A float or a boolean coefficient is refused in a model and in a
    potential, also after an equal integer has filled the parse cache."""
    doc = _deleted_doc()
    terms = doc["differential"]["x1_123"]
    terms[0]["coeff"], terms[2]["coeff"] = 1, coeff
    code, err = _verify(tmp_path, capsys, doc)
    assert code == 2 and err.startswith("error: malformed")
    q = polynomial_model(2).quiver
    with pytest.raises(InvalidInputError, match="malformed"):
        serialize.potential_from_json(q, [{"coeff": coeff, "cycle": ["x1", "x2"]}])


def test_exact_coefficients_are_read():
    """Strings that Fraction parses and JSON integers."""
    q = polynomial_model(2).quiver
    doc = [{"start": 0, "path": ["x1"], "coeff": "1/10"}, {"start": 0, "path": ["x2"], "coeff": -3}]
    el = serialize.element_from_json(q, doc)
    assert el.terms == {Path(0, ("x1",)): Fraction(1, 10), Path(0, ("x2",)): Fraction(-3)}
    assert serialize.element_to_json(el)[0]["coeff"] == "1/10"


def _rename_arrow(doc, old: str, new) -> None:
    """Rename the arrow old to new in its quiver entry and in every path."""
    if isinstance(doc, list):
        for i, v in enumerate(doc):
            if v == old:
                doc[i] = new
            else:
                _rename_arrow(v, old, new)
    elif isinstance(doc, dict):
        if doc.get("id") == old:
            doc["id"] = new
        for v in doc.values():
            _rename_arrow(v, old, new)


def test_integer_arrow_id_exits_2(tmp_path, capsys):
    """An arrow id is a JSON string: the integer 7 made verify pass and
    cohomology raise a TypeError while it sorted the arrow names."""
    doc = _deleted_doc()
    _rename_arrow(doc, "x1_1", 7)
    assert any(a["id"] == 7 for a in doc["quiver"]["arrows"])
    code, err = _verify(tmp_path, capsys, doc)
    assert code == 2 and err.startswith("error: malformed quiver")
    path = tmp_path / "model.json"
    assert main(["cohomology", "--model", str(path), "--hmin", "-2", "--adams-max", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: malformed quiver")


def test_string_path_and_cycle_are_refused(tmp_path, capsys):
    """A path or a cycle is a JSON list of arrow ids: the string "aa" is
    not read as the word a.a, nor "aaa" as a 3-cycle."""
    arrows = [
        {"id": "a", "source": 0, "target": 0, "hdeg": 0, "adeg": 1},
        {"id": "b", "source": 0, "target": 0, "hdeg": -1, "adeg": 2},
    ]
    doc = {"quiver": {"vertices": [0], "arrows": arrows}, "differential": {"b": [{"start": 0, "path": "aa", "coeff": "1"}]}}
    code, err = _verify(tmp_path, capsys, doc)
    assert code == 2 and err.startswith("error: malformed")
    doc["differential"]["b"][0]["path"] = ["a", "a"]
    assert _verify(tmp_path, capsys, doc)[0] == 0
    q = serialize.quiver_from_json({"vertices": [0], "arrows": arrows[:1]})
    with pytest.raises(InvalidInputError, match="malformed potential"):
        serialize.potential_from_json(q, [{"coeff": "1", "cycle": "aaa"}])
    assert serialize.potential_from_json(q, [{"coeff": "1", "cycle": ["a", "a", "a"]}]).terms == {Path(0, ("a", "a", "a")): 1}
