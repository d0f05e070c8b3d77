"""The exit-code contract of the CLI under mutated input documents.

Valid model, presentation, map, quiver and potential documents are
mutated (a key or list entry dropped, a value replaced by one of the
wrong type, a bad coefficient or another vertex id) and fed to
cohomology, compare-h0, verify and ginzburg in-process.  No exception may
escape main; the exit code is 1, 2 or 3, or 0 when the documents still
read as valid; exit 1 prints a JSON report with a witness.  Validity of
the degrees, coefficients and vertex ids is judged on the JSON types, not
by the library's readers, so a reader that accepts a float or a boolean
fails.

The example count comes from the hypothesis profile (see conftest.py),
so CI can run this file at a larger count."""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from dgquiver import DGQuiverError, McKayData, check_d_squared, check_grading, delete_vertex, mckay_model, serialize
from dgquiver.cli import main
from dgquiver.koszul import mckay_commutation_presentation

_DATA = McKayData(3, (1, 1, 1))
_PRES = mckay_commutation_presentation(_DATA).delete_vertex(0)
_BASE = {
    "model": serialize.model_to_json(delete_vertex(mckay_model(_DATA), 0)),
    "presentation": serialize.presentation_to_json(_PRES),
    "map": {"arrows": {a.name: a.name for a in _PRES.quiver.arrows}, "vertices": {"1": 1, "2": 2}},
    "quiver": {
        "vertices": [0, 1],
        "arrows": [
            {"id": "p", "source": 0, "target": 1, "hdeg": 0, "adeg": 1},
            {"id": "q", "source": 0, "target": 1, "hdeg": 0, "adeg": 1},
            {"id": "r", "source": 1, "target": 0, "hdeg": 0, "adeg": 1},
            {"id": "s", "source": 1, "target": 0, "hdeg": 0, "adeg": 1},
        ],
    },
    "potential": [
        {"coeff": "1", "cycle": ["p", "s", "q", "r"]},
        {"coeff": "-1", "cycle": ["p", "r", "q", "s"]},
    ],
}
# the documents each command reads
_READS = {
    "cohomology": ("model",),
    "verify": ("model",),
    "compare-h0": ("model", "presentation", "map"),
    "ginzburg": ("quiver", "potential"),
}
# wrong types, bad coefficients and vertex ids, valid or not
_POISON = (None, True, 1.5, -1, 0, 1, 2, 7, 10**30, "", "x", "1/0", "0", "3/2", "-1", [], [1], {}, {"x": 1})


def _locations(doc, at=()):
    """The key path of every node of a JSON document."""
    yield at
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _locations(v, at + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _locations(v, at + (i,))


def _mutate(doc, at: tuple, drop: bool, value):
    """doc with the node at `at` dropped from its parent or replaced by value."""
    if not at:
        return value
    parent = doc
    for k in at[:-1]:
        parent = parent[k]
    if drop:
        del parent[at[-1]]
    else:
        parent[at[-1]] = value
    return doc


def _argv(command: str, files: dict, delete: str | None) -> list[str]:
    if command == "cohomology":
        return ["cohomology", "--model", files["model"], "--hmin", "-2", "--adams-max", "3"]
    if command == "verify":
        return ["verify", "--model", files["model"]]
    if command == "compare-h0":
        return [
            "compare-h0", "--model", files["model"], "--presentation", files["presentation"],
            "--map", files["map"], "--adams-max", "3",
        ]
    argv = ["ginzburg", "--quiver", files["quiver"], "--potential", files["potential"], "--verify"]
    return argv + (["--delete-vertex", delete] if delete is not None else [])


def _exact_values(doc) -> bool:
    """Whether every degree of a JSON document is an integer, every
    coefficient and every vertex id (an arrow's source or target, a
    term's start, an entry of a quiver's vertex list or of a map's vertex
    object) a string or an integer, every arrow id a string and every
    path and cycle a list, judged on the JSON types alone, so that a
    reader that accepts floats, booleans, integer arrow ids or string
    words disagrees with it."""
    if isinstance(doc, list):
        return all(_exact_values(v) for v in doc)
    if not isinstance(doc, dict):
        return True
    for key, value in doc.items():
        if key in ("hdeg", "adeg") and type(value) is not int:
            return False
        if key in ("coeff", "source", "target", "start") and type(value) not in (str, int):
            return False
        if (key == "id" and type(value) is not str) or (key in ("path", "cycle") and type(value) is not list):
            return False
        if key == "vertices" and isinstance(value, (list, dict)):
            if any(type(v) not in (str, int) for v in (value.values() if isinstance(value, dict) else value)):
                return False
        if not _exact_values(value):
            return False
    return True


def _still_valid(command: str, docs: dict) -> bool:
    """Whether every document of the command has exact numbers and
    vertex ids (_exact_values), the library reads it, and a model passes
    its grading and d^2 checks."""
    if not all(_exact_values(docs[name]) for name in _READS[command]):
        return False
    try:
        if "model" in _READS[command]:
            d = serialize.model_from_json(docs["model"]).differential
            if check_grading(d)["status"] != "pass" or check_d_squared(d)["status"] != "pass":
                return False
        if command == "compare-h0":
            serialize.presentation_from_json(docs["presentation"])
            if not isinstance(docs["map"], dict):
                return False
        if command == "ginzburg":
            serialize.potential_from_json(serialize.quiver_from_json(docs["quiver"]), docs["potential"])
    except DGQuiverError:
        return False
    return True


def _has_witness(doc) -> bool:
    if isinstance(doc, dict):
        return "witness" in doc or any(_has_witness(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_has_witness(v) for v in doc)
    return False


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


@settings(deadline=None)
@given(st.data())
def test_mutated_documents_keep_the_exit_code_contract(data):
    command = data.draw(st.sampled_from(sorted(_READS)), label="command")
    docs = {name: copy.deepcopy(_BASE[name]) for name in _READS[command]}
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        name = data.draw(st.sampled_from(_READS[command]), label="document")
        at = data.draw(st.sampled_from(list(_locations(docs[name]))), label="at")
        drop = data.draw(st.booleans(), label="drop")
        value = data.draw(st.sampled_from(_POISON), label="value")
        # a copy, so a later mutation inside it changes neither _POISON nor
        # another place holding the same value
        docs[name] = _mutate(docs[name], at, drop, copy.deepcopy(value))
    delete = data.draw(st.sampled_from([None, "0", "1", "7"]), label="delete vertex")

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"DGQ_PATH_CAP": "20000"}):
        files = {}
        for name, doc in docs.items():
            files[name] = os.path.join(tmp, f"{name}.json")
            with open(files[name], "w") as fh:
                json.dump(doc, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(_argv(command, files, delete))

    event(f"{command} exit {code}")
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    if code == 0:
        assert _still_valid(command, docs)
    if code == 1:
        assert any(_has_witness(_json_or_none(text)) for text in (out.getvalue(), err.getvalue()))
    if code in (2, 3):
        assert err.getvalue().startswith(("error: ", "resource limit: "))
