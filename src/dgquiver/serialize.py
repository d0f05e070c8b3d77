"""JSON (de)serialization for quivers, elements, differentials, models,
presentations and superpotentials.

Dumping is canonical (sorted keys, fixed separators) so serialize ->
parse -> serialize is byte-identical.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from typing import Any

from .core import AlgebraElement, Arrow, GradedQuiver, Path, add_term, exact
from .differential import Differential, DGModel
from .errors import InvalidInputError
from .ginzburg import Superpotential
from .presentations import PresentedAlgebra


# what a document of the wrong shape raises while it is read: a missing
# key, a list where a dict belongs, a bad number, a zero denominator
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError)


@contextmanager
def _reading(what: str):
    """Report a document of the wrong shape as invalid input."""
    try:
        yield
    except _MALFORMED as exc:
        raise InvalidInputError(f"malformed {what} document: {exc}") from exc


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def quiver_to_json(q: GradedQuiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [
            {
                "id": a.name,
                "source": a.source,
                "target": a.target,
                "hdeg": a.hdeg,
                "adeg": a.adeg,
                "label": a.label,
            }
            for a in q.arrows
        ],
    }


def _exact(value, *types):
    """value if its type is one of types: a JSON float or bool is no exact
    number, "aa" is no word; vertex ids are read as _exact(v, str, int),
    arrow ids as _exact(a, str), paths and cycles as _exact(p, list)."""
    if type(value) not in types:
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _optional(doc: dict, key: str, default, kind: type):
    """doc[key] read as _exact(doc[key], kind), or default where the key is
    missing or null: arrow labels are strings, a provenance is a string
    and metadata is an object."""
    value = doc.get(key)
    return default if value is None else _exact(value, kind)


def quiver_from_json(doc: dict) -> GradedQuiver:
    with _reading("quiver"):
        arrows = tuple(
            Arrow(_exact(a["id"], str), _exact(a["source"], str, int), _exact(a["target"], str, int),
                  _exact(a["hdeg"], int), _exact(a["adeg"], int), _optional(a, "label", "", str))
            for a in doc["arrows"]
        )
        return GradedQuiver(tuple(_exact(v, str, int) for v in doc["vertices"]), arrows)


def element_to_json(el: AlgebraElement) -> list[dict]:
    return [
        {"start": p.start, "path": list(p.arrows), "coeff": str(c)}
        for p, c in el.sorted_terms()
    ]


def element_from_json(quiver: GradedQuiver, doc: list, coeffs: dict | None = None) -> AlgebraElement:
    """coeffs maps the coefficients already read from this document to
    their values, each parsed once and made exact by core.exact."""
    coeffs = {} if coeffs is None else coeffs
    terms = {}
    with _reading("element"):
        for t in doc:
            p = Path(_exact(t["start"], str, int), tuple(_exact(t["path"], list)))
            if not quiver.is_valid_path(p):
                raise InvalidInputError(f"invalid path in element: {t}")
            raw = _exact(t["coeff"], str, int)
            c = coeffs.get(raw)
            if c is None:
                c = coeffs[raw] = exact(Fraction(raw))
            add_term(terms, p, c)
    return AlgebraElement(quiver, terms)


def differential_to_json(d: Differential) -> dict:
    return {
        name: element_to_json(el)
        for name, el in sorted(d.on_arrows.items())
        if el
    }


def differential_from_json(quiver: GradedQuiver, doc: dict) -> Differential:
    coeffs: dict = {}
    return Differential(quiver, {name: element_from_json(quiver, el, coeffs) for name, el in doc.items()})


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def model_to_json(m: DGModel) -> dict:
    return {
        "quiver": quiver_to_json(m.quiver),
        "differential": differential_to_json(m.differential),
        "provenance": m.provenance,
        "metadata": _jsonable(dict(m.metadata)),
    }


def model_from_json(doc: dict) -> DGModel:
    with _reading("model"):
        q = quiver_from_json(doc["quiver"])
        d = differential_from_json(q, doc.get("differential", {}))
        return DGModel(q, d, _optional(doc, "provenance", "general", str), _optional(doc, "metadata", {}, dict))


def presentation_to_json(p: PresentedAlgebra) -> dict:
    return {
        "quiver": quiver_to_json(p.quiver),
        "relators": [element_to_json(r) for r in p.relators],
    }


def presentation_from_json(doc: dict) -> PresentedAlgebra:
    with _reading("presentation"):
        q = quiver_from_json(doc["quiver"])
        coeffs: dict = {}
        return PresentedAlgebra(q, tuple(element_from_json(q, r, coeffs) for r in doc.get("relators", [])))


def potential_to_json(w: Superpotential) -> list[dict]:
    return [
        {"coeff": str(c), "cycle": list(p.arrows)}
        for p, c in sorted(w.terms.items(), key=lambda t: t[0].sort_key())
    ]


def potential_from_json(quiver: GradedQuiver, doc: list) -> Superpotential:
    terms = {}
    with _reading("potential"):
        for t in doc:
            cycle = tuple(_exact(t["cycle"], list))
            if not cycle:
                raise InvalidInputError("empty cycle in potential")
            p = Path(quiver.arrow(cycle[0]).source, cycle)
            add_term(terms, p, Fraction(_exact(t["coeff"], str, int)))
    return Superpotential(quiver, terms)
