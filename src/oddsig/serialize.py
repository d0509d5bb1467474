"""JSON document schemas for the command line: parse, validate, emit.

Every document is a JSON object with a "kind" field naming its schema.
Parsing enforces the invariants of the target type, so a document that
loads is a valid object; every emitted document re-parses to an equal
value. Cyclotomic coordinates travel as exact rational strings.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from . import descent, exactnum, plane, polyring, superell
from .errors import InputError, ParseError, SchemaError

PLANE_VARIABLES = ("x", "y", "z")


class InputDocument(NamedTuple):
    kind: str
    value: Any


def _require(obj: dict, key: str, expect=None):
    if key not in obj:
        raise SchemaError(f"document missing '{key}'")
    value = obj[key]
    # bool subclasses int, but a JSON true is not an integer field
    if expect is not None and (not isinstance(value, expect) or (expect is int and type(value) is bool)):
        raise SchemaError(f"'{key}' has the wrong type: {value!r}")
    return value


def _element(order: int, coords) -> exactnum.CyclotomicElement:
    return exactnum.CyclotomicElement.from_dict({"order": order, "coords": coords})


def _load_plane_curve(obj: dict) -> plane.PlaneCurve:
    poly = polyring.SparsePoly.from_dict(obj)
    try:
        return plane.PlaneCurve(poly)
    except (InputError, ValueError) as exc:
        raise SchemaError(f"not a plane curve: {exc}") from exc


# a function, not plane.ProjMap.from_dict itself, so that building
# _LOADERS does not load the plane layer
def _load_projective_map(obj: dict) -> plane.ProjMap:
    return plane.ProjMap.from_dict(obj)


def _load_group(obj: dict) -> list[plane.ProjMap]:
    gens = _require(obj, "generators", list)
    if not gens:
        raise SchemaError("group document needs at least one generator")
    out = []
    for item in gens:
        if not isinstance(item, dict):
            raise SchemaError("each generator must be a map object")
        out.append(plane.ProjMap.from_dict(item))
    return out


def _load_qgonal_curve(obj: dict) -> superell.QGonalCurve:
    q = _require(obj, "q", int)
    poly_doc = _require(obj, "poly", dict)
    poly = polyring.SparsePoly.from_dict(poly_doc)
    m, n = obj.get("m"), obj.get("n")
    for label, value in (("m", m), ("n", n)):
        if value is not None and type(value) is not int:
            raise SchemaError(f"'{label}' must be an integer")
    try:
        return superell.QGonalCurve(q, poly, m, n)
    except (InputError, ValueError) as exc:
        raise SchemaError(f"not a cyclic cover: {exc}") from exc


def _load_qgonal_map(obj: dict) -> superell.QGonalMap:
    order = exactnum.check_order(_require(obj, "order", int))
    rows = _require(obj, "mobius", list)
    if len(rows) != 2 or any(not isinstance(r, list) or len(r) != 2 for r in rows):
        raise SchemaError("mobius part must be a 2x2 array")
    num = _require(obj, "multiplier_num", list)
    den = _require(obj, "multiplier_den", list)
    try:
        mobius = [[_element(order, e) for e in row] for row in rows]
        # the multiplier c x^k is a ratio of two monomials
        (top, a), (bottom, b) = (_monomial(order, part) for part in (num, den))
        return superell.QGonalMap(order, mobius, a / b, top - bottom)
    except (InputError, ValueError) as exc:
        raise SchemaError(f"not a cover map: {exc}") from exc


def _monomial(order: int, coeffs: list) -> tuple[int, exactnum.CyclotomicElement]:
    """(degree, coefficient) of a polynomial with exactly one nonzero term."""
    terms = [(i, e) for i, e in enumerate(_element(order, c) for c in coeffs) if not e.is_zero()]
    if len(terms) != 1:
        raise SchemaError("multiplier parts must be monomials: one nonzero coefficient each")
    return terms[0]


def _load_family_triple(obj: dict) -> descent.FamilyTriple:
    order = exactnum.check_order(_require(obj, "order", int))
    values = _require(obj, "values", list)
    if len(values) != 3:
        raise SchemaError("family triple needs exactly three values")
    try:
        return descent.FamilyTriple(*[_element(order, v) for v in values])
    except InputError as exc:
        raise SchemaError(f"not a valid family triple: {exc}") from exc


_LOADERS = {
    "plane_curve": _load_plane_curve,
    "projective_map": _load_projective_map,
    "qgonal_curve": _load_qgonal_curve,
    "qgonal_map": _load_qgonal_map,
    "group": _load_group,
    "family_triple": _load_family_triple,
}

KINDS = tuple(_LOADERS)


def parse_document(obj: Any) -> InputDocument:
    """Validate an already-decoded JSON object."""
    if not isinstance(obj, dict):
        raise SchemaError("document must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _LOADERS:
        raise SchemaError(f"unknown document kind {kind!r}")
    return InputDocument(kind, _LOADERS[kind](obj))


def parse_input(text: str) -> InputDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past the int/str digit limit, or nesting past
        # the recursion limit
        raise ParseError(str(exc)) from exc
    return parse_document(obj)


# emission ----------------------------------------------------------------------

def qgonal_curve_document(curve: superell.QGonalCurve) -> dict:
    doc = {"kind": "qgonal_curve", "q": curve.q,
           "poly": curve.poly.to_dict(("x",))}
    if curve.m is not None:
        doc["m"] = curve.m
    if curve.n is not None:
        doc["n"] = curve.n
    return doc


def family_triple_document(triple: descent.FamilyTriple) -> dict:
    return {"kind": "family_triple", "order": triple.order,
            "values": [[str(c) for c in v.coords] for v in triple]}


def to_document(value: Any) -> dict:
    if isinstance(value, plane.PlaneCurve):
        return {"kind": "plane_curve", **value.poly.to_dict(PLANE_VARIABLES)}
    if isinstance(value, plane.ProjMap):
        return value.to_dict()
    if isinstance(value, superell.QGonalCurve):
        return qgonal_curve_document(value)
    if isinstance(value, superell.QGonalMap):
        return value.to_dict()
    if isinstance(value, descent.FamilyTriple):
        return family_triple_document(value)
    if isinstance(value, (list, tuple)) and value and all(
            isinstance(g, plane.ProjMap) for g in value):
        return {"kind": "group", "generators": [g.to_dict() for g in value]}
    raise TypeError(f"no document schema for {type(value).__name__}")


def dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, stable layout, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
