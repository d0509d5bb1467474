"""JSON documents: the one reader and writer of every document the command
line reads or emits; no layer below this module knows a JSON key.

Every input document is a JSON object with a "kind" field naming its
schema. Parsing enforces the invariants of the target type, so a document
that loads is a valid object; every emitted document re-parses to an equal
value. A cyclotomic number travels as its power-basis coordinates, each a
JSON integer or an exact rational string of one ASCII grammar: an optional
sign, digits, then optionally "/digits" or a decimal part ("-1/3", "0.25",
".5"). A float, a boolean, an exponent, an underscore, whitespace or a
non-ASCII digit is refused on every Python version. A field order above
exactnum.MAX_ORDER or a term degree above polyring.MAX_DEGREE raises
BoundExceeded before any arithmetic on it. Some shapes exist only in documents: a cover map's
x -> s x^e travels as an invertible diagonal or antidiagonal Moebius
matrix, read into (scale, flip) and written normalised, and a cyclic
cover's f as a one-variable polynomial, read into and written from the
coefficient list the curve holds. The CLI calls the per-kind writers
directly, since to_document's type dispatch would load every layer.
"""

from __future__ import annotations

import json
import re
from typing import Any, NamedTuple

from . import descent, exactnum, plane, polyring, superell
from .errors import BoundExceeded, InputError, ParseError, SchemaError

PLANE_VARIABLES = ("x", "y", "z")

# the CLI refuses a longer document file unread; the largest one the resource
# bound checks write, the dense degree-128 curve, is 425 281 bytes
MAX_DOCUMENT_BYTES = 16 * 2**20

# [0-9], not \d, which also matches non-ASCII digits
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+)")


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


# reading -----------------------------------------------------------------------

def check_order(order) -> int:
    """A field order read from a document: a positive int, at most MAX_ORDER.
    A JSON boolean is not an int here, although bool subclasses int."""
    if type(order) is not int or order < 1:
        raise SchemaError(f"bad order: {order!r}")
    if order > exactnum.MAX_ORDER:
        raise BoundExceeded(f"field order {order} exceeds the bound {exactnum.MAX_ORDER}")
    return order


def read_element(order: int, coords) -> exactnum.CyclotomicElement:
    """The element of Q(zeta_order), order already checked, with the
    document coordinates coords."""
    phi = exactnum.euler_phi(order)
    if not isinstance(coords, list) or len(coords) != phi:
        raise SchemaError(f"expected {phi} coordinates for order {order}")
    for c in coords:
        # a JSON float is inexact and a JSON true is not a number; an
        # exponent such as "1e99999999" would build a huge power of ten
        if not (type(c) is int or isinstance(c, str) and "e" not in c.lower()):
            raise SchemaError(f"a coordinate is a rational string such as \"-1/3\" or an integer, not {c!r}")
    for c in coords:
        # Fraction's own syntax varies: "1_0" reads as 10 from Python 3.11 on,
        # and non-ASCII digits read on every version. A string outside the
        # grammar gets the message Fraction gives the literals it refuses.
        if isinstance(c, str) and not _RATIONAL.fullmatch(c):
            raise SchemaError(f"bad rational coordinate: Invalid literal for Fraction: {c!r}")
    try:
        return exactnum.CyclotomicElement(order, coords)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational coordinate: {exc}") from exc


def read_poly(obj: dict) -> polyring.SparsePoly:
    """A polynomial from the 'order', 'variables' and 'terms' of obj."""
    for key in ("order", "variables", "terms"):
        if key not in obj:
            raise SchemaError(f"polynomial document missing '{key}'")
    order, variables, raw_terms = check_order(obj["order"]), obj["variables"], obj["terms"]
    if not isinstance(variables, list) or not variables:
        raise SchemaError("variables must be a nonempty list")
    nvars = len(variables)
    if not isinstance(raw_terms, list):
        raise SchemaError("terms must be a list")
    acc: dict[tuple[int, ...], exactnum.CyclotomicElement] = {}
    for item in raw_terms:
        if not isinstance(item, dict) or "exponents" not in item or "coefficient" not in item:
            raise SchemaError("each term needs 'exponents' and 'coefficient'")
        exps = item["exponents"]
        if not isinstance(exps, list) or len(exps) != nvars or any(type(e) is not int or e < 0 for e in exps):
            raise SchemaError(f"bad exponent vector: {exps!r}")
        polyring.check_degree(sum(exps), "term degree")
        coeff = read_element(order, item["coefficient"])
        key = tuple(exps)
        if key in acc:
            raise SchemaError(f"duplicate exponent vector: {exps!r}")
        acc[key] = coeff
    return polyring.SparsePoly(order, nvars, acc)


def _load_plane_curve(obj: dict) -> plane.PlaneCurve:
    poly = read_poly(obj)
    try:
        return plane.PlaneCurve(poly)
    except (InputError, ValueError) as exc:
        raise SchemaError(f"not a plane curve: {exc}") from exc


def _load_projective_map(obj: dict) -> plane.ProjMap:
    if "order" not in obj or "entries" not in obj:
        raise SchemaError("projective map document needs 'order' and 'entries'")
    order = check_order(obj["order"])
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != 3 or any(not isinstance(r, list) or len(r) != 3 for r in entries):
        raise SchemaError("entries must be a 3x3 array")
    rows = [[read_element(order, c) for c in row] for row in entries]
    try:
        return plane.ProjMap(order, rows)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _load_group(obj: dict) -> list[plane.ProjMap]:
    gens = _require(obj, "generators", list)
    if not gens:
        raise SchemaError("group document needs at least one generator")
    out = []
    for item in gens:
        if not isinstance(item, dict):
            raise SchemaError("each generator must be a map object")
        out.append(_load_projective_map(item))
    return out


def _load_qgonal_curve(obj: dict) -> superell.QGonalCurve:
    q = _require(obj, "q", int)
    poly_doc = _require(obj, "poly", dict)
    poly = read_poly(poly_doc)
    m, n = obj.get("m"), obj.get("n")
    for label, value in (("m", m), ("n", n)):
        if value is not None and type(value) is not int:
            raise SchemaError(f"'{label}' must be an integer")
    if poly.nvars != 1:
        raise SchemaError("not a cyclic cover: a univariate list needs a polynomial in one "
                          f"variable, not {poly.nvars}")
    zero = exactnum.CyclotomicElement.zero(poly.order)
    degree = max((e for (e,) in poly.terms), default=-1)
    coeffs = [poly.terms.get((e,), zero) for e in range(degree + 1)]
    try:
        return superell.QGonalCurve(q, coeffs, m, n)
    except (InputError, ValueError) as exc:
        raise SchemaError(f"not a cyclic cover: {exc}") from exc


def _load_qgonal_map(obj: dict) -> superell.QGonalMap:
    """x -> s x^e from an invertible diagonal or antidiagonal Moebius
    matrix, and the multiplier c x^k as a ratio of two monomials."""
    order = check_order(_require(obj, "order", int))
    rows = _require(obj, "mobius", list)
    if len(rows) != 2 or any(not isinstance(r, list) or len(r) != 2 for r in rows):
        raise SchemaError("mobius part must be a 2x2 array")
    num = _require(obj, "multiplier_num", list)
    den = _require(obj, "multiplier_den", list)
    try:
        (a, b), (c, d) = ([read_element(order, e) for e in row] for row in rows)
        (top, lead), (bottom, low) = (_monomial(order, part) for part in (num, den))
    except InputError as exc:
        raise SchemaError(f"not a cover map: {exc}") from exc
    if b.is_zero() and c.is_zero() and not (a.is_zero() or d.is_zero()):
        scale, flip = a / d, 1
    elif a.is_zero() and d.is_zero() and not (b.is_zero() or c.is_zero()):
        scale, flip = b / c, -1
    else:
        raise SchemaError("not a cover map: moebius part must be an invertible "
                          "diagonal or antidiagonal matrix")
    return superell.QGonalMap(order, scale, flip, lead / low, top - bottom)


def _monomial(order: int, coeffs: list) -> tuple[int, exactnum.CyclotomicElement]:
    """(degree, coefficient) of a polynomial with exactly one nonzero term."""
    terms = [(i, e) for i, e in enumerate(read_element(order, c) for c in coeffs) if not e.is_zero()]
    if len(terms) != 1:
        raise SchemaError("multiplier parts must be monomials: one nonzero coefficient each")
    return terms[0]


def _load_family_triple(obj: dict) -> descent.FamilyTriple:
    order = check_order(_require(obj, "order", int))
    values = _require(obj, "values", list)
    if len(values) != 3:
        raise SchemaError("family triple needs exactly three values")
    try:
        return descent.FamilyTriple(*[read_element(order, v) for v in values])
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


# writing -----------------------------------------------------------------------

def _coords(value: exactnum.CyclotomicElement) -> list[str]:
    return [str(c) for c in value.coords]


def element_document(value: exactnum.CyclotomicElement) -> dict:
    return {"order": value.order, "coords": _coords(value)}


def poly_document(poly: polyring.SparsePoly, variables) -> dict:
    """The 'order', 'variables' and 'terms' of poly, terms in canonical order."""
    return {"order": poly.order, "variables": list(variables),
            "terms": [{"exponents": list(e), "coefficient": _coords(c)}
                      for e, c in poly.sorted_terms()]}


def projective_map_document(mapping: plane.ProjMap) -> dict:
    return {"kind": "projective_map", "order": mapping.order,
            "entries": [[_coords(c) for c in row] for row in mapping.entries]}


def qgonal_map_document(mapping: superell.QGonalMap) -> dict:
    """The normalised Moebius matrix of x -> s x^e, [[1, 0], [0, 1/s]] or
    [[0, 1], [1/s, 0]], and the multiplier c x^k as coefficient lists of a
    numerator and a monic denominator."""
    order, k = mapping.order, mapping.exponent
    zero = _coords(exactnum.CyclotomicElement.zero(order))
    one = _coords(exactnum.CyclotomicElement.one(order))
    inv = _coords(mapping.scale.inverse())
    mobius = [[one, zero], [zero, inv]] if mapping.flip == 1 else [[zero, one], [inv, zero]]
    coeff = _coords(mapping.coeff)
    num, den = ([zero] * k + [coeff], [one]) if k >= 0 else ([coeff], [zero] * -k + [one])
    return {"kind": "qgonal_map", "order": order, "mobius": mobius,
            "multiplier_num": num, "multiplier_den": den}


def qgonal_curve_document(curve: superell.QGonalCurve) -> dict:
    """f through its nonzero terms, highest degree first, as poly_document
    orders them."""
    terms = [{"exponents": [i], "coefficient": _coords(c)}
             for i, c in reversed(list(enumerate(curve.coeffs))) if not c.is_zero()]
    doc = {"kind": "qgonal_curve", "q": curve.q,
           "poly": {"order": curve.order, "variables": ["x"], "terms": terms}}
    if curve.m is not None:
        doc["m"] = curve.m
    if curve.n is not None:
        doc["n"] = curve.n
    return doc


def family_triple_document(triple: descent.FamilyTriple) -> dict:
    return {"kind": "family_triple", "order": triple.order,
            "values": [_coords(v) for v in triple]}


def to_document(value: Any) -> dict:
    if isinstance(value, plane.PlaneCurve):
        return {"kind": "plane_curve", **poly_document(value.poly, PLANE_VARIABLES)}
    if isinstance(value, plane.ProjMap):
        return projective_map_document(value)
    if isinstance(value, superell.QGonalCurve):
        return qgonal_curve_document(value)
    if isinstance(value, superell.QGonalMap):
        return qgonal_map_document(value)
    if isinstance(value, descent.FamilyTriple):
        return family_triple_document(value)
    if isinstance(value, (list, tuple)) and value and all(
            isinstance(g, plane.ProjMap) for g in value):
        return {"kind": "group", "generators": [projective_map_document(g) for g in value]}
    raise TypeError(f"no document schema for {type(value).__name__}")


def dumps(obj: Any) -> str:
    """Canonical JSON: sorted keys, stable layout, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
