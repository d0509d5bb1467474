"""Plane projective curves and PGL_3 maps over cyclotomic fields.

Maps are stored as 3x3 matrices normalized so the first nonzero entry in
row-major order is 1; equality of normalized matrices is equality in PGL_3
(for matrices over the same field the proportionality scalar lies in it).
ProjMap and PlaneCurve are NamedTuple records compared field by field, so a
value and its lift to a larger field are unequal.
The product and the determinant multiply only nonzero entries: for monomial
maps a product costs 3 field multiplications instead of 27, a determinant 2
instead of 9. A product is normalized without re-coercing its entries, and
every map, products included, is checked to be invertible.

Smoothness is decided exactly: a curve is singular iff its three partial
derivatives share a projective zero. Each partial P of degree e goes to the
list layer in one step, read off its terms. On the line z = 0 its terms
(a, e - a, 0) are the x-list of P(x, 1, 0): one gcd of these lists decides
the points (x : 1 : 0), and (1 : 0 : 0) is a common zero exactly when no
list keeps its x^e term. Once the line is clear, (0 : 1 : 0) is no common zero,
so some partial has a y^(d-1) term: its chart polynomial f (z = 1) has
y-degree n = d - 1 and a constant leading coefficient in y. For the other
two chart partials g and h, R(x, u) = Res_y(f, g + u h) is at each x0 a
constant times the product of g(x0, y_i) + u h(x0, y_i) over the n roots y_i
of f(x0, y): a polynomial of degree at most n in u, zero for every u exactly
when some y_i zeroes both g and h, and so zero for every u as soon as it
vanishes at u = 0, ..., n. The affine chart is therefore decided by one gcd
in K[x], of the partials free of y and of R(x, 0), ..., R(x, n): the
elimination device behind the Extension Theorem (Cox, Little and O'Shea,
Ideals, Varieties, and Algorithms, ch. 3). In the chart the terms (a, b, c)
of a partial are the coefficients of x^a y^b, since c = e - a - b:
polyring.poly_as_ylists reads each live partial as a y-list, a polynomial in
y over K[x] as dense lists, exactly once, with no 2-variable polynomial in
between.
plane reaches polyring as a module, so a command that uses only maps, such
as group-closure, never runs it.
require_verdict_curve refuses, before any verdict, a curve outside the
theorem: degree below 4 or above MAX_PLANE_DEGREE, or singular.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from . import polyring
from .errors import (
    BoundExceeded,
    GenusTooSmall,
    HypothesisViolation,
    InternalInconsistency,
    NotAnIsomorphism,
    OrderMismatch,
    VariableCountMismatch,
    ZeroPolynomial,
)
from .exactnum import CyclotomicElement, as_element, common_order

Entry = Union[int, Fraction, CyclotomicElement]

# the largest degree a verdict or an isomorphism test accepts: the exact
# is_smooth grows about 4x per degree on dense curves, F o A about as d^4.6,
# and every fixture and benchmark curve is a quartic
MAX_PLANE_DEGREE = 7


class _ProjMapFields(NamedTuple):
    order: int
    entries: tuple[tuple[CyclotomicElement, ...], ...]


class ProjMap(_ProjMapFields):
    """An element of PGL_3 over Q(zeta_order), stored in canonical form."""

    __slots__ = ()

    def __new__(cls, order: int, entries: Sequence[Sequence[Entry]]):
        if len(entries) != 3 or any(len(row) != 3 for row in entries):
            raise VariableCountMismatch("projective map needs a 3x3 matrix")
        return _canonical(order, [[as_element(e, order) for e in row] for row in entries])

    @classmethod
    def identity(cls, order: int) -> "ProjMap":
        return cls(order, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @classmethod
    def diagonal(cls, order: int, d0: Entry, d1: Entry, d2: Entry) -> "ProjMap":
        return cls(order, [[d0, 0, 0], [0, d1, 0], [0, 0, d2]])

    @classmethod
    def permutation(cls, order: int, images: Sequence[int]) -> "ProjMap":
        """Coordinate permutation sending point coordinate j to slot images[j]."""
        rows = [[0, 0, 0] for _ in range(3)]
        for j, i in enumerate(images):
            rows[i][j] = 1
        return cls(order, rows)

    def det(self) -> CyclotomicElement:
        return matrix_det(self.entries)

    def compose(self, other: "ProjMap") -> "ProjMap":
        """self after other (matrix product self * other)."""
        if other.order != self.order:
            raise OrderMismatch("compose requires a common field; lift first")
        return _canonical(self.order, matrix_product(self.entries, other.entries, self.order))

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self) -> "ProjMap":
        m = self.entries
        cof = [
            [m[1][1] * m[2][2] - m[1][2] * m[2][1],
             m[0][2] * m[2][1] - m[0][1] * m[2][2],
             m[0][1] * m[1][2] - m[0][2] * m[1][1]],
            [m[1][2] * m[2][0] - m[1][0] * m[2][2],
             m[0][0] * m[2][2] - m[0][2] * m[2][0],
             m[0][2] * m[1][0] - m[0][0] * m[1][2]],
            [m[1][0] * m[2][1] - m[1][1] * m[2][0],
             m[0][1] * m[2][0] - m[0][0] * m[2][1],
             m[0][0] * m[1][1] - m[0][1] * m[1][0]],
        ]
        return ProjMap(self.order, cof)

    def is_identity(self) -> bool:
        # canonical form scales the first nonzero entry to 1, so a scalar
        # matrix is stored as the identity matrix
        return all(e.is_one() if r == c else e.is_zero()
                   for r, row in enumerate(self.entries) for c, e in enumerate(row))

    def galois(self, exponent: int) -> "ProjMap":
        return ProjMap(self.order, [[c.galois(exponent) for c in row] for row in self.entries])

    def conjugate(self) -> "ProjMap":
        return self.galois(-1)

    def lift_to(self, order: int) -> "ProjMap":
        if order == self.order:
            return self
        return ProjMap(order, [[c.lift_to(order) for c in row] for row in self.entries])

    def key(self) -> tuple:
        return (self.order, tuple(tuple(c.coords for c in row) for row in self.entries))


def matrix_product(a, b, order: int) -> tuple[tuple[CyclotomicElement, ...], ...]:
    """The 3x3 product a * b over Q(zeta_order), without normalizing. Only
    pairs of nonzero entries are multiplied; an entry with no such pair is zero."""
    b_rows = [[(c, y) for c, y in enumerate(row) if not y.is_zero()] for row in b]
    zero = CyclotomicElement.zero(order)
    out = []
    for row in a:
        acc = [None, None, None]
        for x, terms in zip(row, b_rows):
            if terms and not x.is_zero():
                for c, y in terms:
                    t = x * y
                    acc[c] = t if acc[c] is None else acc[c] + t
        out.append(tuple(zero if e is None else e for e in acc))
    return tuple(out)


def matrix_det(m) -> CyclotomicElement:
    """Determinant of a 3x3 matrix over one Q(zeta_N), by cofactor expansion
    along row 0 that skips zero entries and zero 2x2 terms: 9
    multiplications for a dense matrix, 2 for a monomial one."""
    total = CyclotomicElement.zero(m[0][0].order)
    for c in range(3):
        if m[0][c].is_zero():
            continue
        j, k = (c + 1) % 3, (c + 2) % 3  # the cyclic order carries the cofactor sign
        plus = None if m[1][j].is_zero() or m[2][k].is_zero() else m[1][j] * m[2][k]
        if not (m[1][k].is_zero() or m[2][j].is_zero()):
            minus = m[1][k] * m[2][j]
            plus = -minus if plus is None else plus - minus
        if plus is not None:
            total = total + m[0][c] * plus
    return total


def char_poly(m) -> tuple[CyclotomicElement, CyclotomicElement, CyclotomicElement]:
    """(e1, e2, e3) with charpoly(M) = x^3 - e1 x^2 + e2 x - e3 for the
    3x3 matrix M as given, not rescaled: the trace, the sum of the
    principal 2x2 minors and the determinant."""
    tr = m[0][0] + m[1][1] + m[2][2]
    s2 = (m[0][0] * m[1][1] - m[0][1] * m[1][0]
          + m[0][0] * m[2][2] - m[0][2] * m[2][0]
          + m[1][1] * m[2][2] - m[1][2] * m[2][1])
    return tr, s2, matrix_det(m)


def _canonical(order: int, rows) -> ProjMap:
    """The ProjMap of rows whose entries already lie in Q(zeta_order), such
    as a product of two maps, scaled so the first nonzero entry is 1: no
    coercion pass, and ValueError unless the rows form an invertible matrix."""
    pivot = next((c for row in rows for c in row if not c.is_zero()), None)
    if pivot is None:
        raise ValueError("zero matrix is not a projective map")
    if not pivot.is_one():
        inv = pivot.inverse()
        rows = [[c if c.is_zero() else c * inv for c in row] for row in rows]
    entries = tuple(tuple(row) for row in rows)
    if matrix_det(entries).is_zero():
        raise ValueError("projective map must be invertible")
    return ProjMap._make((order, entries))


class _PlaneCurveFields(NamedTuple):
    poly: polyring.SparsePoly


class PlaneCurve(_PlaneCurveFields):
    """A plane projective curve F(x, y, z) = 0 with F homogeneous."""

    __slots__ = ()

    def __new__(cls, poly: polyring.SparsePoly):
        if poly.nvars != 3:
            raise VariableCountMismatch("plane curve needs three variables")
        if poly.is_zero():
            raise ZeroPolynomial("zero polynomial does not define a curve")
        if not poly.is_homogeneous():
            raise ValueError("plane curve polynomial must be homogeneous")
        if poly.total_degree() < 1:
            raise ValueError("plane curve polynomial must be nonconstant")
        return super().__new__(cls, poly)

    @property
    def order(self) -> int:
        return self.poly.order

    @property
    def degree(self) -> int:
        return self.poly.total_degree()

    def genus(self) -> int:
        """Genus of a smooth plane curve of this degree."""
        d = self.degree
        return (d - 1) * (d - 2) // 2

    def lift_to(self, order: int) -> "PlaneCurve":
        if order == self.order:
            return self
        return PlaneCurve(self.poly.lift_to(order))

    def galois(self, exponent: int) -> "PlaneCurve":
        return PlaneCurve(self.poly.galois(exponent))

    def conjugate(self) -> "PlaneCurve":
        return self.galois(-1)


def is_isomorphism_onto(source: PlaneCurve, target: PlaneCurve, mapping: ProjMap):
    """Test F_target o A = lambda * F_source; returns (bool, lambda or None).
    A curve of degree above MAX_PLANE_DEGREE raises BoundExceeded before
    any substitution."""
    _require_degree_bound(source)
    _require_degree_bound(target)
    order = common_order(source.order, target.order, mapping.order)
    f = source.poly.lift_to(order)
    g = target.poly.lift_to(order)
    a = mapping.lift_to(order)
    composed = g.substitute_linear(a.entries)
    if set(composed.terms) != set(f.terms):
        return False, None
    exps, lead = f.leading_term()
    lam = composed.terms[exps] / lead
    for e, c in f.terms.items():
        if composed.terms[e] != c * lam:
            return False, None
    return True, lam


def _require_degree_bound(curve: PlaneCurve) -> None:
    if curve.degree > MAX_PLANE_DEGREE:
        raise BoundExceeded(f"plane curve degree {curve.degree} exceeds the bound {MAX_PLANE_DEGREE}")


def is_automorphism(curve: PlaneCurve, mapping: ProjMap):
    """Test F o A = lambda * F; returns (bool, lambda or None)."""
    return is_isomorphism_onto(curve, curve, mapping)


def require_isomorphism(source: PlaneCurve, target: PlaneCurve, mapping: ProjMap) -> CyclotomicElement:
    ok, lam = is_isomorphism_onto(source, target, mapping)
    if not ok:
        raise NotAnIsomorphism("map does not carry the source curve onto the target curve")
    return lam


# smoothness ------------------------------------------------------------------

def _share_a_root(lists) -> bool:
    """Do the nonzero x-lists among lists share a root over the algebraic
    closure? True when none is nonzero; stops at the first gcd of degree 0."""
    d: list[CyclotomicElement] = []
    for c in lists:
        if c:
            d = polyring.uni_gcd(d, c) if d else c
            if len(d) == 1:
                return False
    return True


def _line_common_zero(partials: list[polyring.SparsePoly], e: int) -> bool:
    """Do the partials, forms of degree e, share a zero on the line z = 0?

    The terms (a, e - a, 0) of a partial P are the x-list of P(x, 1, 0), so
    the points (x : 1 : 0) are decided by one gcd of such lists, and
    (1 : 0 : 0) is a common zero exactly when no list keeps its x^e term."""
    xlists = []
    for p in partials:
        row = [CyclotomicElement.zero(p.order)] * (e + 1)
        for (a, _, c), coeff in p.terms.items():
            if not c:
                row[a] = coeff
        xlists.append(polyring.uni_trim(row))
    return all(len(row) <= e for row in xlists) or _share_a_root(xlists)


def has_common_affine_zero(forms: list[polyring.SparsePoly]) -> bool:
    """Do forms in x, y and z, read in the chart z = 1, share a zero there
    over the algebraic closure?

    Precondition: some input has positive y-degree and a constant leading
    coefficient in y; is_smooth meets it once the line z = 0 is clear. f is
    the first such input of the highest y-degree n. With g_1, ..., g_k the
    other inputs of positive y-degree, the pencil of the module docstring
    becomes Res_y(f, g_1 + u g_2 + ... + u^(k-1) g_k), of degree at most
    n(k - 1) in u; the chart partials have k <= 2 and take at most n + 1
    resultants."""
    ylists = [polyring.poly_as_ylists(p) for p in forms if not p.is_zero()]
    if not ylists:
        return True
    if any(len(g) == 1 and len(g[0]) == 1 for g in ylists):
        return False
    constant_lead = [g for g in ylists if len(g) > 1 and len(g[-1]) == 1]
    if not constant_lead:
        raise InternalInconsistency("no input has positive y-degree and a constant leading coefficient in y")
    f = max(constant_lead, key=len)
    others = [g for g in ylists if len(g) > 1 and g is not f]
    pencils = (_pencil(others, u) for u in range((len(f) - 1) * (len(others) - 1) + 1))
    resultants = (polyring.resultant(f, pencil) for pencil in pencils if pencil)
    return _share_a_root(itertools.chain((g[0] for g in ylists if len(g) == 1), resultants))


def _pencil(ylists: list, u: int) -> list:
    """The y-list sum of u^j * ylists[j], without zero top rows."""
    out: list = []
    for g in reversed(ylists):
        out = [polyring.uni_add(polyring.uni_scale(a, u), b)
               for a, b in itertools.zip_longest(out, g, fillvalue=[])]
    while out and not out[-1]:
        out.pop()
    return out


def is_smooth(curve: PlaneCurve) -> bool:
    """Exact smoothness test for a plane projective curve."""
    partials = [curve.poly.derivative(v) for v in range(3)]
    return not (_line_common_zero(partials, curve.degree - 1) or has_common_affine_zero(partials))


def require_verdict_curve(curve: PlaneCurve) -> None:
    """Refuse a curve that a plane-curve verdict does not apply to.

    On a smooth plane curve of degree d >= 4 every automorphism is linear,
    induced by PGL_3, since the degree-d linear series is unique; that is
    what makes the PGL_3 group closure and the descend-real candidate list
    complete, and it needs genus (d-1)(d-2)/2 >= 2 as the theorem does.
    Checked cheapest first: degree above MAX_PLANE_DEGREE raises
    BoundExceeded, degree below 4 GenusTooSmall, a singular curve
    HypothesisViolation."""
    _require_degree_bound(curve)
    if curve.degree < 4:
        raise GenusTooSmall(f"plane curve of degree {curve.degree} has genus {curve.genus()} < 2")
    if not is_smooth(curve):
        raise HypothesisViolation("plane curve is singular")
