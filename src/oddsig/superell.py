"""Cyclic covers y^q = f(x): genus, quotient signatures, and real descent.

The isomorphisms the family uses all respect the degree-q projection and
are monomial: (x, y) -> (s x^e, c x^k y) with e = +-1. The deck
transformation, the rotations and the mirror onto the conjugate curve have
this form, and composition and Galois twisting keep it in closed form,
so the order-2 Weil cocycle check never leaves the class. Whether such
a map is an isomorphism is checked by substituting x -> s x^e into f in
closed form, from the map's fields alone. QGonalMap holds exactly these
five fields, and a curve holds f as its trimmed coefficient list, low
degree first, the layout of polyring's list layer; the Moebius matrix of
a map and the polynomial of a curve are document shapes, read and written
by serialize.

The module also builds a family of covers isomorphic to their own complex
conjugate. The defining polynomial is a product of factors
(x^n - a_i)(x^n + 1/conj(a_i)) whose constant term is -1; that normalization
is exactly what makes x -> 1/(zeta_2n x) lift to an isomorphism with the
conjugate curve. Whether the curve descends to the reals then reduces to a
finite cocycle-defect enumeration over the known automorphisms. Each member
is built, and its genus computed, once: a Galois image or lift of a curve
copies the genus, which a field embedding preserves. Of the q*n candidate
isomorphisms only the three generating maps are tested; the rest are their
composites.

The one dense Moebius map left is the involution tau that an n = 3 member
must not have; whether it permutes the roots of f is decided by exact
evaluation of the pulled binary form at deg f + 1 integer points, each
value by Horner's rule on the coefficient list. f is
squarefree when polyring.uni_gcd(f, f') = 1; that gcd proves it in one
F_p pass, and runs the exact Euclid over Q(zeta_N) only when the F_p images
cannot, so NotSquarefree is never a guess. The degree 2mn of a family
member is capped by polyring.MAX_DEGREE and the cover degree q by
exactnum.MAX_ORDER, since the deck transformation lives in Q(zeta_q).
"""

from __future__ import annotations

import operator
from itertools import accumulate, repeat
from math import lcm
from typing import NamedTuple, Optional, Sequence

from . import polyring
from .errors import (
    BoundExceeded,
    GenusTooSmall,
    HypothesisViolation,
    InternalInconsistency,
    NonIntegerCount,
    NotSquarefree,
    PropertyViolation,
    ShapeViolation,
)
from .exactnum import MAX_DEGREE, MAX_ORDER, CyclotomicElement, as_element, common_order, is_prime
from .ramify import Signature, is_odd_signature, odd_signature_verdict

SHAPES = ("N0", "N1", "N2")


def _is_prime_degree(q: int) -> bool:
    """Whether the cover degree q is prime. The deck transformation
    y -> zeta_q y needs Q(zeta_q), so a q above MAX_ORDER raises
    BoundExceeded before any arithmetic on it."""
    if q > MAX_ORDER:
        raise BoundExceeded(f"cover degree {q} exceeds the bound {MAX_ORDER}")
    return is_prime(q)


class QGonalMap(NamedTuple):
    """Monomial fibered map (x, y) -> (s x^e, c x^k y) between cyclic covers,
    with scale s, flip e = +-1, coefficient c and exponent k. The maps of the
    family (mirror, deck, rotation and their composites) all have this form,
    which composition and Galois twisting keep."""

    order: int
    scale: CyclotomicElement
    flip: int
    coeff: CyclotomicElement
    exponent: int

    def lift_to(self, order: int) -> "QGonalMap":
        if order == self.order:
            return self
        return QGonalMap(order, self.scale.lift_to(order), self.flip,
                         self.coeff.lift_to(order), self.exponent)

    def compose(self, other: "QGonalMap") -> "QGonalMap":
        """self applied after other."""
        order = common_order(self.order, other.order)
        s, t = self.lift_to(order), other.lift_to(order)
        return QGonalMap(order, s.scale * t.scale ** s.flip, s.flip * t.flip,
                         s.coeff * t.coeff * t.scale ** s.exponent,
                         t.flip * s.exponent + t.exponent)

    def __matmul__(self, other):
        if not isinstance(other, QGonalMap):
            return NotImplemented
        return self.compose(other)

    def galois(self, exponent: int) -> "QGonalMap":
        return QGonalMap(self.order, self.scale.galois(exponent), self.flip,
                         self.coeff.galois(exponent), self.exponent)

    def conjugate(self) -> "QGonalMap":
        return self.galois(-1)

    def is_identity(self) -> bool:
        return (self.scale.is_one() and self.flip == 1 and self.coeff.is_one()
                and self.exponent == 0)


def genus_qgonal(q: int, f: Sequence[CyclotomicElement]) -> int:
    """Genus of y^q = f(x) for squarefree f, a coefficient list low degree
    first, by Riemann-Hurwitz."""
    if not _is_prime_degree(q):
        raise HypothesisViolation(f"cover degree {q} is not prime")
    coeffs = polyring.uni_trim(list(f))
    degree = len(coeffs) - 1
    if degree < 3:
        raise GenusTooSmall(f"defining polynomial has degree {degree} < 3")
    if len(polyring.uni_gcd(coeffs, polyring.uni_derivative(coeffs))) > 1:
        raise NotSquarefree("defining polynomial has a repeated root")
    branch = degree if degree % q == 0 else degree + 1
    doubled = -2 * q + branch * (q - 1)
    if doubled % 2:
        raise InternalInconsistency(f"Riemann-Hurwitz gives odd 2g - 2 = {doubled - 2}")
    genus = doubled // 2 + 1
    if genus < 2:
        raise GenusTooSmall(f"cover has genus {genus} < 2")
    return genus


class _QGonalCurveFields(NamedTuple):
    q: int
    coeffs: tuple[CyclotomicElement, ...]
    genus: int
    m: Optional[int]
    n: Optional[int]


class QGonalCurve(_QGonalCurveFields):
    """Cyclic cover y^q = f(x) with f squarefree over a cyclotomic field,
    held as its trimmed coefficients, low degree first."""

    __slots__ = ()

    def __new__(cls, q: int, coeffs: Sequence[CyclotomicElement],
                m: Optional[int] = None, n: Optional[int] = None):
        coeffs = tuple(polyring.uni_trim(list(coeffs)))
        return super().__new__(cls, q, coeffs, genus_qgonal(q, coeffs), m, n)

    def __reduce__(self):  # __new__ computes the genus, not takes it
        return type(self)._make, (tuple(self),)

    @property
    def order(self) -> int:
        return self.coeffs[0].order

    # A field embedding is a ring isomorphism of K[x] onto its image: it
    # keeps the degree of f and gcd(f, f') = 1, hence the genus, which
    # _replace therefore copies rather than recomputes.
    def lift_to(self, order: int) -> "QGonalCurve":
        return self._replace(coeffs=tuple(c.lift_to(order) for c in self.coeffs))

    def galois(self, exponent: int) -> "QGonalCurve":
        return self._replace(coeffs=tuple(c.galois(exponent) for c in self.coeffs))

    def conjugate(self) -> "QGonalCurve":
        return self.galois(-1)


def qgonal_signature(q: int, n: int, shape: str, g: int) -> Signature:
    """Signature of the full quotient of a cyclic cover whose reduced
    automorphism group is cyclic of order n, from the branch shape.

    The shape encodes how many branch indices differ from q: none (N0),
    one of index nq (N1), or two of index nq (N2). More than MAX_DEGREE
    branch points of index q raise BoundExceeded before the list is built."""
    if shape not in SHAPES:
        raise ShapeViolation(f"unknown shape {shape!r}")
    if not _is_prime_degree(q) or n < 2 or g < 2:
        raise HypothesisViolation("need q prime, n > 1 and genus at least 2")
    scale = n * (q - 1)
    if shape == "N0":
        numerator, extras = 2 * g - 2 + 2 * q, (n, n)
    elif shape == "N1":
        numerator, extras = 2 * g - 1 + q, (n, n * q)
    else:
        numerator, extras = 2 * g, (n * q, n * q)
    t, rem = divmod(numerator, scale)
    if rem:
        raise NonIntegerCount(
            f"branch count ({numerator})/({scale}) is not an integer")
    if t > MAX_DEGREE:
        raise BoundExceeded(f"{t} branch points of index {q} exceed the bound {MAX_DEGREE}")
    if t < 1:
        raise ShapeViolation("no branch points of the generic index")
    nt = n * t
    if shape == "N0" and nt % q:
        raise ShapeViolation("shape N0 needs q dividing n*t")
    if shape == "N1" and nt % q == 0:
        raise ShapeViolation("shape N1 needs q not dividing n*t")
    if shape == "N2" and (nt + 1) % q == 0:
        raise ShapeViolation("shape N2 needs q not dividing n*t + 1")
    return Signature(0, tuple(sorted([q] * t + list(extras))))


# the self-conjugate family ----------------------------------------------------

def _family_values(m: int, n: int) -> tuple[int, list[CyclotomicElement]]:
    korder = m if m % 2 else 2 * m
    order = lcm(korder, 12) if n == 3 else korder
    kappa = CyclotomicElement.zeta(korder, 1).lift_to(order)
    values = []
    start = 1
    if n == 3:
        root3 = CyclotomicElement.zeta(12, 1) + CyclotomicElement.zeta(12, 11)
        alpha = -(root3 + 2)
        values.append(alpha ** 3)
        stop = m - 1
    else:
        stop = m
    for level in range(start, stop + 1):
        values.append(kappa ** level * (level + 1))
    return order, values


def _tau_rows(order: int):
    root3 = (CyclotomicElement.zeta(12, 1) + CyclotomicElement.zeta(12, 11)).lift_to(order)
    one = CyclotomicElement.one(order)
    return [[-one, root3 + 1], [root3 - 1, one]]


def _binary_form(f: Sequence[CyclotomicElement], u: CyclotomicElement,
                 v: CyclotomicElement) -> CyclotomicElement:
    """F(u, v) = sum of t_i u^i v^(D - i) for f = [t_0, ..., t_D], by
    Horner's rule in u with a running power of v."""
    total, v_power = f[-1], v ** 0
    for t in reversed(f[:-1]):
        v_power = v_power * v
        total = total * u
        if not t.is_zero():
            total = total + t * v_power
    return total


def moebius_permutes_roots(f: Sequence[CyclotomicElement], rows) -> bool:
    """True when the Moebius map sends every root of f into the root set,
    that is, when P(x) = F(a x + b, c x + d) lies in K f, F the binary form
    of f of degree D. With f(x0) != 0, P(x) f(x0) - P(x0) f(x) has degree at
    most D, so it is zero exactly when it vanishes at x = 0, ..., D."""
    f = polyring.uni_trim(list(f))
    order = common_order(*[e.order for e in (*f, *rows[0], *rows[1])
                           if isinstance(e, CyclotomicElement)])
    (a, b), (c, d) = ([as_element(e, order) for e in row] for row in rows)
    if (a * d - b * c).is_zero():
        raise ValueError("moebius map must be invertible")
    if not f:
        return True
    f = [t.lift_to(order) for t in f]
    one = CyclotomicElement.one(order)
    points = [as_element(x, order) for x in range(len(f))]
    x0 = next(x for x in points if not _binary_form(f, x, one).is_zero())  # f has <= D roots
    f0, p0 = _binary_form(f, x0, one), _binary_form(f, a * x0 + b, c * x0 + d)
    return all(_binary_form(f, a * x + b, c * x + d) * f0 == p0 * _binary_form(f, x, one)
               for x in points if x != x0)


def family_polynomial(values: Sequence[CyclotomicElement], n: int,
                      order: int) -> list[CyclotomicElement]:
    """Coefficients of the product of (x^n - a)(x^n + 1/conj(a)) over the
    given a, validated."""
    vals = [as_element(v, order) for v in values]
    m = len(vals)
    if m < 2 or n < 2:
        raise HypothesisViolation("need at least two factors and n > 1")
    for i, v in enumerate(vals):
        if v.is_zero():
            raise PropertyViolation(f"a_{i + 1} is zero")
    sizes = [v.abs2() for v in vals]
    phases = [v / v.conjugate() for v in vals]
    one = CyclotomicElement.one(order)
    for i in range(m):
        for j in range(i + 1, m):
            if sizes[i] == sizes[j]:
                raise PropertyViolation(
                    f"|a_{i + 1}| and |a_{j + 1}| coincide")
            if phases[i] == phases[j]:
                raise PropertyViolation(
                    f"a_{i + 1}/conj(a_{i + 1}) and a_{j + 1}/conj(a_{j + 1}) coincide")
    for i in range(m):
        for j in range(m):
            if sizes[i] * sizes[j] == one:
                raise PropertyViolation(
                    f"|a_{i + 1}| equals |1/a_{j + 1}|")
    coeffs = [one]
    for v in vals:
        first = [-v] + [CyclotomicElement.zero(order)] * (n - 1) + [one]
        second = [v.conjugate().inverse()] + [CyclotomicElement.zero(order)] * (n - 1) + [one]
        coeffs = polyring.uni_mul(polyring.uni_mul(coeffs, first), second)
    if coeffs[0] != -one:
        raise PropertyViolation("constant term is not -1")
    if n == 3 and moebius_permutes_roots(coeffs, _tau_rows(common_order(order, 12))):
        raise PropertyViolation("the exceptional Moebius involution permutes the roots")
    return coeffs


def build_family(m: int, n: int) -> list[CyclotomicElement]:
    """Coefficients of the standard self-conjugate family member."""
    if m < 2 or n < 2:
        raise HypothesisViolation("family needs m > 1 and n > 1")
    polyring.check_degree(2 * m * n, "family degree 2mn =")
    order, values = _family_values(m, n)
    return family_polynomial(values, n, order)


def family_curve(q: int, m: int, n: int) -> QGonalCurve:
    return QGonalCurve(q, build_family(m, n), m=m, n=n)


def family_signature(curve: QGonalCurve) -> Signature:
    """Quotient signature of a family member built by family_curve,
    cross-checked against its genus."""
    q, m, n = curve.q, curve.m, curve.n
    shape = "N0" if (2 * m * n) % q == 0 else "N1"
    sig = qgonal_signature(q, n, shape, curve.genus)
    if sig.indices.count(q) < 2 * m:
        raise InternalInconsistency(f"signature {sig} has fewer than 2m indices q")
    return sig


# the standard maps -------------------------------------------------------------

def deck_map(q: int, order: Optional[int] = None) -> QGonalMap:
    """(x, y) -> (x, zeta_q y), the deck transformation of the projection."""
    o = common_order(q, order or 1)
    return QGonalMap(o, CyclotomicElement.one(o), 1, CyclotomicElement.zeta(q, 1).lift_to(o), 0)


def rotation_map(n: int, order: Optional[int] = None) -> QGonalMap:
    """(x, y) -> (zeta_n x, y)."""
    o = common_order(n, order or 1)
    return QGonalMap(o, CyclotomicElement.zeta(n, 1).lift_to(o), 1, CyclotomicElement.one(o), 0)


def mirror_map(q: int, m: int, n: int, order: Optional[int] = None) -> QGonalMap:
    """(x, y) -> (1/(zeta_2n x), zeta_2q y / x^(2mn/q)), an isomorphism of the
    family member onto its conjugate."""
    exponent, rem = divmod(2 * m * n, q)
    if rem:
        raise HypothesisViolation(
            f"multiplier exponent 2mn/q is not an integer for (q, m, n)=({q}, {m}, {n})")
    o = common_order(2 * n, 2 * q, order or 1)
    return QGonalMap(o, CyclotomicElement.zeta(2 * n, -1).lift_to(o), -1,
                     CyclotomicElement.zeta(2 * q, 1).lift_to(o), -exponent)


def qgonal_is_isomorphism(source: QGonalCurve, target: QGonalCurve,
                          phi: QGonalMap) -> bool:
    """Exact test of c^q x^(qk) f_source(x) = f_target(s x^e) for
    phi = (s x^e, c x^k y), with the denominators of both sides cleared:
    f_target(s x) has coefficients t_i s^i, and x^D f_target(s/x) is that
    list reversed. Only phi's fields are read, never compose or galois, so
    the test checks QGonalMap's closed-form rules independently."""
    if source.q != target.q:
        raise HypothesisViolation("covers have different degrees")
    q = source.q
    order = common_order(source.order, target.order, phi.order)
    f_src = [c.lift_to(order) for c in source.coeffs]
    f_tgt = [c.lift_to(order) for c in target.coeffs]
    lifted = phi.lift_to(order)
    scale_powers = accumulate(repeat(lifted.scale), operator.mul, initial=CyclotomicElement.one(order))
    rhs = [t * p for t, p in zip(f_tgt, scale_powers)]
    c_q = lifted.coeff ** q
    lhs = [c_q * a for a in f_src]
    # x^(qk), and x^D for e = -1, move to the side where the exponent is nonnegative
    shift = q * lifted.exponent
    if lifted.flip == -1:
        rhs.reverse()
        shift += len(f_tgt) - 1
    zero = CyclotomicElement.zero(order)
    lhs = [zero] * max(shift, 0) + lhs
    rhs = [zero] * max(-shift, 0) + rhs
    return polyring.uni_trim(lhs) == polyring.uni_trim(rhs)


# real descent ------------------------------------------------------------------

def qgonal_real_descent(q: int, m: int, n: int) -> dict:
    """Decide whether the family member y^q = f(x) descends to the reals.

    When q does not divide mn the quotient signature settles it at once.
    Otherwise every isomorphism onto the conjugate curve has the fibered
    form mirror . deck^j . rotation^k, and the curve descends exactly when
    some choice has an identity cocycle defect conj(phi) . phi.

    The curve is built once and its conjugate copies the genus. Only the
    generators are checked: mirror onto the conjugate, deck and rotation
    onto the curve (f lies in K[x^n]); every candidate is their composite."""
    if not _is_prime_degree(q) or q == 2:
        raise HypothesisViolation(f"cover degree {q} must be an odd prime")
    if m < 2 or n < 2:
        raise HypothesisViolation("family needs m > 1 and n > 1")
    curve = family_curve(q, m, n)
    sig = family_signature(curve)
    report = {
        "q": q, "m": m, "n": n,
        "genus": curve.genus,
        "signature": sig,
        "odd_signature_verdict": odd_signature_verdict(sig),
    }
    if is_odd_signature(sig) != bool((m * n) % q):
        raise InternalInconsistency(f"oddness of {sig} disagrees with whether q divides mn")
    if (m * n) % q:
        report.update({
            "verdict": "DEFINABLE",
            "method": "odd-signature",
            "witness": None,
            "defects": None,
        })
        return report
    order = common_order(curve.order, 2 * n, 2 * q)
    twin = curve.conjugate()
    mirror = mirror_map(q, m, n, order)
    deck = deck_map(q, order)
    rotation = rotation_map(n, order)
    for name, target, phi in (("mirror", twin, mirror), ("deck", curve, deck),
                              ("rotation", curve, rotation)):
        if not qgonal_is_isomorphism(curve, target, phi):
            raise InternalInconsistency(f"the {name} map is not an isomorphism")
    defects = []
    witness = None
    candidate = mirror
    for j in range(q):
        inner = candidate
        for k in range(n):
            defect = inner.conjugate() @ inner
            flat = defect.is_identity()
            defects.append({"j": j, "k": k, "defect": defect, "is_identity": flat})
            if flat and witness is None:
                witness = {"j": j, "k": k, "map": inner}
            inner = inner @ rotation
        candidate = candidate @ deck
    report.update({
        "verdict": "DEFINABLE" if witness else "OBSTRUCTED",
        "method": "weil-cocycle",
        "witness": witness,
        "defects": defects,
    })
    return report
