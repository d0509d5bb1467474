"""Independent oracles and hand-typed catalogues that only the tests use.

Independence rule: an oracle here recomputes what a library function
computes by another route, and never calls the function it checks. It
imports from oddsig only the value types it needs (CyclotomicElement,
ProjMap, QGonalMap, Signature, SparsePoly), their elementary operations and
polyring's list layer. A catalogue here is data typed from the literature,
kept beside the tests until the library can compute it.

pytest does not collect this file (it has no test_ prefix); the test
modules import it from their own directory.
"""

import cmath
from math import isqrt

from oddsig import polyring
from oddsig.errors import InternalInconsistency, VariableCountMismatch, ZeroPolynomial
from oddsig.exactnum import CyclotomicElement, common_order
from oddsig.plane import ProjMap
from oddsig.polyring import SparsePoly
from oddsig.ramify import Signature
from oddsig.superell import QGonalMap


def to_complex(a: CyclotomicElement) -> complex:
    """The complex embedding zeta_N -> exp(2*pi*i/N), from the power-basis
    coordinates; the numerical check of the exact field arithmetic."""
    return sum(c * cmath.exp(2j * cmath.pi * k / a.order) for k, c in enumerate(a.coords))


def apply(a: ProjMap, point) -> tuple:
    """The matrix of a times the column vector point: the action of a on
    the homogeneous coordinates of a point."""
    return tuple(sum((e * c for e, c in zip(row, point)), CyclotomicElement.zero(a.order))
                 for row in a.entries)


def power(a, k: int, one):
    """a @ ... @ a (k >= 0 factors), starting from one, by k products: the
    tests raise projective and cover maps to powers with this."""
    out = one
    for _ in range(k):
        out = out @ a
    return out


def product(*factors: SparsePoly) -> SparsePoly:
    """The product of polynomials over one field in the same variables, term
    by term: SparsePoly is a term record with no ring arithmetic, and the
    tests build products of factors with this."""
    first = factors[0]
    terms = {(0,) * first.nvars: CyclotomicElement.one(first.order)}
    for f in factors:
        out = {}
        for e1, c1 in terms.items():
            for e2, c2 in f.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, CyclotomicElement.zero(first.order)) + c1 * c2
        terms = out
    return SparsePoly(first.order, first.nvars, terms)


def evaluate(poly: SparsePoly, point) -> CyclotomicElement:
    """poly at a point of field elements, monomial by monomial; the oracle
    for SparsePoly.substitute_linear through (F o A)(p) = F(A p)."""
    total = CyclotomicElement.zero(poly.order)
    for exps, coeff in poly.terms.items():
        for x, e in zip(point, exps):
            coeff = coeff * x ** e
        total = total + coeff
    return total


def homogenize(poly: SparsePoly) -> SparsePoly:
    """The form of a polynomial in x and y in x, y and z, of its total
    degree, whose chart z = 1 is poly: the tests write chart polynomials in
    two variables and hand the library forms."""
    if poly.nvars != 2:
        raise VariableCountMismatch("homogenize takes a polynomial in x and y")
    degree = max((sum(e) for e in poly.terms), default=0)
    return SparsePoly(poly.order, 3, {(a, b, degree - a - b): c for (a, b), c in poly.terms.items()})


def uni_list(poly: SparsePoly) -> list[CyclotomicElement]:
    """The dense list, low degree first, of a polynomial in one variable or
    of a binary form at y = 1, read off the first exponent of each term."""
    out = [CyclotomicElement.zero(poly.order)] * (max((e[0] for e in poly.terms), default=-1) + 1)
    for exps, coeff in poly.terms.items():
        out[exps[0]] = coeff
    return out


def uni_squarefree(a):
    """Squarefree part a / gcd(a, a') of a dense list, in characteristic
    zero, through polyring's list layer."""
    a = polyring.uni_trim(list(a))
    if not a:
        raise ZeroPolynomial("zero polynomial has no squarefree part")
    if len(a) == 1:
        return polyring.uni_monic(a)
    g = polyring.uni_gcd(a, polyring.uni_derivative(a))
    q, r = polyring.uni_divmod(a, g)
    if r:
        raise InternalInconsistency("gcd(a, a') does not divide a")
    return polyring.uni_monic(q)


def distinct_root_count(form: SparsePoly) -> int:
    """Number of distinct projective roots of a nonzero binary form, exactly:
    criterion 10b checks against it the root clustering that the geometric
    fixed-point oracle of criterion 10c runs on."""
    if form.nvars != 2:
        raise VariableCountMismatch("binary form must have exactly two variables")
    if form.is_zero():
        raise ZeroPolynomial("zero form has no root count")
    if not form.is_homogeneous():
        raise ValueError("form must be homogeneous")
    # root at [1:0] iff the second variable divides the form
    at_infinity = 1 if min(e[1] for e in form.terms) >= 1 else 0
    # finite roots [x:1]: distinct roots of form(x, 1)
    return at_infinity + len(uni_squarefree(uni_list(form))) - 1


def cyclic_subgroup(a: ProjMap, bound: int = 360) -> frozenset:
    """Powers of a as matrices, by repeated products until the identity;
    the oracle for matgroup.cyclic_subgroups, which works on index tables."""
    out = [ProjMap.identity(a.order)]
    power = a
    while not power.is_identity():
        if len(out) >= bound:
            raise AssertionError(f"no identity power within {bound} steps")
        out.append(power)
        power = power @ a
    return frozenset(out)


def is_group(elements) -> bool:
    """Brute-force check of the group axioms on a finite subset of PGL_3;
    the oracle for matgroup.closure."""
    if not elements:
        return False
    order = elements[0].order
    if any(e.order != order for e in elements):
        return False
    pool = set(elements)
    if len(pool) != len(elements):
        return False
    if ProjMap.identity(order) not in pool:
        return False
    for a in elements:
        if a.inverse() not in pool:
            return False
        for b in elements:
            if a @ b not in pool:
                return False
    return True


def qgonal_identity(order: int) -> QGonalMap:
    """The identity cover map (x, y) -> (x, y) over Q(zeta_order)."""
    one = CyclotomicElement.one(order)
    return QGonalMap(order, one, 1, one, 0)


def defect_twist_map(q: int, m: int, n: int, order=None) -> QGonalMap:
    """(x, y) -> (x, zeta_n^(mn/q) y): with rotation^(2k+1) it gives the
    closed form twist^(2k+1) rotation^(2k+1) of the cocycle defects of
    superell.qgonal_real_descent."""
    power, rem = divmod(m * n, q)
    if rem:
        raise ValueError(f"mn/q is not an integer for (q, m, n) = ({q}, {m}, {n})")
    o = common_order(n, order or 1)
    return QGonalMap(o, CyclotomicElement.one(o), 1, CyclotomicElement.zeta(n, power).lift_to(o), 0)


def _odd_primes(limit: int, start: int = 3) -> list[int]:
    return [p for p in range(start, limit + 1) if all(p % k for k in range(2, isqrt(p) + 1))]


def exceptional_qgonal_rows(q_max: int = 13) -> list[dict]:
    """Known quotient signatures of covers where the degree-q subgroup is not
    normal in the full automorphism group; every row has a rational quotient
    and some branch index of odd multiplicity."""
    rows = [
        {"q": 3, "signature": Signature(0, (2, 3, 8)), "genus": 2,
         "group": "GL(2,3)", "group_order": 48},
        {"q": 3, "signature": Signature(0, (2, 3, 12)), "genus": 3,
         "group": "SL(2,3)/CD", "group_order": 48},
        {"q": 5, "signature": Signature(0, (2, 4, 5)), "genus": 4,
         "group": "S5", "group_order": 120},
        {"q": 7, "signature": Signature(0, (2, 3, 7)), "genus": 3,
         "group": "PSL(2,7)", "group_order": 168},
    ]
    for q in _odd_primes(q_max, start=5):
        rows.append({"q": q, "signature": Signature(0, (2, 3, 2 * q)),
                     "genus": (q - 1) * (q - 2) // 2,
                     "group": f"(C{q} x C{q}) : S3", "group_order": 6 * q * q})
    for q in _odd_primes(q_max):
        rows.append({"q": q, "signature": Signature(0, (2, 2, 2, q)),
                     "genus": (q - 1) ** 2,
                     "group": f"(C{q} x C{q}) : V4", "group_order": 4 * q * q})
        rows.append({"q": q, "signature": Signature(0, (2, 4, 2 * q)),
                     "genus": (q - 1) ** 2,
                     "group": f"(C{q} x C{q}) : D4", "group_order": 8 * q * q})
    return rows


# Automorphism strata of smooth plane quartics (Henn; Bars, "On the
# automorphism groups of genus 3 curves", 2005): group label, the stem of the
# curve fixture whose _gens fixture generates the group, |G| and the quotient
# signature. Nonstandard group names are opaque strings; rows are matched by
# (|G|, signature), never by abstract isomorphism type.
PLANE_QUARTIC_STRATA = [
    ("PSL(2,7)", "klein_quartic", 168, Signature(0, (2, 3, 7))),
    ("S3", "quartic_s3", 6, Signature(0, (2, 2, 2, 2, 3))),
    ("C2 x C2", "quartic_c2c2", 4, Signature(0, (2, 2, 2, 2, 2, 2))),
    ("D4", "quartic_d4", 8, Signature(0, (2, 2, 2, 2, 2))),
    ("S4", "quartic_s4", 24, Signature(0, (2, 2, 2, 3))),
    ("C4^2 : S3", "fermat_quartic", 96, Signature(0, (2, 3, 8))),
    ("C4 (o) (C2)^2", "quartic_c4_c2c2", 16, Signature(0, (2, 2, 2, 4))),
    ("C4 (o) A4", "quartic_c4_a4", 48, Signature(0, (2, 3, 12))),
    ("C6", "quartic_c6", 6, Signature(0, (2, 3, 3, 6))),
    ("C9", "quartic_c9", 9, Signature(0, (3, 9, 9))),
    ("C3", "quartic_c3", 3, Signature(0, (3, 3, 3, 3, 3))),
    ("C2", "quartic_c2", 2, Signature(1, (2, 2, 2, 2))),
]
