"""sympy as an independent oracle for cyclotomic polynomials, determinants,
squarefree verdicts, distinct-root counts and smoothness."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oddsig.errors import NotSquarefree
from oddsig.exactnum import CyclotomicElement, cyclotomic_polynomial
from oddsig.plane import PlaneCurve, ProjMap, is_smooth
from oddsig.polyring import (SparsePoly, distinct_root_count, uni_coprime_mod_p, uni_derivative,
                             uni_to_poly)
from oddsig.serialize import parse_input
from oddsig.superell import genus_qgonal

sympy = pytest.importorskip("sympy")


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    for n in range(1, 61):
        coeffs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert cyclotomic_polynomial(n) == tuple(Fraction(int(c)) for c in reversed(coeffs)), n


def test_projmap_det_matches_sympy():
    rng = random.Random(8128)
    regular = 0
    for _ in range(300):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)
                 for _ in range(3)] for _ in range(3)]
        det = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                            for row in rows]).det()
        if det == 0:
            with pytest.raises(ValueError):
                ProjMap(1, rows)
            continue
        regular += 1
        # canonical form divides the matrix by its first nonzero entry
        pivot = next(c for row in rows for c in row if c)
        assert ProjMap(1, rows).det() == Fraction(int(det.p), int(det.q)) / pivot ** 3
    assert regular > 100


def random_rational_poly(rng):
    """A sympy Poly over Z, often with a repeated factor, and its
    coefficients low degree first."""
    x = sympy.Symbol("x")
    factors = [sum(rng.randint(-3, 3) * x**k for k in range(rng.randint(1, 3))) + x**rng.randint(1, 3)
               for _ in range(rng.randint(1, 3))]
    expr = sympy.Mul(*(f**rng.choice((1, 1, 2)) for f in factors)) * rng.choice((1, -2, 3))
    poly = sympy.Poly(sympy.expand(expr), x)
    return poly, [Fraction(int(c)) for c in reversed(poly.all_coeffs())]


def test_squarefree_verdict_matches_sympy_discriminant():
    rng = random.Random(2311)
    verdicts = set()
    for _ in range(150):
        poly, coeffs = random_rational_poly(rng)
        if poly.degree() < 4:                              # y^3 = f then has genus >= 2
            continue
        squarefree = sympy.discriminant(poly) != 0
        verdicts.add(squarefree)
        dense = [CyclotomicElement.from_rational(c, 1) for c in coeffs]
        f = uni_to_poly(dense, 1)
        if uni_coprime_mod_p(dense, uni_derivative(dense), 1):
            assert squarefree
        if squarefree:
            branch = poly.degree() + (1 if poly.degree() % 3 else 0)
            assert genus_qgonal(3, f) == branch - 2
        else:
            with pytest.raises(NotSquarefree):
                genus_qgonal(3, f)
    assert verdicts == {True, False}


def test_distinct_root_count_matches_sympy_sqf_list():
    rng = random.Random(2357)
    for _ in range(150):
        poly, coeffs = random_rational_poly(rng)
        if poly.is_zero:
            continue
        shift = rng.choice((0, 0, 1, 2))                   # y^shift: a root at [1:0]
        degree = len(coeffs) - 1 + shift
        form = SparsePoly.build(1, 2, [(c, (i, degree - i)) for i, c in enumerate(coeffs)])
        _, factors = sympy.sqf_list(poly)
        expected = sum(f.degree() for f, _ in factors) + (1 if shift else 0)
        assert distinct_root_count(form) == expected


def sympy_singular(curve):
    """Singular iff, in some chart x, y or z = 1, the three partials have a
    common zero: their Groebner basis is not [1]. Coefficients in Q(zeta_N)
    become polynomials in w, with Phi_N(w) added to the ideal; conjugate
    curves are singular together, so any root of Phi_N answers for zeta_N."""
    x, y, z, w = sympy.symbols("x y z w")
    gens = (x, y, z)

    def value(coords):
        return sum(sympy.Rational(c.numerator, c.denominator) * w**k for k, c in enumerate(coords))

    form = sum(value(c.coords) * x**e[0] * y**e[1] * z**e[2] for e, c in curve.poly.terms.items())
    extra, wvars = [], []
    if form.has(w):
        extra, wvars = [value(cyclotomic_polynomial(curve.order))], [w]
    partials = [sympy.diff(form, v) for v in gens]
    for v in gens:
        rest = [u for u in gens if u != v]
        basis = sympy.groebner([p.subs(v, 1) for p in partials] + extra, *rest, *wvars, order="grevlex")
        if list(basis.exprs) != [1]:
            return True
    return False


def quartic_from_orbits(coeffs, perms):
    orbits, seen = [], set()
    for e in sorted(e for e in itertools.product(range(5), repeat=3) if sum(e) == 4):
        if e not in seen:
            orbit = sorted({tuple(e[p[i]] for i in range(3)) for p in perms})
            seen.update(orbit)
            orbits.append(orbit)
    return PlaneCurve(SparsePoly.build(1, 3, [(c, e) for c, orbit in zip(coeffs, orbits)
                                              if c for e in orbit]))


def test_is_smooth_matches_sympy_groebner():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    curves = [parse_input(path.read_text(encoding="utf-8")).value
              for path in sorted(fixtures.glob("*.json"))
              if '"plane_curve"' in path.read_text(encoding="utf-8")]
    assert len(curves) == 12
    c3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    s3 = list(itertools.permutations(range(3)))
    cubic = PlaneCurve(SparsePoly.build(3, 3, [(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))]))
    conic = PlaneCurve(SparsePoly.build(1, 3, [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))]))
    curves += [conic, cubic, quartic_from_orbits([1, 0, -2], s3), quartic_from_orbits([0, 0, 2, 0, 1], c3)]
    rng = random.Random(4096)
    for perms, size in ((c3, 5), (s3, 4)):
        drawn = 0
        while drawn < 10:
            coeffs = [rng.randint(-2, 2) for _ in range(size)]
            if any(coeffs):
                curves.append(quartic_from_orbits(coeffs, perms))
                drawn += 1
    verdicts = [is_smooth(curve) for curve in curves]
    assert verdicts == [not sympy_singular(curve) for curve in curves]
    assert verdicts[12:16] == [True, True, False, False]
    assert True in verdicts[16:] and False in verdicts[16:]

