"""sympy as an independent oracle for cyclotomic polynomials, determinants,
squarefree verdicts and distinct-root counts."""

import random
from fractions import Fraction

import pytest

from oddsig.errors import NotSquarefree
from oddsig.exactnum import CyclotomicElement, cyclotomic_polynomial
from oddsig.plane import ProjMap
from oddsig.polyring import (SparsePoly, distinct_root_count, uni_coprime_mod_p, uni_derivative,
                             uni_to_poly)
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
