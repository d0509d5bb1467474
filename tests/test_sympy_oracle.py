"""sympy as an independent oracle for cyclotomic polynomials and determinants."""

import random
from fractions import Fraction

import pytest

from oddsig.exactnum import cyclotomic_polynomial
from oddsig.plane import ProjMap

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
