"""sympy as an independent oracle for cyclotomic polynomials, determinants,
squarefree verdicts, distinct-root counts, resultants and smoothness."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oddsig.errors import NotSquarefree
from oddsig.exactnum import CyclotomicElement, cyclotomic_polynomial
from oddsig.plane import PlaneCurve, ProjMap, has_common_affine_zero, is_smooth
from oddsig.polyring import SparsePoly, poly_as_ylists, resultant, uni_coprime_mod_p, uni_derivative
from oddsig.serialize import parse_input
from oddsig.superell import genus_qgonal
from oracles import distinct_root_count, homogenize, product

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
        if uni_coprime_mod_p(dense, uni_derivative(dense)):
            assert squarefree
        if squarefree:
            branch = poly.degree() + (1 if poly.degree() % 3 else 0)
            assert genus_qgonal(3, dense) == branch - 2
        else:
            with pytest.raises(NotSquarefree):
                genus_qgonal(3, dense)
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


def test_resultant_matches_sympy():
    """Res_y(f, g) is the determinant of sympy's Sylvester matrix and agrees
    with sympy.resultant up to sign (which sympy gets wrong for some degree-1
    inputs, e.g. y(x - 3) against y^3 + 3xy^2 - 3y - 3x); it is zero exactly
    when gcd(f, g) has positive y-degree."""
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.subresultants_qq_zz import sylvester

    x, y = sympy.symbols("x y")
    rng = random.Random(6011)

    def draw(max_degree):
        while True:
            items = [(rng.randint(-3, 3), (i, j)) for i in range(max_degree + 1)
                     for j in range(max_degree + 1 - i) if rng.random() < 0.5]
            p = SparsePoly.build(1, 2, items)
            if not p.is_zero() and p.degree_in(1) > 0:
                return p

    def expr(p):
        return sum(sympy.Rational(c.coords[0].numerator, c.coords[0].denominator) * x**e[0] * y**e[1]
                   for e, c in p.terms.items())

    zero = 0
    for k in range(60):
        f, g = draw(3), draw(3)
        if k % 3 == 1:                       # a planted factor of positive y-degree
            h = draw(2)
            f, g = product(f, h), product(g, h)
        elif k % 3 == 2:                     # a planted factor in x alone
            h = SparsePoly.build(1, 2, [(1, (1, 0)), (rng.randint(-3, 3), (0, 0))])
            f, g = product(f, h), product(g, h)
        ours = SparsePoly.build(1, 2, [(c, (i, 0)) for i, c in
                                       enumerate(resultant(poly_as_ylists(homogenize(f)),
                                                           poly_as_ylists(homogenize(g))))])
        matrix = DomainMatrix.from_Matrix(sylvester(expr(f), expr(g), y))
        assert sympy.expand(expr(ours) - matrix.domain.to_sympy(matrix.det())) == 0
        theirs = sympy.resultant(expr(f), expr(g), y)
        assert 0 in (sympy.expand(expr(ours) - theirs), sympy.expand(expr(ours) + theirs))
        shared = bool(sympy.degree(sympy.gcd(expr(f), expr(g)), y) > 0)
        assert ours.is_zero() is shared
        zero += shared
    assert 20 <= zero < 60


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
    assert len(curves) == 13
    c3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    s3 = list(itertools.permutations(range(3)))
    cubic = PlaneCurve(SparsePoly.build(3, 3, [(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))]))
    conic = PlaneCurve(SparsePoly.build(1, 3, [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))]))
    curves += [conic, cubic, quartic_from_orbits([1, 0, -2], s3), quartic_from_orbits([0, 0, 2, 0, 1], c3)]
    # two chart partials share a factor, with no common zero on z = 0
    curves += [PlaneCurve(SparsePoly.build(1, 3, [(3, (3, 1, 0)), (-2, (0, 3, 1))])),
               PlaneCurve(SparsePoly.build(1, 3, [(-1, (0, 2, 2)), (1, (1, 3, 0)),
                                                  (-2, (2, 2, 0)), (-3, (3, 1, 0))]))]
    rng = random.Random(4096)
    for perms, size in ((c3, 5), (s3, 4)):
        drawn = 0
        while drawn < 10:
            coeffs = [rng.randint(-2, 2) for _ in range(size)]
            if any(coeffs):
                curves.append(quartic_from_orbits(coeffs, perms))
                drawn += 1
    curves += planted_curves(random.Random(4100))
    verdicts = [is_smooth(curve) for curve in curves]
    assert verdicts == [not sympy_singular(curve) for curve in curves]
    assert verdicts[13:19] == [True, True, False, False, False, False]
    assert True in verdicts[19:39] and False in verdicts[19:39]
    assert verdicts[39:] == [False, False, True, True] * 3


def planted_curves(rng):
    """Curves of degree 5, 6 and 5: x^d + y^d + z^d plus three drawn terms.
    A singular point is planted off z = 0 by dropping z^d, x z^(d-1) and
    y z^(d-1), so (0 : 0 : 1) is singular, and x -> x + z moves it to
    (-1 : 0 : 1); another on z = 0 by dropping x^d, x^(d-1) y and
    x^(d-1) z, so (1 : 0 : 0) is singular. Their neighbours keep z^d and
    x^d, which takes the point off the curve."""
    one, zero = CyclotomicElement.one(1), CyclotomicElement.zero(1)
    shear = [[one, zero, one], [zero, one, zero], [zero, zero, one]]
    curves = []
    for d in (5, 6, 5):
        monomials = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
        terms = {(d, 0, 0): 1, (0, d, 0): 1, (0, 0, d): 1}
        for e in rng.sample(monomials, 3):
            terms[e] = rng.choice((-2, -1, 1, 2))
        off = {(0, 0, d), (1, 0, d - 1), (0, 1, d - 1)}
        on = {(d, 0, 0), (d - 1, 1, 0), (d - 1, 0, 1)}
        for dropped, sheared in ((off, True), (on, False), (off - {(0, 0, d)}, True), (on - {(d, 0, 0)}, False)):
            poly = SparsePoly.build(1, 3, [(c, e) for e, c in terms.items() if e not in dropped])
            curves.append(PlaneCurve(poly.substitute_linear(shear) if sheared else poly))
    return curves



def test_has_common_affine_zero_matches_sympy_groebner():
    """Drawn triples (f, g, h) over Q(zeta_N), N in {1, 3, 4}, where f has a
    constant leading coefficient in y, against the Groebner basis of
    (f, g, h, Phi_N(w)) in x, y, w: the three share a zero over the closure
    exactly when the basis is not [1]. Every third triple has a planted
    common zero at a point with coordinates in Q(zeta_N)."""
    x, y, w = sympy.symbols("x y w")
    rng = random.Random(7919)

    def element(order, scale=2):
        phi = len(CyclotomicElement.zero(order).coords)
        return CyclotomicElement(order, [rng.randint(-scale, scale) if k < 2 else 0 for k in range(phi)])

    def value(c):
        return sum(sympy.Rational(q.numerator, q.denominator) * w**k for k, q in enumerate(c.coords))

    def expr(p):
        return sum(value(c) * x**e[0] * y**e[1] for e, c in p.terms.items())

    def at(p, point):
        total = CyclotomicElement.zero(p.order)
        for (i, j), c in p.terms.items():
            total = total + c * point[0] ** i * point[1] ** j
        return total

    def draw(order, y_degree, lead):
        """Terms x^i y^j, i <= 2, below y^y_degree, topped by a constant
        times y^y_degree when lead is set."""
        items = [(element(order), (i, j)) for j in range(y_degree + (0 if lead else 1))
                 for i in range(3) if rng.random() < 0.4]
        if lead:
            items.append((rng.choice((1, -1, 2)), (0, y_degree)))
        return SparsePoly.build(order, 2, items)

    verdicts = []
    for k in range(210):
        order = (1, 3, 4)[k // 3 % 3]
        f = draw(order, rng.randint(1, 3), lead=True)
        g, h = draw(order, rng.randint(0, 2), lead=False), draw(order, rng.randint(0, 2), lead=False)
        if k % 3 == 0:
            point = (element(order, 1), element(order, 1))
            f, g, h = (SparsePoly.build(order, 2, [(c, e) for e, c in p.terms.items()] + [(-at(p, point), (0, 0))])
                       for p in (f, g, h))
        extra = [sum(sympy.Rational(c.numerator, c.denominator) * w**e
                     for e, c in enumerate(cyclotomic_polynomial(order)))] if order > 1 else []
        basis = sympy.groebner([expr(p) for p in (f, g, h)] + extra, x, y, w, order="grevlex")
        expected = list(basis.exprs) != [1]
        assert has_common_affine_zero([homogenize(p) for p in (f, g, h)]) is expected, (order, f, g, h)
        verdicts.append(expected)
    assert sum(verdicts) >= 70 and verdicts.count(False) >= 70
