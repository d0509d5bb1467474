import inspect
import random
from fractions import Fraction

import numpy as np
import pytest

from oddsig import polyring, serialize
from oddsig.errors import (BoundExceeded, InternalInconsistency, SchemaError,
                           VariableCountMismatch, ZeroPolynomial)
from oddsig.exactnum import CyclotomicElement as Cyc, euler_phi, split_prime
from oddsig.polyring import (
    MAX_DEGREE,
    SparsePoly,
    poly_as_ylists,
    resultant,
    uni_coprime_mod_p,
    uni_derivative,
    uni_gcd,
    uni_xgcd,
)
from oracles import (distinct_root_count, evaluate, homogenize, product, to_complex, uni_list,
                     uni_squarefree)


def P(order, nvars, entries):
    return SparsePoly.build(order, nvars, entries)


def plus(*polys):
    """The sum of polynomials over one field in the same variables."""
    return P(polys[0].order, polys[0].nvars, [(c, e) for p in polys for e, c in p.terms.items()])


def rand_poly(rng, order, nvars, deg, terms=4):
    entries = []
    for _ in range(terms):
        exps = [rng.randint(0, deg) for _ in range(nvars)]
        entries.append((Fraction(rng.randint(-4, 4)), exps))
    return P(order, nvars, entries)


def rand_matrix(rng, order, n, m):
    return [[Cyc.from_rational(rng.randint(-3, 3), order) for _ in range(m)] for _ in range(n)]


def test_build_and_leading_term():
    f = P(1, 3, [(1, (4, 0, 0)), (2, (2, 1, 1)), (1, (0, 4, 0))])
    exps, coeff = f.leading_term()
    # graded-lex: degree 4 terms, x^4 beats y^4 and x^2yz
    assert exps == (4, 0, 0) and coeff == 1
    assert f.total_degree() == 4
    assert f.is_homogeneous()
    assert not plus(f, P(1, 3, [(1, (0, 0, 0))])).is_homogeneous()


def test_zero_poly_guards():
    z = SparsePoly(4, 2, {})
    assert z.is_zero()
    with pytest.raises(ZeroPolynomial):
        z.total_degree()
    with pytest.raises(ZeroPolynomial):
        z.leading_term()


def test_substitution_composes_contravariantly():
    rng = random.Random(99)
    for _ in range(25):
        f = rand_poly(rng, 4, 3, 2, terms=5)
        A = rand_matrix(rng, 4, 3, 3)
        B = rand_matrix(rng, 4, 3, 3)
        AB = [[sum((A[r][k] * B[k][c] for k in range(3)), Cyc.zero(4)) for c in range(3)] for r in range(3)]
        assert f.substitute_linear(AB) == f.substitute_linear(A).substitute_linear(B)


def test_substitution_commutes_with_conjugation():
    rng = random.Random(100)
    for _ in range(20):
        f = rand_poly(rng, 8, 3, 2, terms=5)
        A = [[Cyc.zeta(8, rng.randint(0, 7)) * rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        lhs = f.substitute_linear(A).conjugate()
        rhs = f.conjugate().substitute_linear([[c.conjugate() for c in row] for row in A])
        assert lhs == rhs


@pytest.mark.parametrize("order", [7, 12])
def test_substitution_matches_evaluation_at_the_image_point(order):
    """(F o A)(p) = F(A p), by exact evaluation, for dense F of degree 4 to 6
    and dense A over Q(zeta_order), each F also under a singular A."""
    rng = random.Random(order)

    def coeff():
        return Cyc(order, [rng.randint(-3, 3) for _ in range(euler_phi(order))])

    for degree in (4, 5, 6):
        f = P(order, 3, [(coeff(), (i, j, degree - i - j))
                         for i in range(degree + 1) for j in range(degree + 1 - i)])
        for singular in (False, True):
            a = [[coeff() for _ in range(3)] for _ in range(3)]
            if singular:
                a[2] = [x + y for x, y in zip(a[0], a[1])]
            composed = f.substitute_linear(a)
            assert not composed.is_zero() and composed.is_homogeneous()
            for _ in range(3):
                point = [coeff() for _ in range(3)]
                image = [sum((x * y for x, y in zip(row, point)), Cyc.zero(order)) for row in a]
                assert evaluate(composed, point) == evaluate(f, image)


def test_derivative_product_rule():
    rng = random.Random(321)
    for _ in range(20):
        f = rand_poly(rng, 4, 2, 3)
        g = rand_poly(rng, 4, 2, 3)
        for v in range(2):
            assert product(f, g).derivative(v) == plus(product(f.derivative(v), g),
                                                       product(f, g.derivative(v)))


def test_uni_gcd_and_squarefree():
    from oddsig.polyring import uni_mul

    order = 1
    one = Cyc.one(1)

    def from_roots(roots):
        out = [one]
        for r in roots:
            out = uni_mul(out, [-r, one])
        return out

    # (x-1)^2 (x-2) and (x-1)(x-3): gcd = (x-1)
    r1 = Cyc.one(1)
    r2 = Cyc.from_rational(2, 1)
    r3 = Cyc.from_rational(3, 1)
    f = from_roots([r1, r1, r2])
    g = from_roots([r1, r3])
    gcd = uni_gcd(f, g)
    assert gcd == from_roots([r1])
    sf = uni_squarefree(f)
    assert sf == from_roots([r1, r2])
    gg, s = uni_xgcd(f, g)
    assert gg == gcd


def test_squarefree_gcd_that_does_not_divide(monkeypatch):
    one = Cyc.one(1)
    # x - 5 does not divide x^2 - 1
    monkeypatch.setattr(polyring, "uni_gcd", lambda a, b: [Cyc.from_rational(-5, 1), one])
    with pytest.raises(InternalInconsistency):
        uni_squarefree([-one, Cyc.zero(1), one])


def test_distinct_root_count_examples():
    # x^3 y -> roots [0:1] and [1:0]
    assert distinct_root_count(P(1, 2, [(1, (3, 1))])) == 2
    # x^4 + y^4 -> 4 distinct roots
    assert distinct_root_count(P(1, 2, [(1, (4, 0)), (1, (0, 4))])) == 4
    # (x-y)^2 (x+y)^2 -> 2 distinct roots
    xmy = P(1, 2, [(1, (1, 0)), (-1, (0, 1))])
    xpy = P(1, 2, [(1, (1, 0)), (1, (0, 1))])
    assert distinct_root_count(product(xmy, xmy, xpy, xpy)) == 2
    # pure power of y
    assert distinct_root_count(P(1, 2, [(3, (0, 4))])) == 1
    with pytest.raises(ZeroPolynomial):
        distinct_root_count(SparsePoly(1, 2, {}))
    with pytest.raises(ValueError):
        distinct_root_count(P(1, 2, [(1, (1, 0)), (1, (0, 2))]))


def test_distinct_root_count_numeric_oracle():
    rng = random.Random(2024)
    checked = 0
    for _ in range(200):
        style = rng.randrange(3)
        if style == 0:
            coeffs = [rng.randint(-9, 9) for _ in range(5)]
            if all(c == 0 for c in coeffs):
                continue
        elif style == 1:
            # (x - r y)^2 (x - s y)(x - t y) with distinct integer r, s, t
            r, s, t = rng.sample(range(-6, 7), 3)
            base = np.poly1d([1, -r]) ** 2 * np.poly1d([1, -s]) * np.poly1d([1, -t])
            coeffs = [int(c) for c in base.coefficients[::-1]]
        else:
            # y^k times a random cubic
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            if all(c == 0 for c in coeffs):
                continue
        d = 4
        # form = sum coeffs[i] x^i y^(d-i)
        form = P(1, 2, [(c, (i, d - i)) for i, c in enumerate(coeffs)])
        if form.is_zero():
            continue
        exact = distinct_root_count(form)
        # numeric: cluster the roots of form(x, 1); add the infinite root if y | form
        dense = np.array([float(c) for c in coeffs], dtype=float)
        dense = np.trim_zeros(dense, "b")
        n_inf = 1 if min(d - i for i, c in enumerate(coeffs) if c != 0) >= 1 else 0
        if len(dense) <= 1:
            numeric = n_inf
        else:
            roots = np.roots(dense[::-1])
            clusters: list[complex] = []
            for r in sorted(roots, key=lambda z: (z.real, z.imag)):
                if not any(abs(r - c) < 1e-6 for c in clusters):
                    clusters.append(r)
            numeric = len(clusters) + n_inf
        assert exact == numeric, (coeffs, exact, numeric)
        checked += 1
    assert checked >= 150


def Y(order, entries):
    """The y-list of the polynomial in x and y built from entries."""
    return poly_as_ylists(homogenize(P(order, 2, entries)))


def test_poly_as_ylists_reads_the_chart_z_1_off_a_form():
    """On drawn ternary forms the y-list is F(x, y, 1): the two agree on a
    grid of (e + 1)^2 points, as two polynomials of degree at most e in each
    variable do only when they are equal. Rows are trimmed and the top row
    is nonzero. A 2-variable or non-homogeneous input is refused."""
    rng = random.Random(2718)
    checked = 0
    for order in (1, 3, 7):
        zeta = Cyc.zeta(order, 1)
        for e in range(1, 6):
            form = SparsePoly(order, 3, {(a, b, e - a - b): zeta * rng.randint(-2, 2) + rng.randint(-2, 2)
                                         for a in range(e + 1) for b in range(e + 1 - a) if rng.random() < 0.5})
            if form.is_zero():
                continue
            rows = poly_as_ylists(form)
            assert len(rows) == form.degree_in(1) + 1 and rows[-1]
            assert all(not row or not row[-1].is_zero() for row in rows)
            for x0 in range(e + 1):
                for y0 in range(e + 1):
                    chart = sum((c * (x0 ** i * y0 ** j) for j, row in enumerate(rows) for i, c in enumerate(row)),
                                Cyc.zero(order))
                    assert chart == evaluate(form, [Cyc.from_rational(v, order) for v in (x0, y0, 1)])
            checked += 1
    assert checked >= 12
    with pytest.raises(VariableCountMismatch):
        poly_as_ylists(P(1, 2, [(1, (0, 1)), (-1, (1, 0))]))
    with pytest.raises(VariableCountMismatch):
        poly_as_ylists(P(1, 3, [(1, (0, 1, 0)), (-1, (1, 0, 1))]))


def test_resultant_examples():
    # Res_y(y^2 - 1, y - 2) = 3
    r = resultant(Y(1, [(1, (0, 2)), (-1, (0, 0))]), Y(1, [(1, (0, 1)), (-2, (0, 0))]))
    assert r in ([3], [-3])
    # Res_y(y - x, y + x) = 2x up to sign, as an x-list
    f2 = Y(1, [(1, (0, 1)), (-1, (1, 0))])
    g2 = Y(1, [(1, (0, 1)), (1, (1, 0))])
    assert resultant(f2, g2) in ([0, 2], [0, -2])
    # two operands of y-degree 0: the empty Sylvester determinant
    assert resultant(Y(1, [(2, (1, 0))]), Y(1, [(3, (0, 0))])) == [1]
    with pytest.raises(ZeroPolynomial):
        resultant(f2, [])


def test_resultant_numeric_oracle():
    rng = random.Random(31337)
    for _ in range(40):
        fc = [rng.randint(-5, 5) for _ in range(4)]
        gc = [rng.randint(-5, 5) for _ in range(3)]
        if not fc[-1] or not gc[-1]:
            continue
        f = Y(1, [(c, (0, i)) for i, c in enumerate(fc)])
        g = Y(1, [(c, (0, i)) for i, c in enumerate(gc)])
        exact = resultant(f, g)
        assert len(exact) <= 1
        roots = np.roots(np.array(fc[::-1], dtype=float))
        approx = float(fc[-1]) ** (len(gc) - 1) * np.prod([np.polyval(gc[::-1], r) for r in roots])
        got = complex(to_complex(exact[0])) if exact else 0j
        assert abs(got - approx) <= 1e-6 * max(1.0, abs(approx))


def test_resultant_complex_sylvester_oracle_over_cyclotomic_fields():
    """Res_y(f, g) at x = x0 equals the numpy determinant of the complex
    Sylvester matrix of f(x0, y) and g(x0, y), taken at the formal y-degrees."""
    rng = random.Random(7331)

    def coeff(order):
        return sum((rng.randint(-2, 2) * Cyc.zeta(order, k) for k in range(3)), Cyc.zero(order))

    def draw(order, low):
        # a y-coefficient below the top is absent half the time (the lowest
        # only where low is 0), so the elimination meets zero pivots and swaps
        # rows; f keeps y^0, so y is no common factor. Each row is dense in x.
        while True:
            top = rng.randint(1, 3)
            rows = list(range(low)) + [j for j in range(low, top) if rng.random() < 0.5] + [top]
            p = P(order, 2, [(coeff(order), (i, j)) for j in rows for i in range(rng.randint(1, 3))])
            if not p.is_zero() and p.degree_in(1) > 0:
                return p

    def y_coeffs(p, x0):
        out = [0j] * (p.degree_in(1) + 1)
        for (ex, ey), c in p.terms.items():
            out[ey] += to_complex(c) * x0 ** ex
        return out[::-1]                     # highest power first

    checked = 0
    for order in (3, 4, 7):
        for _ in range(8):
            f, g = draw(order, 1), draw(order, 0)
            res = resultant(poly_as_ylists(homogenize(f)), poly_as_ylists(homogenize(g)))
            assert all(c.order == order for c in res)
            for x0 in (-2, -1, 0, 1, 3):
                fc, gc = y_coeffs(f, x0), y_coeffs(g, x0)
                n, m = len(fc) - 1, len(gc) - 1
                sylvester = np.zeros((n + m, n + m), dtype=complex)
                for shift in range(m):
                    sylvester[shift, shift:shift + n + 1] = fc
                for shift in range(n):
                    sylvester[m + shift, shift:shift + m + 1] = gc
                approx = np.linalg.det(sylvester)
                got = sum((to_complex(c) * x0 ** e for e, c in enumerate(res)), 0j)
                assert abs(got - approx) <= 1e-6 * max(1.0, abs(approx)), (order, f, g, x0)
                checked += 1
    assert checked == 120


def test_resultant_guards_are_typed(monkeypatch):
    f = Y(1, [(1, (0, 2)), (1, (1, 0))])
    g = Y(1, [(1, (0, 2)), (-1, (2, 1)), (3, (0, 0))])
    assert resultant(f, g)
    # y-lists take forms in x, y and z only
    for nvars in (1, 2):
        with pytest.raises(VariableCountMismatch):
            poly_as_ylists(P(1, nvars, [(1, (1,) * nvars)]))
    original = polyring.uni_divmod

    def leaves_a_remainder(a, b):
        q, _ = original(a, b)
        return q, [b[-1] ** 0]

    # a Bareiss division that is not exact means the elimination went wrong
    monkeypatch.setattr(polyring, "uni_divmod", leaves_a_remainder)
    with pytest.raises(InternalInconsistency, match="remainder"):
        resultant(f, g)


def test_resultant_vanishes_iff_common_root():
    # f = (y - x), g = (y - x)(y + 2x): share a root for every x
    f = P(1, 2, [(1, (0, 1)), (-1, (1, 0))])
    g = product(f, P(1, 2, [(1, (0, 1)), (2, (1, 0))]))
    assert resultant(poly_as_ylists(homogenize(f)), poly_as_ylists(homogenize(g))) == []


def test_galois_poly_and_lift():
    z = Cyc.zeta(8)
    f = P(8, 2, [(z, (1, 0)), (1, (0, 1))])
    assert f.conjugate().conjugate() == f
    lifted = f.lift_to(24)
    assert lifted.order == 24
    assert lifted.terms[(1, 0)] == z.lift_to(24)


def test_serialization_round_trip():
    z = Cyc.zeta(4)
    f = P(4, 3, [(z, (3, 0, 1)), (Fraction(1, 2), (0, 4, 0)), (-2, (2, 1, 1))])
    doc = serialize.poly_document(f, ["x", "y", "z"])
    assert doc["variables"] == ["x", "y", "z"]
    back = serialize.read_poly(doc)
    assert back == f
    # canonical order: terms sorted graded-lex descending
    exps = [tuple(t["exponents"]) for t in doc["terms"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e), reverse=True)
    with pytest.raises(SchemaError):
        serialize.read_poly({"order": 4, "variables": ["x"], "terms": [{"exponents": [-1], "coefficient": ["1", "0"]}]})
    with pytest.raises(SchemaError):
        serialize.read_poly({"order": 4, "variables": ["x"], "terms": "nope"})


def test_degree_above_the_cap_is_refused():
    def doc(*exponents):
        return {"order": 1, "variables": ["x", "y"][:len(exponents[0])],
                "terms": [{"exponents": list(e), "coefficient": ["1"]} for e in exponents]}

    with pytest.raises(BoundExceeded, match="exceeds the bound"):
        serialize.read_poly(doc((20000,), (1,), (0,)))
    with pytest.raises(BoundExceeded):                      # total degree, not one exponent
        serialize.read_poly(doc((MAX_DEGREE // 2 + 1, MAX_DEGREE // 2)))
    assert serialize.read_poly(doc((MAX_DEGREE, 0), (0, 0))).total_degree() == MAX_DEGREE


def test_coprime_certificate_is_sound(monkeypatch):
    # the exact verdict is Euclid's: uni_gcd with its certificate switched off
    monkeypatch.setattr(polyring, "uni_coprime_mod_p", lambda a, b: False)
    rng = random.Random(4099)
    order = 12
    proven = 0
    for _ in range(60):
        a = [Cyc(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)])
             for _ in range(rng.randint(1, 6))]
        b = uni_derivative(a) if rng.random() < 0.5 else a[:rng.randint(1, len(a))][::-1]
        if rng.random() < 0.3:                              # force a common factor
            common = [Cyc.zeta(order, rng.randrange(order)), Cyc.one(order)]
            a, b = polyring.uni_mul(a, common), polyring.uni_mul(b, common)
        exact = len(uni_gcd(a, b)) == 1 if a and b else False
        if uni_coprime_mod_p(a, b):
            proven += 1
            assert exact
    assert proven > 15


def test_squarefree_of_a_sparse_univariate():
    x_minus_1, x_plus_2 = P(1, 1, [(1, (1,)), (-1, (0,))]), P(1, 1, [(1, (1,)), (2, (0,))])
    f = product(x_minus_1, x_minus_1, x_plus_2)
    assert uni_squarefree(uni_list(f)) == uni_list(product(x_minus_1, x_plus_2))


# the list layer reads its field from its coefficients ------------------------

ZETA = [0, 1, 0, 0]                         # zeta_12 on the power basis of Q(zeta_12)
LIST_OPERANDS = {                           # E empty, C constant, U, G and S untrimmed
    1: {"E": [], "C": [3], "U": [1, 2, 0], "F": [-2, 1, 1], "G": [-1, 0, 1, 0], "S": [2, -3, 0, 1, 0]},
    12: {"E": [], "C": [[0, 2, 0, 0]], "U": [ZETA, 1, 0], "F": [[0, -1, 0, 0], [-1, 1, 0, 0], 1],
         "G": [[0, 2, 0, 0], [2, 1, 0, 0], 1, 0],
         "S": [[0, 0, -1, 0], [0, -2, 1, 0], [-1, 2, 0, 0], 1, 0]},
}
# (function, order, operands, result): the results of the helpers when they
# still took the field order as an argument (uni_xgcd's cofactor t dropped);
# uni_squarefree is the oracle the tests keep, run on the same operands
LIST_LAYER = [
    ("uni_add", 1, "EE", []),
    ("uni_add", 1, "EC", [3]),
    ("uni_add", 1, "CU", [4, 2]),
    ("uni_add", 1, "UF", [-1, 3, 1]),
    ("uni_add", 1, "GE", [-1, 0, 1]),
    ("uni_sub", 1, "EC", [-3]),
    ("uni_sub", 1, "UU", []),
    ("uni_sub", 1, "FG", [-1, 1]),
    ("uni_mul", 1, "EU", []),
    ("uni_mul", 1, "CU", [3, 6]),
    ("uni_mul", 1, "UG", [-1, -2, 1, 2]),
    ("uni_divmod", 1, "EC", ([], [])),
    ("uni_divmod", 1, "CC", ([1], [])),
    ("uni_divmod", 1, "UC", ([Fraction(1, 3), Fraction(2, 3)], [])),
    ("uni_divmod", 1, "GF", ([1], [1, -1])),
    ("uni_divmod", 1, "CF", ([], [3])),
    ("uni_gcd", 1, "EE", []),
    ("uni_gcd", 1, "EC", [1]),
    ("uni_gcd", 1, "EU", [Fraction(1, 2), 1]),
    ("uni_gcd", 1, "CU", [1]),
    ("uni_gcd", 1, "UU", [Fraction(1, 2), 1]),
    ("uni_gcd", 1, "FG", [-1, 1]),
    ("uni_xgcd", 1, "EE", ([], [])),
    ("uni_xgcd", 1, "CE", ([1], [Fraction(1, 3)])),
    ("uni_xgcd", 1, "EU", ([Fraction(1, 2), 1], [])),
    ("uni_xgcd", 1, "CU", ([1], [Fraction(1, 3)])),
    ("uni_xgcd", 1, "FG", ([-1, 1], [1])),
    ("uni_squarefree", 1, "C", [1]),
    ("uni_squarefree", 1, "U", [Fraction(1, 2), 1]),
    ("uni_squarefree", 1, "G", [-1, 0, 1]),
    ("uni_squarefree", 1, "E", ZeroPolynomial),
    ("uni_squarefree", 1, "S", [-2, 1, 1]),
    ("uni_gcd", 1, "SF", [-2, 1, 1]),
    ("uni_xgcd", 1, "SG", ([-1, 1], [Fraction(-1, 2)])),
    ("uni_add", 12, "EE", []),
    ("uni_add", 12, "EC", [[0, 2, 0, 0]]),
    ("uni_add", 12, "CU", [[0, 3, 0, 0], 1]),
    ("uni_add", 12, "UF", [0, [0, 1, 0, 0], 1]),
    ("uni_add", 12, "GE", [[0, 2, 0, 0], [2, 1, 0, 0], 1]),
    ("uni_sub", 12, "EC", [[0, -2, 0, 0]]),
    ("uni_sub", 12, "UU", []),
    ("uni_sub", 12, "FG", [[0, -3, 0, 0], -3]),
    ("uni_mul", 12, "EU", []),
    ("uni_mul", 12, "CU", [[0, 0, 2, 0], [0, 2, 0, 0]]),
    ("uni_mul", 12, "UG", [[0, 0, 2, 0], [0, 4, 1, 0], [2, 2, 0, 0], 1]),
    ("uni_divmod", 12, "EC", ([], [])),
    ("uni_divmod", 12, "CC", ([1], [])),
    ("uni_divmod", 12, "UC", ([Fraction(1, 2), [0, Fraction(1, 2), 0, Fraction(-1, 2)]], [])),
    ("uni_divmod", 12, "GF", ([1], [[0, 3, 0, 0], 3])),
    ("uni_divmod", 12, "CF", ([], [[0, 2, 0, 0]])),
    ("uni_gcd", 12, "EE", []),
    ("uni_gcd", 12, "EC", [1]),
    ("uni_gcd", 12, "EU", [[0, 1, 0, 0], 1]),
    ("uni_gcd", 12, "CU", [1]),
    ("uni_gcd", 12, "UU", [[0, 1, 0, 0], 1]),
    ("uni_gcd", 12, "FG", [[0, 1, 0, 0], 1]),
    ("uni_xgcd", 12, "EE", ([], [])),
    ("uni_xgcd", 12, "CE", ([1], [[0, Fraction(1, 2), 0, Fraction(-1, 2)]])),
    ("uni_xgcd", 12, "EU", ([[0, 1, 0, 0], 1], [])),
    ("uni_xgcd", 12, "CU", ([1], [[0, Fraction(1, 2), 0, Fraction(-1, 2)]])),
    ("uni_xgcd", 12, "FG", ([[0, 1, 0, 0], 1], [Fraction(-1, 3)])),
    ("uni_squarefree", 12, "C", [1]),
    ("uni_squarefree", 12, "U", [[0, 1, 0, 0], 1]),
    ("uni_squarefree", 12, "G", [[0, 2, 0, 0], [2, 1, 0, 0], 1]),
    ("uni_squarefree", 12, "E", ZeroPolynomial),
    ("uni_squarefree", 12, "S", [[0, -1, 0, 0], [-1, 1, 0, 0], 1]),
    ("uni_gcd", 12, "SF", [[0, -1, 0, 0], [-1, 1, 0, 0], 1]),
    ("uni_xgcd", 12, "SG", ([[0, 1, 0, 0], 1], [[Fraction(2, 13), Fraction(1, 13), Fraction(2, 39), Fraction(1, 39)]])),
]


def as_list(order, coeffs):
    """A dense list from rationals, or from coordinate lists over Q(zeta_order)."""
    return [Cyc(order, c) if isinstance(c, list) else Cyc.from_rational(c, order) for c in coeffs]


@pytest.mark.parametrize("name, order, operands, expected", LIST_LAYER)
def test_list_layer_on_empty_constant_and_untrimmed_operands(name, order, operands, expected):
    args = [as_list(order, LIST_OPERANDS[order][o]) for o in operands]
    fn = uni_squarefree if name == "uni_squarefree" else getattr(polyring, name)
    if isinstance(expected, type):
        with pytest.raises(expected):
            fn(*args)
        return
    got = fn(*args)
    if isinstance(expected, tuple):
        assert got == tuple(as_list(order, e) for e in expected)
    else:
        assert got == as_list(order, expected)


def random_pairs(rng, order, count):
    """Pairs of dense lists over Q(zeta_order), one in three with a planted
    common factor of degree 1 or 2."""
    phi = len(Cyc.zero(order).coords)

    def draw(length):
        return [Cyc(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(phi)])
                for _ in range(length)]

    for k in range(count):
        a, b = draw(rng.randint(1, 6)), draw(rng.randint(1, 6))
        if k % 3 == 0:
            common = draw(rng.randint(1, 2)) + [Cyc.one(order)]
            a, b = polyring.uni_mul(a, common), polyring.uni_mul(b, common)
        yield a, b


def test_xgcd_cofactor_inverts_modulo_b():
    rng = random.Random(1201)
    shared = 0
    for a, b in random_pairs(rng, 12, 30):
        g, s = uni_xgcd(a, b)
        assert g == uni_gcd(a, b)
        shared += len(g) > 1
        # s a = g (mod b)
        assert polyring.uni_divmod(polyring.uni_sub(polyring.uni_mul(s, a), g), b)[1] == []
    assert shared >= 10


def test_list_layer_takes_no_order():
    names = ["uni_add", "uni_sub", "uni_mul", "uni_divmod", "uni_gcd", "uni_xgcd",
             "uni_coprime_mod_p", "_bareiss_det"]
    functions = [getattr(polyring, name) for name in names]
    for fn in functions:
        assert "order" not in inspect.signature(fn).parameters, fn.__name__


def test_uni_gcd_matches_euclid_without_the_certificate(monkeypatch):
    pairs = list(random_pairs(random.Random(1202), 12, 30)) + list(random_pairs(random.Random(1203), 1, 15))
    # p in a denominator, or p as a leading coefficient: no image in F_p
    for order in (1, 12):
        p, _ = split_prime(order)
        for scale, root in ((p, 1), (1, Fraction(1, p))):
            squarefree = as_list(order, [1, root, 0, 0, scale])
            repeated = polyring.uni_mul(as_list(order, [root * root, -2 * root, 1]), as_list(order, [scale] * 3))
            for f in (squarefree, repeated):
                assert not uni_coprime_mod_p(f, uni_derivative(f))
                pairs.append((f, uni_derivative(f)))
    assert sum(uni_coprime_mod_p(a, b) for a, b in pairs) >= 15
    with_certificate = [uni_gcd(a, b) for a, b in pairs]
    monkeypatch.setattr(polyring, "uni_coprime_mod_p", lambda a, b: False)
    assert with_certificate == [uni_gcd(a, b) for a, b in pairs]
    assert sum(len(g) > 1 for g in with_certificate) >= 15
