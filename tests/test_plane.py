import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oddsig import plane, polyring, serialize
from oddsig.errors import (InternalInconsistency, NotAnIsomorphism, OrderMismatch, SchemaError,
                           VariableCountMismatch, ZeroPolynomial)
from oddsig.exactnum import CyclotomicElement, cyclotomic_polynomial, euler_phi
from oddsig.plane import (PlaneCurve, ProjMap, _canonical, has_common_affine_zero,
                          is_automorphism, is_isomorphism_onto, is_smooth, matrix_product,
                          require_isomorphism)
from oddsig.polyring import SparsePoly
from oracles import apply, homogenize, product


def P(order, nvars, items):
    return SparsePoly.build(order, nvars, items)


def fermat_quartic():
    return PlaneCurve(P(4, 3, [(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4))]))


def klein_quartic():
    return PlaneCurve(P(7, 3, [(1, (3, 0, 1)), (1, (1, 3, 0)), (1, (0, 1, 3))]))


def quartic_family(a, b, c, order=1):
    items = [(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)),
             (a, (2, 2, 0)), (b, (2, 0, 2)), (c, (0, 2, 2))]
    return PlaneCurve(P(order, nvars=3, items=[t for t in items if t[0] != 0]))


def rational(order, value):
    return CyclotomicElement.from_rational(value, order)


def proj_equal(p, q):
    n = len(p)
    return all((p[i] * q[j] - p[j] * q[i]).is_zero() for i in range(n) for j in range(i + 1, n))


def random_map(rng, order):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        try:
            return ProjMap(order, rows)
        except ValueError:
            continue


def test_projmap_normalization_and_equality():
    a = ProjMap(4, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert a.is_identity()
    b = ProjMap(4, [[0, 3, 0], [3, 0, 0], [0, 0, 3]])
    c = ProjMap(4, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert b == c
    assert hash(b) == hash(c)
    off_diagonal = [(r, c) for r in range(3) for c in range(3) if r != c]
    assert not all(b.entries[r][c].is_zero() for r, c in off_diagonal)
    assert all(ProjMap.diagonal(4, 1, 2, 3).entries[r][c].is_zero() for r, c in off_diagonal)


def test_projmap_compose_inverse_power():
    rng = random.Random(97531)
    for _ in range(25):
        a = random_map(rng, 4)
        b = random_map(rng, 4)
        v = [rational(4, rng.randint(-4, 4)) for _ in range(3)]
        if all(x.is_zero() for x in v):
            v[0] = rational(4, 1)
        assert proj_equal(apply(a @ b, v), apply(a, apply(b, v)))
        assert (a @ a.inverse()).is_identity()
        assert (a @ a) @ a == a @ (a @ a)
        assert (a @ b).inverse() == b.inverse() @ a.inverse()


def test_projmap_validation():
    with pytest.raises(ValueError):
        ProjMap(4, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        ProjMap(4, [[1, 0, 0], [2, 0, 0], [0, 0, 1]])  # singular
    with pytest.raises(VariableCountMismatch):
        ProjMap(4, [[1, 0], [0, 1]])
    a = ProjMap(4, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = ProjMap(8, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(OrderMismatch):
        a.compose(b)


def test_projmap_permutation_matches_point_action():
    # images[j] is the slot coordinate j lands in: (x:y:z) -> (y:z:x) cycles 0->2, 1->0, 2->1
    cyc = ProjMap.permutation(4, [2, 0, 1])
    one, two, three = rational(4, 1), rational(4, 2), rational(4, 3)
    assert proj_equal(apply(cyc, [one, two, three]), (two, three, one))


def test_projmap_serialization_round_trip():
    zeta = CyclotomicElement.zeta(8, 1)
    a = ProjMap(8, [[zeta, 1, 0], [0, 1, 0], [Fraction(1, 2), 0, 1]])
    again = serialize.parse_document(serialize.projective_map_document(a)).value
    assert again == a
    with pytest.raises(SchemaError):
        serialize.parse_document({"kind": "projective_map", "order": 8})
    with pytest.raises(SchemaError):
        serialize.parse_document({"kind": "projective_map", "order": 0, "entries": [[["1"]] * 3] * 3})
    bad = serialize.projective_map_document(a)
    bad["entries"][0] = bad["entries"][0][:2]
    with pytest.raises(SchemaError):
        serialize.parse_document(bad)
    singular = serialize.projective_map_document(ProjMap.identity(4))
    singular["entries"][1] = singular["entries"][0]
    with pytest.raises(SchemaError):
        serialize.parse_document(singular)


# the sparse 3x3 kernel against a dense Fraction reference ---------------------

KERNEL_ORDERS = (1, 3, 4, 7, 8, 12, 24)
KERNEL = settings(max_examples=60, deadline=None)
SHAPES = ("monomial", "dense", "sparse", "zero_row", "dependent")


def ref_mul(a, b, order):
    """Coordinates of a * b: schoolbook in Q[x], reduced modulo Phi_order."""
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    modulus, phi = cyclotomic_polynomial(order), euler_phi(order)
    for i in range(len(prod) - 1, phi - 1, -1):  # long division by the monic Phi_order
        for j, m in enumerate(modulus):
            prod[i - phi + j] -= prod[i] * m
    return tuple(prod[:phi])


def ref_add(*terms):
    return tuple(sum(c) for c in zip(*terms))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_product(a, b, order):
    return [[ref_add(*(ref_mul(a[r][k], b[k][c], order) for k in range(3)))
             for c in range(3)] for r in range(3)]


def ref_det(m, order):
    """The dense cofactor formula along row 0."""
    def minor(j, k):
        return ref_sub(ref_mul(m[1][j], m[2][k], order), ref_mul(m[1][k], m[2][j], order))
    return ref_add(ref_mul(m[0][0], minor(1, 2), order),
                   tuple(-c for c in ref_mul(m[0][1], minor(0, 2), order)),
                   ref_mul(m[0][2], minor(0, 1), order))


@st.composite
def matrices(draw, order):
    """Coordinate rows of a 3x3 matrix with a drawn zero pattern; the last
    two shapes are singular."""
    phi = euler_phi(order)
    zero = (Fraction(0),) * phi
    entries = st.lists(st.sampled_from((-2, -1, 0, 1, 2, Fraction(1, 2))),
                       min_size=phi, max_size=phi)
    nonzero = entries.filter(any).map(lambda c: tuple(Fraction(x) for x in c))
    shape = draw(st.sampled_from(SHAPES))
    if shape == "monomial":
        perm = draw(st.permutations(range(3)))
        return [[draw(nonzero) if c == perm[r] else zero for c in range(3)] for r in range(3)]
    entry = st.one_of(st.just(zero), nonzero) if shape == "sparse" else nonzero
    m = [[draw(entry) for _ in range(3)] for _ in range(3)]
    if shape == "zero_row":
        m[draw(st.integers(0, 2))] = [zero] * 3
    elif shape == "dependent":
        m[2] = [ref_add(x, y) for x, y in zip(m[0], m[1])]
    return m


def as_elements(order, m):
    return tuple(tuple(CyclotomicElement(order, c) for c in row) for row in m)


@KERNEL
@given(st.sampled_from(KERNEL_ORDERS), st.data())
def test_kernel_matches_dense_reference(order, data):
    a, b = data.draw(matrices(order)), data.draw(matrices(order))
    expected = ref_product(a, b, order)
    rows = as_elements(order, expected)
    assert matrix_product(as_elements(order, a), as_elements(order, b), order) == rows
    if not any(ref_det(expected, order)):
        # a singular product, also one with a zero row, is refused by both routes
        with pytest.raises(ValueError):
            _canonical(order, rows)
        with pytest.raises(ValueError):
            ProjMap(order, rows)
        return
    p = ProjMap(order, rows)
    trusted = _canonical(order, rows)
    assert trusted == p and trusted.key() == p.key()
    # det(AB) = det A det B is nonzero, so both factors are maps
    assert ProjMap(order, as_elements(order, a)) @ ProjMap(order, as_elements(order, b)) == p
    canonical = [[c.coords for c in row] for row in p.entries]
    assert p.det().coords == ref_det(canonical, order)


def test_plane_curve_validation_and_genus():
    with pytest.raises(ValueError):
        PlaneCurve(P(4, 3, [(1, (4, 0, 0)), (1, (1, 0, 0))]))
    with pytest.raises(ZeroPolynomial):
        PlaneCurve(SparsePoly(4, 3, {}))
    with pytest.raises(VariableCountMismatch):
        PlaneCurve(P(4, 2, [(1, (4, 0))]))
    assert fermat_quartic().genus() == 3
    assert klein_quartic().genus() == 3
    septic = PlaneCurve(P(1, 3, [(1, (7, 0, 0)), (1, (0, 7, 0)), (1, (0, 0, 7))]))
    assert septic.genus() == 15
    assert fermat_quartic().degree == 4


def test_conjugate_curve():
    i = CyclotomicElement.zeta(4, 1)
    curve = PlaneCurve(P(4, 3, [(1, (3, 0, 0)), (i, (0, 3, 0)), (1, (0, 0, 3))]))
    conj = curve.conjugate()
    assert conj.poly.terms[(0, 3, 0)] == -i
    assert conj.conjugate() == curve


def test_fermat_automorphisms():
    x4 = fermat_quartic()
    i = CyclotomicElement.zeta(4, 1)
    ok, lam = is_automorphism(x4, ProjMap.diagonal(4, i, 1, 1))
    assert ok and lam == rational(4, 1)
    ok, lam = is_automorphism(x4, ProjMap.permutation(4, [2, 0, 1]))
    assert ok and lam == rational(4, 1)
    ok, lam = is_automorphism(x4, ProjMap.permutation(4, [1, 0, 2]))
    assert ok and lam == rational(4, 1)
    shear = ProjMap(4, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    ok, lam = is_automorphism(x4, shear)
    assert not ok and lam is None
    ok, lam = is_automorphism(x4, ProjMap.diagonal(4, 2, 1, 1))
    assert not ok


def test_klein_automorphisms():
    k = klein_quartic()
    z = [CyclotomicElement.zeta(7, j) for j in range(7)]
    # the stored representative is diag(1, z, z^3), so the multiplier is z^3
    diag = ProjMap.diagonal(7, z[1], z[2], z[4])
    ok, lam = is_automorphism(k, diag)
    assert ok and lam == z[3]
    cyc = ProjMap.permutation(7, [2, 0, 1])
    ok, lam = is_automorphism(k, cyc)
    assert ok and lam == rational(7, 1)
    rows = [
        [z[1] - z[6], z[4] - z[3], z[2] - z[5]],
        [z[4] - z[3], z[2] - z[5], z[1] - z[6]],
        [z[2] - z[5], z[1] - z[6], z[4] - z[3]],
    ]
    # this representative satisfies F o T = 49 F and T^2 = -7 id
    assert k.poly.substitute_linear(rows) == product(k.poly, P(7, 3, [(49, (0, 0, 0))]))
    t = ProjMap(7, rows)
    ok, lam = is_automorphism(k, t)
    assert ok and lam is not None
    assert (t @ t).is_identity()


def test_isomorphism_onto():
    x4 = fermat_quartic()
    target = PlaneCurve(P(4, 3, [(1, (4, 0, 0)), (16, (0, 4, 0)), (1, (0, 0, 4))]))
    a = ProjMap(4, [[1, 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]])
    ok, lam = is_isomorphism_onto(x4, target, a)
    assert ok and lam == rational(4, 1)
    assert require_isomorphism(x4, target, a) == rational(4, 1)
    shear = ProjMap(4, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotAnIsomorphism):
        require_isomorphism(x4, target, shear)


def test_restrict_to_line():
    f = fermat_quartic().poly
    one, zero = rational(4, 1), rational(4, 0)
    # F(s*u + t*w) for u = (1, 0, 0), w = (0, 1, 0): the 3x2 matrix [u w]
    form = f.substitute_linear([[one, zero], [zero, one], [zero, zero]])
    assert form == P(4, 2, [(1, (4, 0)), (1, (0, 4))])


def test_smooth_classics():
    assert is_smooth(fermat_quartic())
    assert is_smooth(klein_quartic())
    conic = PlaneCurve(P(1, 3, [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))]))
    assert is_smooth(conic)
    nodal = PlaneCurve(P(1, 3, [(1, (0, 2, 1)), (-1, (3, 0, 0)), (-1, (2, 0, 1))]))
    assert not is_smooth(nodal)
    cusp = PlaneCurve(P(1, 3, [(1, (0, 2, 1)), (-1, (3, 0, 0))]))
    assert not is_smooth(cusp)
    crossing = PlaneCurve(P(1, 3, [(1, (1, 1, 0))]))
    assert not is_smooth(crossing)
    double_line = PlaneCurve(P(1, 3, [(1, (2, 0, 0)), (2, (1, 1, 0)), (1, (0, 2, 0))]))
    assert not is_smooth(double_line)
    reducible = PlaneCurve(product(P(1, 3, [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))]),
                                   P(1, 3, [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))])))
    assert not is_smooth(reducible)


def test_smooth_singularity_on_line_at_infinity():
    # a = 2 forces the double points (1 : +-i : 0) with z = 0
    assert not is_smooth(quartic_family(2, 3, 5))
    assert is_smooth(quartic_family(1, 3, 5))


def partials(curve):
    return [curve.poly.derivative(v) for v in range(3)]


def test_smooth_node_at_1_0_0():
    # x^2 (y^2 - z^2) + y^4 + z^4: on z = 0 no partial keeps an x^3 term, and
    # the node (1 : 0 : 0) is the only singular point, outside the chart z = 1
    curve = PlaneCurve(P(1, 3, [(1, (2, 2, 0)), (-1, (2, 0, 2)), (1, (0, 4, 0)), (1, (0, 0, 4))]))
    assert not is_smooth(curve)
    assert not has_common_affine_zero(partials(curve))


def test_smooth_singular_point_at_1_1_0(monkeypatch):
    # F(x, y, 0) = (x - y)^2 (x^2 - 2xy + 2y^2), and (1 : 1 : 0) is the only
    # singular point, outside the chart z = 1
    curve = PlaneCurve(P(1, 3, [(1, (4, 0, 0)), (-4, (3, 1, 0)), (7, (2, 2, 0)), (-6, (1, 3, 0)),
                                (2, (0, 4, 0)), (-1, (0, 2, 2)), (1, (0, 0, 4))]))
    calls, original = [], polyring.uni_gcd

    def spy(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(polyring, "uni_gcd", spy)
    assert not is_smooth(curve)
    # the line's first gcd takes F_x(x, 1, 0) and F_y(x, 1, 0), up to scalars
    fx = [rational(1, c) for c in (-6, 14, -12, 4)]
    fy = [rational(1, c) for c in (8, -18, 14, -4)]
    assert [polyring.uni_monic(c) for c in calls[0]] == [polyring.uni_monic(fx), polyring.uni_monic(fy)]
    assert not has_common_affine_zero(partials(curve))


def test_smooth_matches_family_criterion():
    rng = random.Random(192837)
    triples = [(1, 1, -1), (3, 3, 7), (2, 0, 0), (0, 2, 0), (0, 0, -2),
               (1, 3, 5), (1, 2, 5), (0, 0, 0)]
    while len(triples) < 28:
        triples.append((rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6)))
    for a, b, c in triples:
        expected = not (a * a + b * b + c * c - a * b * c == 4
                        or 4 in (a * a, b * b, c * c))
        assert is_smooth(quartic_family(a, b, c)) is expected, (a, b, c)


def drawn_curve(order, d):
    """A dense plane curve of degree d: each coefficient a + b zeta_order with
    a, b drawn from -2..2 (seed 100 + d)."""
    rng = random.Random(100 + d)
    zeta = CyclotomicElement.zeta(order, 1)
    return PlaneCurve(SparsePoly(order, 3, {
        (i, j, d - i - j): zeta * rng.randint(-2, 2) + rng.randint(-2, 2)
        for i in range(d, -1, -1) for j in range(d - i, -1, -1)}))


@pytest.mark.parametrize("order, d", [(7, 5), (1, 6)])
def test_smooth_drawn_curves_are_proven_in_f_p(order, d, monkeypatch):
    # every gcd is_smooth runs on these curves is 1, and the F_p certificate
    # inside uni_gcd proves each one before any Euclid over Q(zeta_N)
    verdicts, real = [], polyring.uni_coprime_mod_p

    def spy(a, b):
        verdicts.append(real(a, b))
        return verdicts[-1]

    monkeypatch.setattr(polyring, "uni_coprime_mod_p", spy)
    assert is_smooth(drawn_curve(order, d))
    assert verdicts and all(verdicts)


def biv(order, items):
    """The form in x, y and z whose chart z = 1 is the polynomial of items."""
    return homogenize(P(order, 2, items))


def test_has_common_affine_zero_basics():
    x2_minus_2 = biv(1, [(1, (2, 0)), (-2, (0, 0))])
    y_minus_x = biv(1, [(1, (0, 1)), (-1, (1, 0))])
    assert has_common_affine_zero([x2_minus_2, y_minus_x])
    unit = biv(1, [(1, (0, 0))])
    assert not has_common_affine_zero([unit, y_minus_x])
    assert has_common_affine_zero([])
    assert has_common_affine_zero([SparsePoly(1, 3, {})])
    assert has_common_affine_zero([y_minus_x])


def test_has_common_affine_zero_constraint_branches():
    # each case leads with y^2 - 1, whose constant leading coefficient in y
    # the pencil needs; x^2 - 2 is free of y and starts the gcd
    x2_minus_2 = biv(1, [(1, (2, 0)), (-2, (0, 0))])
    y2_minus_1 = biv(1, [(1, (0, 2)), (-1, (0, 0))])
    # (x^2 - 3) y - 1 is -y - 1 above both roots of x^2 - 2: zero at y = -1
    p = biv(1, [(1, (2, 1)), (-3, (0, 1)), (-1, (0, 0))])
    assert has_common_affine_zero([y2_minus_1, x2_minus_2, p])
    # (x^2 - 2) y - 1 is -1 above both roots of x^2 - 2
    q = biv(1, [(1, (2, 1)), (-2, (0, 1)), (-1, (0, 0))])
    assert not has_common_affine_zero([y2_minus_1, x2_minus_2, q])
    # xy - 1 with x = 0 forced
    assert not has_common_affine_zero([
        y2_minus_1,
        biv(1, [(1, (1, 1)), (-1, (0, 0))]),
        biv(1, [(1, (1, 0))]),
    ])
    # (x^2 - 2) y vanishes identically above both roots of x^2 - 2
    assert has_common_affine_zero([y2_minus_1, x2_minus_2, biv(1, [(1, (2, 1)), (-2, (0, 1))])])


def test_has_common_affine_zero_modulus_splitting():
    # x^2 - 1 with (x - 1) y - 1: a zero (-1, -1/2), which 2y + 1 passes through
    x2_minus_1 = biv(1, [(1, (2, 0)), (-1, (0, 0))])
    p = biv(1, [(1, (1, 1)), (-1, (0, 1)), (-1, (0, 0))])
    assert has_common_affine_zero([biv(1, [(2, (0, 1)), (1, (0, 0))]), x2_minus_1, p])
    # x^2 - x with xy - 1 (no zero at x = 0) and (x - 1) y - 1 (none at x = 1)
    dead = biv(1, [(1, (2, 0)), (-1, (1, 0))])
    q = biv(1, [(1, (1, 1)), (-1, (0, 0))])
    r = biv(1, [(1, (1, 1)), (-1, (0, 1)), (-1, (0, 0))])
    assert not has_common_affine_zero([biv(1, [(1, (0, 1)), (-1, (0, 0))]), dead, q, r])


def test_has_common_affine_zero_refuses_inputs_without_a_pencil_lead():
    # no input of positive y-degree has a constant leading coefficient in y
    with pytest.raises(InternalInconsistency):
        has_common_affine_zero([biv(1, [(1, (2, 0)), (-2, (0, 0))]),
                                biv(1, [(1, (1, 1)), (-1, (0, 0))])])


def resultant_spy(monkeypatch):
    results, original = [], polyring.resultant

    def spy(f, g):
        results.append(original(f, g))
        return results[-1]

    monkeypatch.setattr(polyring, "resultant", spy)
    return results


def test_pencil_needs_its_third_resultant(monkeypatch):
    # f = y^2 - 1, g = x + y - 1, h = y + 3: R(x, u) = (x + 4u)(x - 2 + 2u) up
    # to a constant; R(x, 0) and R(x, 1) share x = 0, and only R(x, 2) clears it
    f = biv(1, [(1, (0, 2)), (-1, (0, 0))])
    g = biv(1, [(1, (1, 0)), (1, (0, 1)), (-1, (0, 0))])
    h = biv(1, [(1, (0, 1)), (3, (0, 0))])
    results = resultant_spy(monkeypatch)
    assert not has_common_affine_zero([f, g, h])
    assert len(results) == 3
    # with h = g every R(x, u) is (1 + u)^2 x (x - 2): zeros (0, 1) and (2, -1)
    results.clear()
    assert has_common_affine_zero([f, g, g])
    assert len(results) == 3


def test_has_common_affine_zero_shared_factor_split():
    # -y^2 z^2 + x y^3 - 2 x^2 y^2 - 3 x^3 y: F_x and F_z share the factor y,
    # the partials have no common zero on z = 0, and all three vanish at (0, 0)
    form = P(1, 3, [(-1, (0, 2, 2)), (1, (1, 3, 0)), (-2, (2, 2, 0)), (-3, (3, 1, 0))])
    assert has_common_affine_zero(partials(PlaneCurve(form)))
    # coprime polynomials with inconsistent constraints
    x_minus_3 = biv(1, [(1, (1, 0)), (-3, (0, 0))])
    a2 = biv(1, [(1, (0, 1)), (1, (1, 0)), (1, (0, 0))])
    b2 = biv(1, [(1, (0, 1)), (-5, (0, 0))])
    assert not has_common_affine_zero([a2, b2, x_minus_3])


def test_is_smooth_leaves_through_a_zero_resultant(monkeypatch):
    # 3x^3 y - 2y^3 z: the pencil leads with the chart partial -2y^3, and its
    # first member 9x^2 y shares the factor y, so R(x, 0) = 0; the loop goes
    # on through R(x, 1), ..., R(x, 3), which all vanish at x = 0
    results = resultant_spy(monkeypatch)
    assert not is_smooth(PlaneCurve(P(1, 3, [(3, (3, 1, 0)), (-2, (0, 3, 1))])))
    assert [r == [] for r in results] == [True, False, False, False]


def test_has_common_affine_zero_resultant_path():
    parabola = biv(1, [(1, (0, 1)), (-1, (2, 0))])
    cubic = biv(1, [(1, (0, 2)), (-1, (3, 0)), (-1, (1, 0))])
    assert has_common_affine_zero([parabola, cubic])
    # shifted circle pair with empty intersection over the closure is rare;
    # two coprime conics meeting only outside the rationals still intersect
    circle = biv(1, [(1, (2, 0)), (1, (0, 2)), (-1, (0, 0))])
    line_far = biv(1, [(1, (1, 0)), (1, (0, 1)), (-10, (0, 0))])
    assert has_common_affine_zero([circle, line_far])


def test_has_common_affine_zero_closure_points():
    # x^2 + 1 = 0 has no rational roots but the engine works over the closure
    x2_plus_1 = biv(1, [(1, (2, 0)), (1, (0, 0))])
    y = biv(1, [(1, (0, 1))])
    assert has_common_affine_zero([x2_plus_1, y])
