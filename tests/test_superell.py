import json
import random
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from oddsig import polyring, serialize, superell
from oddsig.errors import (
    BoundExceeded,
    GenusTooSmall,
    HypothesisViolation,
    NonIntegerCount,
    NotSquarefree,
    PropertyViolation,
    SchemaError,
    ShapeViolation,
)
from oddsig.exactnum import CyclotomicElement as Cyc, common_order, euler_phi, split_prime
from oddsig.polyring import (MAX_DEGREE, uni_add, uni_coprime_mod_p, uni_derivative, uni_divmod,
                             uni_mul, uni_trim)
from oddsig.ramify import Signature, is_odd_signature
from oddsig.superell import (
    QGonalCurve,
    QGonalMap,
    build_family,
    deck_map,
    family_curve,
    family_polynomial,
    family_signature,
    genus_qgonal,
    mirror_map,
    moebius_permutes_roots,
    qgonal_is_isomorphism,
    qgonal_real_descent,
    qgonal_signature,
    rotation_map,
)
from oracles import defect_twist_map, exceptional_qgonal_rows, power, qgonal_identity, to_complex


def U(order, coeffs):
    return [c.lift_to(order) if isinstance(c, Cyc) else Cyc.from_rational(c, order)
            for c in coeffs]


def map_power(phi, k):
    return power(phi, k, qgonal_identity(phi.order))


def mobius(phi):
    """The Moebius matrix of x -> s x^e from the fields of phi: [[s, 0],
    [0, 1]] or [[0, s], [1, 0]]."""
    one, zero = Cyc.one(phi.order), Cyc.zero(phi.order)
    return ((phi.scale, zero), (zero, one)) if phi.flip == 1 else ((zero, phi.scale), (one, zero))


def map_document(order, rows, num=(1,), den=(1,)):
    """A qgonal_map document with the given Moebius rows and multiplier
    coefficient lists, entries as ints or elements of a subfield."""
    def coords(e):
        return [str(c) for c in U(order, [e])[0].coords]

    return {"kind": "qgonal_map", "order": order, "mobius": [[coords(e) for e in row] for row in rows],
            "multiplier_num": [coords(e) for e in num], "multiplier_den": [coords(e) for e in den]}


def read_map(order, rows, num=(1,), den=(1,)):
    return serialize.parse_input(json.dumps(map_document(order, rows, num, den))).value


def root3():
    # zeta_12 + zeta_12^11 squares to 3
    return Cyc.zeta(12, 1) + Cyc.zeta(12, 11)


def rh_genus(group_order, sig):
    total = Fraction(2 * sig.quotient_genus - 2)
    for c in sig.indices:
        total += 1 - Fraction(1, c)
    doubled = group_order * total
    assert doubled.denominator == 1 and doubled % 2 == 0
    return int(doubled) // 2 + 1


def test_genus_examples():
    assert genus_qgonal(2, U(1, [-1, 0, 0, 0, 0, 0, 1])) == 2
    assert genus_qgonal(3, U(1, [1, 1, 0, 0, 1])) == 3
    assert genus_qgonal(3, U(1, [-1, 0, 0, 0, 0, 0, 1])) == 4


def test_genus_guards():
    with pytest.raises(HypothesisViolation):
        genus_qgonal(4, U(1, [-1, 0, 0, 0, 0, 0, 1]))
    with pytest.raises(NotSquarefree):
        genus_qgonal(2, U(1, [0, 0, 2, -3, 1]))
    with pytest.raises(GenusTooSmall):
        genus_qgonal(2, U(1, [-1, 0, 1]))
    # degree 3 under a double cover only reaches genus 1
    with pytest.raises(GenusTooSmall):
        genus_qgonal(2, U(1, [0, -1, 0, 1]))


def test_quotient_signature_by_shape():
    assert qgonal_signature(3, 3, "N0", 16) == Signature(0, (3,) * 8)
    assert qgonal_signature(5, 2, "N1", 14) == Signature(0, (2, 5, 5, 5, 5, 10))
    assert qgonal_signature(3, 2, "N2", 4) == Signature(0, (3, 3, 6, 6))


def test_quotient_signature_guards():
    with pytest.raises(ShapeViolation):
        qgonal_signature(3, 3, "N7", 16)
    with pytest.raises(NonIntegerCount):
        qgonal_signature(3, 3, "N0", 15)
    # t = 1 forces q | n*t to fail for these values
    with pytest.raises(ShapeViolation):
        qgonal_signature(5, 5, "N1", 8)
    with pytest.raises(HypothesisViolation):
        qgonal_signature(6, 3, "N0", 16)


def test_quotient_signature_bounds_its_branch_count():
    # N0 has t = (2g + 4) / 4 branch points of index 3 for q = 3, n = 2, and
    # 3 must divide 2t: t = 126 passes, t = 129 > MAX_DEGREE = 128 stops
    # before the list is built, and so does a genus near 10^9
    assert qgonal_signature(3, 2, "N0", 250) == Signature(0, (2, 2) + (3,) * 126)
    for genus in (256, 10**9, 10**30):
        started = time.perf_counter()
        with pytest.raises(BoundExceeded, match=f"exceed the bound {MAX_DEGREE}"):
            qgonal_signature(3, 2, "N0", genus)
        assert time.perf_counter() - started < 0.1
    with pytest.raises(BoundExceeded):
        qgonal_signature(3, 2, "N2", 2 * (MAX_DEGREE + 1))


def test_build_family_quartic_twist():
    f = build_family(2, 4)
    factors = [U(4, [Cyc.zeta(4, 1) * -2, 0, 0, 0, 1]),
               U(4, [Cyc.zeta(4, 1) / 2, 0, 0, 0, 1]),
               U(4, [3, 0, 0, 0, 1]),
               U(4, [Fraction(-1, 3), 0, 0, 0, 1])]
    product = [Cyc.one(4)]
    for g in factors:
        product = uni_mul(product, g)
    assert f == product
    coeffs = f
    assert len(coeffs) == 17
    assert coeffs[0] == Cyc.from_rational(-1, 4)

    z = 0.7 + 0.3j
    expected = ((z ** 4 - 2j) * (z ** 4 + 0.5j) * (z ** 4 + 3) * (z ** 4 - 1 / 3))
    got = sum(to_complex(c) * z ** k for k, c in enumerate(coeffs))
    assert abs(got - expected) < 1e-9


def test_build_family_cubic_variant():
    f = build_family(2, 3)
    assert {c.order for c in f} == {12}
    r3 = root3()
    i = Cyc.zeta(12, 3)
    factors = [U(12, [r3 * 15 + 26, 0, 0, 1]),
               U(12, [r3 * 15 - 26, 0, 0, 1]),
               U(12, [i * -2, 0, 0, 1]),
               U(12, [i / 2, 0, 0, 1])]
    product = [Cyc.one(12)]
    for g in factors:
        product = uni_mul(product, g)
    assert f == product
    tau = [[-1, r3 + 1], [r3 - 1, 1]]
    assert not moebius_permutes_roots(f, tau)


def test_family_preconditions():
    with pytest.raises(HypothesisViolation):
        build_family(1, 4)
    with pytest.raises(HypothesisViolation):
        build_family(3, 1)


def test_family_validity_tripwires():
    i = Cyc.zeta(4, 1)
    with pytest.raises(PropertyViolation, match="zero"):
        family_polynomial([0, 2], 2, 4)
    with pytest.raises(PropertyViolation, match=r"\|a_1\| and \|a_2\|"):
        family_polynomial([2, i * 2], 2, 4)
    with pytest.raises(PropertyViolation, match="conj"):
        family_polynomial([2, 3], 2, 4)
    with pytest.raises(PropertyViolation, match=r"equals \|1/a_2\|"):
        family_polynomial([2, i / 2], 2, 4)
    with pytest.raises(PropertyViolation, match="constant term"):
        family_polynomial([2, Cyc.zeta(8, 1) * 3], 2, 8)
    with pytest.raises(HypothesisViolation):
        family_polynomial([2], 2, 4)


def test_moebius_root_check():
    r3 = root3()
    alpha = -(r3 + 2)
    tau = [[-1, r3 + 1], [r3 - 1, 1]]
    fixed = U(12, [alpha, -(alpha + 1), 1])          # (x - 1)(x - alpha)
    assert moebius_permutes_roots(fixed, tau)
    moved = U(12, [2, -3, 1])                        # (x - 1)(x - 2)
    assert not moebius_permutes_roots(moved, tau)
    with pytest.raises(ValueError):
        moebius_permutes_roots(moved, [[1, 1], [1, 1]])


def test_map_identity_and_scaling():
    ident = qgonal_identity(12)
    assert ident.is_identity()
    # a Moebius matrix is a document shape: read up to a scalar, written normalised
    assert read_map(12, [[2, 0], [0, 2]]) == ident
    i = Cyc.zeta(4, 1).lift_to(12)
    a = read_map(12, [[0, 3], [i * 3, 0]])
    b = read_map(12, [[0, 1], [i, 0]])
    assert a == b and hash(a) == hash(b)
    assert a == QGonalMap(12, i.inverse(), -1, Cyc.one(12), 0)
    assert serialize.qgonal_map_document(a)["mobius"] == map_document(12, [[0, 1], [i, 0]])["mobius"]
    small = QGonalMap(4, Cyc.one(4), -1, Cyc.from_rational(2, 4), -1)
    large = read_map(12, [[0, 1], [1, 0]], num=(2,), den=(0, 1))
    assert small != large and small.lift_to(12) == large
    for rows in ([[1, 1], [1, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 0]], [[0, 1], [0, 1]]):
        with pytest.raises(SchemaError, match="^not a cover map: moebius part must be an "
                                              "invertible diagonal or antidiagonal matrix$"):
            read_map(12, rows)
    for num in ((0,), (1, 1)):
        with pytest.raises(SchemaError, match="^not a cover map: multiplier parts must be "
                                              "monomials: one nonzero coefficient each$"):
            read_map(12, [[1, 0], [0, 1]], num=num)


def test_deck_and_rotation_commute():
    iota = deck_map(3, 6)
    nu = rotation_map(2, 6)
    assert iota @ nu == nu @ iota
    assert map_power(iota @ nu, 6).is_identity()
    assert not map_power(iota @ nu, 3).is_identity()
    ident = qgonal_identity(6)
    assert ident @ nu == nu and nu @ ident == nu


def rand_element(rng, order):
    return Cyc.zeta(order, rng.randrange(order)) * rng.choice([1, -2, Fraction(1, 2), 3])


def rand_map(rng, order):
    scale, flip = rand_element(rng, order), rng.choice((1, -1))
    return QGonalMap(order, scale, flip, rand_element(rng, order), rng.randint(-3, 3))


def test_map_group_laws_randomized():
    rng = random.Random(2718)
    for _ in range(25):
        a, b, c = (rand_map(rng, 12) for _ in range(3))
        assert (a @ b) @ c == a @ (b @ c)
        assert (a @ b).galois(5) == a.galois(5) @ b.galois(5)
        assert map_power(a, 3) == a @ a @ a
        assert a.conjugate().conjugate() == a


def apply_map(phi, point):
    """(s x^e, c x^k y), evaluated from the fields of phi."""
    x, y = point
    return (phi.scale * (x if phi.flip == 1 else x.inverse()),
            phi.coeff * x ** phi.exponent * y)


def apply_views(phi, point):
    """The same map evaluated from the Moebius matrix and the multiplier
    its document holds."""
    x, y = point
    doc = serialize.qgonal_map_document(phi)

    def value(coeffs):
        return sum((serialize.read_element(phi.order, c) * x ** i for i, c in enumerate(coeffs)),
                   Cyc.zero(x.order))

    (a, b), (c, d) = ([serialize.read_element(phi.order, e) for e in row] for row in doc["mobius"])
    return (a * x + b) / (c * x + d), value(doc["multiplier_num"]) / value(doc["multiplier_den"]) * y


def test_map_algebra_against_pointwise_evaluation():
    rng = random.Random(1729)
    for _ in range(30):
        phi, psi = rand_map(rng, 12), rand_map(rng, 12)
        x0 = Cyc(12, [rng.randint(-3, 3) for _ in range(4)])
        if x0.is_zero():
            continue
        point = (x0, Cyc(12, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]))
        image = apply_map(psi, point)
        assert apply_map(phi @ psi, point) == apply_map(phi, image)
        assert apply_views(phi, point) == apply_map(phi, point)
        for k in (5, 7, 11):
            moved = tuple(v.galois(k) for v in point)
            assert apply_map(phi.galois(k), moved) == tuple(v.galois(k) for v in apply_map(phi, point))


def test_map_documents_hold_only_monomial_maps():
    rng = random.Random(31)
    for _ in range(10):
        phi = rand_map(rng, 12)
        assert serialize.parse_input(json.dumps(serialize.qgonal_map_document(phi))).value == phi
    zero, one, two = (Cyc.from_rational(v, 12).coords for v in (0, 1, 2))
    zero, one, two = ([str(c) for c in v] for v in (zero, one, two))
    base = {"kind": "qgonal_map", "order": 12, "mobius": [[one, zero], [zero, one]],
            "multiplier_num": [one], "multiplier_den": [one]}
    # 2 x^3 / (2 x), written with a trailing zero, is read as x^2
    doc = dict(base, multiplier_num=[zero, zero, zero, two], multiplier_den=[zero, two, zero])
    assert serialize.parse_input(json.dumps(doc)).value == QGonalMap(12, Cyc.one(12), 1, Cyc.one(12), 2)
    for key, value in (("mobius", [[one, one], [zero, one]]),
                       ("mobius", [[one, zero], [one, one]]),
                       ("multiplier_num", [one, one]),
                       ("multiplier_den", [zero, one, two]),
                       ("multiplier_num", []),
                       ("multiplier_den", [zero])):
        with pytest.raises(SchemaError):
            serialize.parse_input(json.dumps(dict(base, **{key: value})))


def test_generated_symmetry_group_size():
    # set-based closure needs all maps over one field, as with plane maps
    for q, n in [(3, 2), (3, 3)]:
        o = lcm(q, n)
        gens = [deck_map(q, o), rotation_map(n, o)]
        seen = {qgonal_identity(o)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for g in frontier:
                for h in gens:
                    cand = g @ h
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
            frontier = nxt
        assert len(seen) == q * n
        iota = deck_map(q, o)
        assert all(g @ iota == iota @ g for g in seen)


def test_isomorphism_recognition():
    for q, m, n in [(3, 3, 2), (3, 3, 3), (5, 2, 5)]:
        curve = family_curve(q, m, n)
        twin = curve.conjugate()
        assert qgonal_is_isomorphism(curve, curve, deck_map(q))
        assert qgonal_is_isomorphism(curve, curve, rotation_map(n))
        mirror = mirror_map(q, m, n)
        assert qgonal_is_isomorphism(curve, twin, mirror)
        assert qgonal_is_isomorphism(curve, twin, deck_map(q) @ mirror)
        assert not qgonal_is_isomorphism(curve, twin, qgonal_identity(curve.order))
        skewed = mirror._replace(exponent=mirror.exponent - 1)
        assert not qgonal_is_isomorphism(curve, twin, skewed)
    with pytest.raises(HypothesisViolation):
        qgonal_is_isomorphism(family_curve(3, 3, 2), family_curve(5, 2, 2),
                              qgonal_identity(1))


def test_family_signatures_match_quotient_shape():
    assert family_signature(family_curve(3, 3, 3)) == Signature(0, (3,) * 8)
    assert family_signature(family_curve(3, 3, 2)) == Signature(0, (2, 2, 3, 3, 3, 3, 3, 3))
    assert family_signature(family_curve(5, 2, 2)) == Signature(0, (2, 5, 5, 5, 5, 10))
    assert family_signature(family_curve(5, 2, 5)) == Signature(0, (5,) * 6)


def test_genus_agrees_with_quotient_data():
    for q, m, n in [(3, 2, 3), (3, 3, 3), (5, 2, 2), (3, 3, 2)]:
        curve = family_curve(q, m, n)
        assert curve.genus == rh_genus(q * n, family_signature(family_curve(q, m, n)))


def test_genus_carried_across_embeddings():
    curves = [family_curve(q, m, n) for q, m, n in [(3, 3, 2), (3, 3, 3), (5, 2, 5)]]
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for path in sorted(fixtures.glob("qgonal_family_*.json")):
        curves.append(serialize.parse_input(path.read_text(encoding="utf-8")).value)
    assert len(curves) == 5
    for curve in curves:
        for image in (curve.conjugate(), curve.lift_to(2 * curve.order)):
            assert image.genus == genus_qgonal(image.q, image.coeffs)
            assert (image.m, image.n) == (curve.m, curve.n)


def test_every_cocycle_candidate_is_an_isomorphism():
    # qgonal_real_descent checks only mirror, deck and rotation; here every
    # composite mirror . deck^j . rotation^k is checked on its own
    for q, m, n in [(3, 3, 3), (3, 4, 3), (3, 6, 2), (3, 3, 4), (5, 5, 2)]:
        curve = family_curve(q, m, n)
        twin = curve.conjugate()
        mirror, deck, rotation = mirror_map(q, m, n), deck_map(q), rotation_map(n)
        for j in range(q):
            for k in range(n):
                phi = mirror @ map_power(deck, j) @ map_power(rotation, k)
                assert qgonal_is_isomorphism(curve, twin, phi), (q, m, n, j, k)


def test_descent_builds_once_and_checks_three_maps(monkeypatch):
    counts = {"build_family": 0, "genus_qgonal": 0, "qgonal_is_isomorphism": 0}
    for name in counts:
        def counted(*args, _name=name, _real=getattr(superell, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(superell, name, counted)
    report = qgonal_real_descent(3, 4, 3)
    assert report["method"] == "weil-cocycle" and len(report["defects"]) == 9
    assert counts == {"build_family": 1, "genus_qgonal": 1, "qgonal_is_isomorphism": 3}


def test_defect_closed_form():
    for q, m, n in [(3, 2, 3), (3, 3, 3), (5, 2, 5)]:
        report = qgonal_real_descent(q, m, n)
        assert report["method"] == "weil-cocycle"
        assert len(report["defects"]) == q * n
        for entry in report["defects"]:
            k = entry["k"]
            expected = (map_power(defect_twist_map(q, m, n), 2 * k + 1)
                        @ map_power(rotation_map(n), 2 * k + 1))
            assert entry["defect"] == expected.lift_to(entry["defect"].order)
            assert entry["is_identity"] == ((2 * k + 1) % n == 0)


def test_real_descent_definable_by_cocycle():
    report = qgonal_real_descent(3, 3, 3)
    assert report["verdict"] == "DEFINABLE"
    assert report["method"] == "weil-cocycle"
    assert report["genus"] == 16
    assert report["signature"] == Signature(0, (3,) * 8)
    assert report["odd_signature_verdict"] == "INCONCLUSIVE"
    witness = report["witness"]
    assert witness["j"] == 0 and witness["k"] == 1
    phi = witness["map"]
    assert (phi.conjugate() @ phi).is_identity()
    curve = family_curve(3, 3, 3)
    assert qgonal_is_isomorphism(curve, curve.conjugate(), phi)


def test_real_descent_obstructed():
    report = qgonal_real_descent(3, 3, 2)
    assert report["verdict"] == "OBSTRUCTED"
    assert report["witness"] is None
    assert report["genus"] == 10
    assert report["signature"] == Signature(0, (2, 2, 3, 3, 3, 3, 3, 3))
    assert len(report["defects"]) == 6
    nu = rotation_map(2)
    assert all(not e["is_identity"] for e in report["defects"])
    assert all(e["defect"] == nu.lift_to(e["defect"].order) for e in report["defects"])


def test_real_descent_odd_signature_shortcut():
    report = qgonal_real_descent(5, 2, 2)
    assert report["verdict"] == "DEFINABLE"
    assert report["method"] == "odd-signature"
    assert report["genus"] == 14
    assert report["signature"] == Signature(0, (2, 5, 5, 5, 5, 10))
    assert report["odd_signature_verdict"] == "ODD"
    assert report["witness"] is None and report["defects"] is None


def test_real_descent_preconditions():
    for q, m, n in [(2, 3, 3), (9, 2, 2), (3, 1, 3), (3, 3, 1)]:
        with pytest.raises(HypothesisViolation):
            qgonal_real_descent(q, m, n)


def test_curve_object_basics():
    curve = family_curve(3, 3, 2)
    assert curve.q == 3 and curve.genus == 10
    assert curve.m == 3 and curve.n == 2
    assert curve.conjugate().conjugate() == curve
    assert hash(curve.lift_to(6)) == hash(curve.lift_to(6))
    with pytest.raises(NotSquarefree):
        QGonalCurve(2, U(1, [0, 0, 2, -3, 1]))
    mirror = mirror_map(3, 3, 2)
    blob = serialize.qgonal_map_document(mirror)
    assert blob["kind"] == "qgonal_map" and blob["order"] == mirror.order


def test_extra_symmetry_catalog():
    rows = exceptional_qgonal_rows(13)
    assert len(rows) == 18
    seen = set()
    for row in rows:
        sig = row["signature"]
        assert is_odd_signature(sig)
        assert rh_genus(row["group_order"], sig) == row["genus"]
        assert row["genus"] >= 2
        key = (row["q"], sig.indices)
        assert key not in seen
        seen.add(key)
    assert rows[0]["group"] == "GL(2,3)" and rows[0]["genus"] == 2
    assert any(row["group"] == "S5" for row in rows)


# dense pull-back oracle, and the modular squarefree certificate -------------

def dense_pull_back(rows, top, order, p):
    """Sum of p_i (a x + b)^i (c x + d)^(top - i), each product formed in full."""
    (a, b), (c, d) = rows
    total = []
    for i, coeff in enumerate(p):
        term = [coeff]
        for _ in range(i):
            term = uni_mul(term, [b, a])
        for _ in range(top - i):
            term = uni_mul(term, [d, c])
        total = uni_add(total, term)
    return uni_trim(total)


@st.composite
def elements(draw, order):
    # zero one time in three, so a = 0, c = 0 and sparse p all occur
    if draw(st.integers(0, 2)) == 0:
        return Cyc.zero(order)
    phi = euler_phi(order)
    nums = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    return Cyc(order, [Fraction(x, draw(st.integers(1, 3))) for x in nums])


def dense_permutes_roots(f, rows):
    """The pull-back of f through rows is 0 modulo f."""
    pulled = dense_pull_back(rows, len(f) - 1, f[0].order, f)
    return not uni_divmod(pulled, f)[1]


def invertible_rows(data, order, involution=False):
    a, b, c = (data.draw(elements(order)) for _ in range(3))
    d = -a if involution else data.draw(elements(order))
    assume(not (a * d - b * c).is_zero())
    return [[a, b], [c, d]]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((1, 3, 4, 12, 24)), st.data())
def test_root_test_matches_dense_oracle(order, data):
    top = data.draw(st.integers(0, 7))
    coeffs = [data.draw(elements(order)) for _ in range(top)]
    lead = data.draw(elements(order))
    assume(not lead.is_zero())
    f = coeffs + [lead]
    rows = invertible_rows(data, order)
    assert moebius_permutes_roots(f, rows) == dense_permutes_roots(f, rows)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 3, 4, 12, 24)), st.data())
def test_root_test_accepts_planted_root_sets(order, data):
    # an involution tau = [[a, b], [c, -a]] and roots r, tau(r): f is tau-stable
    rows = invertible_rows(data, order, involution=True)
    (a, b), (c, d) = rows
    coeffs = [Cyc.one(order)]
    for _ in range(data.draw(st.integers(1, 6))):
        r = Cyc.from_rational(data.draw(st.fractions(-5, 5, max_denominator=4)), order)
        assume(not (c * r + d).is_zero())
        image = (a * r + b) / (c * r + d)
        coeffs = uni_mul(uni_mul(coeffs, [-r, Cyc.one(order)]), [-image, Cyc.one(order)])
    f = coeffs
    assert moebius_permutes_roots(f, rows)
    assert dense_permutes_roots(f, rows)


def test_root_test_edge_points_and_degenerate_input():
    # tau(x) = (2x + 1)/(x - 2): c x + d vanishes at x = 2, and f(0) = 0, so
    # the reference point is not x = 0
    tau = [[2, 1], [1, -2]]
    fixed = U(1, [0, Fraction(-3, 2), -2, Fraction(5, 2), 1])        # x (x + 1/2)(x - 1)(x + 3)
    assert moebius_permutes_roots(fixed, tau)
    moved = U(1, [0, -1, 0, 1])                                       # x (x - 1)(x + 1)
    assert not moebius_permutes_roots(moved, tau)
    assert not dense_permutes_roots(moved, [[Cyc.from_rational(e, 1) for e in row] for row in tau])
    for f in ([], U(12, [5])):
        assert moebius_permutes_roots(f, tau)
        with pytest.raises(ValueError):
            moebius_permutes_roots(f, [[1, 2], [2, 4]])


def dense_is_isomorphism(source, target, phi):
    """c^q x^(qk) f_source(x) (c' x + d')^D = (c' x + d')^D f_target(mobius(x))
    through phi's Moebius matrix [[a', b'], [c', d']], D = deg f_target."""
    order = common_order(source.order, target.order, phi.order)
    f_src = [c.lift_to(order) for c in source.coeffs]
    f_tgt = [c.lift_to(order) for c in target.coeffs]
    phi = phi.lift_to(order)
    top = len(f_tgt) - 1
    pulled = dense_pull_back(mobius(phi), top, order, f_tgt)
    denom = dense_pull_back(mobius(phi), top, order, [Cyc.one(order)])
    lhs = uni_mul([phi.coeff ** source.q * t for t in f_src], denom)
    shift = source.q * phi.exponent
    zero = Cyc.zero(order)
    return uni_trim([zero] * max(shift, 0) + lhs) == uni_trim([zero] * max(-shift, 0) + pulled)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 3, 2), (3, 2, 3), (3, 3, 3)]), st.sampled_from((1, -1)), st.data())
def test_isomorphism_check_matches_dense_oracle(qmn, flip, data):
    q, m, n = qmn
    curve = family_curve(q, m, n)
    order = common_order(curve.order, 2 * n, 2 * q)
    # a cocycle candidate (flip -1) or an automorphism (flip 1), then one
    # field changed half of the time, so both answers occur
    start = mirror_map(q, m, n, order) if flip == -1 else qgonal_identity(order)
    phi = (start @ map_power(deck_map(q, order), data.draw(st.integers(0, q - 1)))
           @ map_power(rotation_map(n, order), data.draw(st.integers(0, n - 1))))
    change = data.draw(st.sampled_from((None, None, "scale", "coeff", "exponent")))
    if change == "scale":
        extra = data.draw(elements(order))
        assume(not extra.is_zero())
        phi = phi._replace(scale=phi.scale * extra)
    elif change == "coeff":
        phi = phi._replace(coeff=phi.coeff * Cyc.zeta(2 * q, 1).lift_to(order))
    elif change == "exponent":
        phi = phi._replace(exponent=phi.exponent + data.draw(st.sampled_from((-1, 1))))
    assert phi.flip == flip
    for target in (curve, curve.conjugate()):
        assert qgonal_is_isomorphism(curve, target, phi) == dense_is_isomorphism(curve, target, phi)


def test_repeated_root_is_not_squarefree():
    # f = g^2 h over Q(zeta_12): the certificate cannot prove gcd(f, f') = 1,
    # and the exact gcd finds the repeated root
    z = Cyc.zeta(12, 1)
    g = [-z, Cyc.one(12)]
    h = U(12, [5, 2, 1])
    f = uni_mul(uni_mul(g, g), h)
    assert not uni_coprime_mod_p(f, uni_derivative(f))
    with pytest.raises(NotSquarefree):
        genus_qgonal(3, f)


def certificate_verdicts(monkeypatch) -> list:
    """Record what the F_p certificate inside polyring.uni_gcd returns; each
    False sends uni_gcd on to the exact Euclidean algorithm over Q(zeta_N)."""
    verdicts, real = [], polyring.uni_coprime_mod_p

    def spy(a, b):
        verdicts.append(real(a, b))
        return verdicts[-1]

    monkeypatch.setattr(polyring, "uni_coprime_mod_p", spy)
    return verdicts


@pytest.mark.parametrize("order", [1, 12])
def test_certificate_fallback_keeps_the_exact_verdict(order, monkeypatch):
    p, _ = split_prime(order)
    verdicts = certificate_verdicts(monkeypatch)
    # a leading coefficient p, or a coefficient with p in its denominator, has
    # no image in F_p
    for scale, root in ((p, 1), (1, Fraction(1, p))):
        squarefree = U(order, [1, root, 0, 0, scale])               # scale x^4 + root x + 1
        square = U(order, [root * root, -2 * root, 1])             # (x - root)^2
        repeated = uni_mul(square, U(order, [scale, scale, scale]))
        for f in (squarefree, repeated):
            assert not uni_coprime_mod_p(f, uni_derivative(f))
        assert genus_qgonal(3, squarefree) == 3
        with pytest.raises(NotSquarefree):
            genus_qgonal(3, repeated)
    assert verdicts.count(False) == 4
    # an ordinary squarefree polynomial is proven without the exact gcd
    assert genus_qgonal(3, U(order, [1, 1, 0, 0, 1])) == 3
    assert verdicts.count(False) == 4 and verdicts[-1]


def test_family_degree_is_bounded():
    started = time.perf_counter()
    with pytest.raises(BoundExceeded, match="exceeds the bound"):
        build_family(3, 50_000_000)
    assert time.perf_counter() - started < 1.0
    # the largest degree in use, 2mn = 98 for m = n = 7, stays below the cap
    assert len(build_family(7, 7)) - 1 == 98 < MAX_DEGREE


def test_long_family_members_are_proven_squarefree(monkeypatch):
    verdicts = certificate_verdicts(monkeypatch)
    for q, m, n, genus in [(5, 5, 3, 56), (7, 7, 7, 288)]:
        assert family_curve(q, m, n).genus == genus
    assert verdicts and all(verdicts)                     # the exact gcd is never reached
