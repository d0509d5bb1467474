import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oddsig import exactnum, serialize
from oddsig.errors import (BoundExceeded, InternalInconsistency, InvalidExponent, NotASubfield,
                           OrderMismatch, SchemaError)
from oddsig.exactnum import (
    CyclotomicElement as Cyc,
    as_element,
    common_order,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
    residues,
    split_prime,
)
from oddsig.plane import ProjMap
from oracles import to_complex


def test_is_prime_matches_a_sieve_and_known_pseudoprimes():
    limit = 20000
    sieve = [False, False] + [True] * (limit - 1)
    for k in range(2, int(limit ** 0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = [False] * len(sieve[k * k::k])
    assert [k for k in range(limit + 1) if is_prime(k)] == [k for k in range(limit + 1) if sieve[k]]
    # Carmichael numbers and strong pseudoprimes to the bases 2 .. 23 and 2 .. 37
    for composite in (561, 41041, 2047, 3215031751, 3825123056546413051,
                      318665857834031151167461, (2**61 - 1) * (2**17 - 1)):
        assert not is_prime(composite)
    for prime in (2**31 - 1, 2**61 - 1, 2147483659):
        assert is_prime(prime)
    with pytest.raises(BoundExceeded):
        is_prime(exactnum._MR_LIMIT)


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    # the one factoriser behind euler_phi, _mobius and split_prime
    for n in range(1, 400):
        factors = exactnum._factorize(n)
        assert math.prod(p ** k for p, k in factors) == n
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        assert all(is_prime(p) and k >= 1 for p, k in factors)
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_cyclotomic_polynomials():
    as_ints = lambda n: [int(c) for c in cyclotomic_polynomial(n)]
    assert as_ints(1) == [-1, 1]
    assert as_ints(2) == [1, 1]
    assert as_ints(3) == [1, 1, 1]
    assert as_ints(4) == [1, 0, 1]
    assert as_ints(7) == [1, 1, 1, 1, 1, 1, 1]
    assert as_ints(12) == [1, 0, -1, 0, 1]


def test_split_prime_root_has_exact_order():
    for order in range(1, 121):
        p, w = split_prime(order)
        assert p > 2**31 and p % order == 1 % order and is_prime(p)
        assert not any(is_prime(r) for r in range(p - order, 2**31, -order))
        assert pow(w, order, p) == 1
        assert all(pow(w, d, p) != 1 for d in range(1, order) if order % d == 0)
        # w is a root of Phi_order mod p, so zeta |-> w is a ring map
        assert sum(int(c) * pow(w, i, p) for i, c in enumerate(cyclotomic_polynomial(order))) % p == 0


def image_mod_p(a: Cyc, p: int, w: int) -> int:
    """a under zeta |-> w in F_p, coordinate by coordinate from the Fractions."""
    return sum(c.numerator * pow(c.denominator, -1, p) * pow(w, i, p) for i, c in enumerate(a.coords)) % p


@pytest.mark.parametrize("order", [1, 3, 4, 7, 12, 60])
def test_residues_match_an_independent_evaluation(order):
    rng = random.Random(7000 + order)
    p, w = split_prime(order)
    phi = euler_phi(order)

    def draw():
        return Cyc(order, [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 10, 49)))
                           for _ in range(phi)])

    special = [Cyc.zero(order), Cyc.one(order), Cyc.zeta(order),
               Cyc.from_rational(p, order), Cyc.from_rational(Fraction(1, p - 1), order)]
    elements = [draw() for _ in range(40)] + special
    images = residues(elements)
    assert images == [image_mod_p(a, p, w) for a in elements]
    assert images[40:] == [0, 1, w, 0, p - 1]
    # a ring map: sums and products go to sums and products mod p
    for a, b in zip(elements[:20], elements[20:40]):
        ra, rb = residues([a, b])
        assert residues([a + b, a * b, -a]) == [(ra + rb) % p, ra * rb % p, -ra % p]
    assert residues([]) == []


@pytest.mark.parametrize("order", [1, 3, 4, 7, 12, 60])
def test_residues_are_none_exactly_when_p_divides_a_denominator(order):
    rng = random.Random(7100 + order)
    p, w = split_prime(order)
    phi = euler_phi(order)
    for _ in range(30):
        coords = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 5))) for _ in range(phi)]
        if rng.random() < 0.5:
            coords[rng.randrange(phi)] = Fraction(rng.randint(1, 5), rng.choice((p, 3 * p, p * p)))
        a = Cyc(order, coords)
        divisible = any(c.denominator % p == 0 for c in a.coords)
        batch = [Cyc.one(order), a, Cyc.zeta(order)]
        assert (residues(batch) is None) == divisible
        if not divisible:
            assert residues(batch)[1] == image_mod_p(a, p, w)
    # p in a numerator is a zero residue, not a missing one
    assert residues([Cyc.from_rational(Fraction(p, 7), order)]) == [0]
    if order > 2:
        with pytest.raises(OrderMismatch):
            residues([Cyc.one(order), Cyc.one(1)])


def test_is_integral_is_a_denominator_of_one():
    assert Cyc(12, [1, -2, 0, 5]).is_integral() and Cyc.zero(7).is_integral()
    assert not Cyc(12, [1, Fraction(1, 2), 0, 0]).is_integral()
    assert not Cyc.from_rational(Fraction(3, 5), 4).is_integral()
    # 1/(1 - zeta_3) is not an algebraic integer: its norm is 1/3
    assert not (Cyc.one(3) / (1 - Cyc.zeta(3))).is_integral()


def test_basic_identities():
    i = Cyc.zeta(4)
    assert (1 + i) * (1 - i) == 2
    w = Cyc.zeta(3)
    assert (1 + w + w * w).is_zero()
    assert 1 / (1 + i) == (1 - i) / 2


def test_zeta_power_wraps():
    z = Cyc.zeta(7)
    assert z ** 7 == 1
    assert z ** -1 == z ** 6
    assert Cyc.zeta(7, 9) == z ** 2


def test_order_mismatch_is_an_error():
    with pytest.raises(OrderMismatch):
        Cyc.zeta(3) + Cyc.zeta(4)


def test_inverse_of_one_multiplies_nothing(monkeypatch):
    calls = []
    original = exactnum._mul_ints

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exactnum, "_mul_ints", spy)
    one = Cyc.one(24)
    assert one.inverse() is one
    assert calls == []
    assert Cyc.zeta(24).inverse() * Cyc.zeta(24) == one
    assert calls


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Cyc.one(5) / Cyc.zero(5)


def test_galois_is_field_automorphism():
    rng = random.Random(101)
    for n in (3, 4, 5, 7, 8, 12):
        units = [k for k in range(1, n) if math.gcd(k, n) == 1]
        for _ in range(40):
            a = Cyc(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(n))])
            b = Cyc(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(n))])
            k = rng.choice(units)
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
            assert Cyc.zeta(n).galois(k) == Cyc.zeta(n, k)


def test_galois_composition_and_conjugation_involution():
    n = 12
    rng = random.Random(7)
    units = [k for k in range(1, n) if math.gcd(k, n) == 1]
    for _ in range(50):
        a = Cyc(n, [rng.randint(-9, 9) for _ in range(euler_phi(n))])
        k1, k2 = rng.choice(units), rng.choice(units)
        assert a.galois(k1).galois(k2) == a.galois((k1 * k2) % n)
        assert a.conjugate().conjugate() == a


def test_invalid_galois_exponent():
    with pytest.raises(InvalidExponent):
        Cyc.zeta(6).galois(2)
    with pytest.raises(InvalidExponent):
        Cyc.zeta(10).galois(5)


def test_lift_to_tower():
    w = Cyc.zeta(3)
    lifted = w.lift_to(12)
    assert lifted == Cyc.zeta(12, 4)
    assert (lifted ** 3).is_one()
    with pytest.raises(NotASubfield):
        w.lift_to(8)
    # lifting respects arithmetic
    i = Cyc.zeta(4)
    assert ((1 + i) * (2 - i)).lift_to(12) == (1 + i.lift_to(12)) * (2 - i.lift_to(12))


def test_as_element_embeds_scalars_and_lifts_subfield_elements():
    assert as_element(3, 12) == Cyc.from_rational(3, 12)
    assert as_element(Fraction(-2, 7), 5) == Cyc.from_rational(Fraction(-2, 7), 5)
    assert as_element(Cyc.zeta(3), 12) == Cyc.zeta(12, 4)
    i = Cyc.zeta(4)
    assert as_element(i, 4) is i
    with pytest.raises(NotASubfield):
        as_element(Cyc.zeta(3), 8)


def test_galois_exponents_are_the_units():
    assert exactnum.galois_exponents(1) == exactnum.galois_exponents(2) == [1]
    assert exactnum.galois_exponents(12) == [1, 5, 7, 11]
    for n in range(1, 40):
        assert len(exactnum.galois_exponents(n)) == euler_phi(n)


def test_lift_to_common_order():
    a, b = Cyc.zeta(3), Cyc.zeta(4)
    la, lb = (e.lift_to(common_order(a.order, b.order)) for e in (a, b))
    assert la.order == lb.order == 12
    assert common_order(3, 4, 6) == 12
    prod = la * lb
    assert prod == Cyc.zeta(12, 7)


def test_sqrt3_lives_in_order_12():
    z = Cyc.zeta(12)
    sqrt3 = z + z ** -1
    assert sqrt3 * sqrt3 == 3
    assert abs(to_complex(sqrt3) - math.sqrt(3)) < 1e-12


def test_abs2_detects_equal_modulus():
    i = Cyc.zeta(4)
    a = 2 + i
    b = 1 - 2 * i
    assert a.abs2() == b.abs2() == 5
    assert a.abs2() != (1 + i).abs2()


def test_field_axioms_randomized():
    rng = random.Random(12345)
    for n in (4, 5, 12):
        phi = euler_phi(n)
        rand = lambda: Cyc(n, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(phi)])
        for _ in range(60):
            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if not a.is_zero():
                assert (a * a.inverse()).is_one()
                assert (b / a) * a == b


def test_complex_embedding_oracle():
    rng = random.Random(424242)
    for n in (3, 4, 7, 8, 12):
        phi = euler_phi(n)
        rand = lambda: Cyc(n, [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(phi)])
        for _ in range(40):
            a, b = rand(), rand()
            za, zb = to_complex(a), to_complex(b)
            for exact, approx in (
                (a + b, za + zb),
                (a * b, za * zb),
                (a - b, za - zb),
                (a.conjugate(), za.conjugate()),
            ):
                scale = max(1.0, abs(approx))
                assert abs(to_complex(exact) - approx) <= 1e-9 * scale
            if abs(zb) > 1e-6:
                scale = max(1.0, abs(za / zb))
                assert abs(to_complex(a / b) - za / zb) <= 1e-8 * scale


def test_serialization_round_trip():
    a = Cyc(12, [Fraction(1, 2), -3, Fraction(7, 5), 0])
    obj = serialize.element_document(a)
    assert obj == {"order": 12, "coords": ["1/2", "-3", "7/5", "0"]}
    assert serialize.read_element(obj["order"], obj["coords"]) == a
    with pytest.raises(SchemaError):
        serialize.read_element(12, ["1", "2"])
    with pytest.raises(SchemaError):
        serialize.check_order(0)
    with pytest.raises(SchemaError):
        serialize.read_element(4, ["1", "x"])


def test_coordinates_are_exact_strings_or_ints():
    assert serialize.read_element(4, [3, "-1/10"]) == Cyc(4, [3, Fraction(-1, 10)])
    assert serialize.read_element(4, ["0.25", "0"]) == Cyc(4, [Fraction(1, 4), 0])
    assert serialize.read_element(4, [".5", "+3/4"]) == Cyc(4, [Fraction(1, 2), Fraction(3, 4)])
    # 0.1 would read as 3602879701896397/36028797018963968 and true as 1;
    # Fraction reads "1_0" as 10 from Python 3.11 on, and Arabic-Indic and
    # fullwidth digits as 1 on every version
    for bad in (0.1, 2.0, True, False, None, [1], "1e3", "2E-1", "1e99999999",
                "1_0", "1_000/3", "\u0661", "\uff11", " 1"):
        with pytest.raises(SchemaError):
            serialize.read_element(4, [bad, "0"])


def test_hash_and_immutability():
    a = Cyc.zeta(5)
    b = Cyc.zeta(5)
    assert hash(a) == hash(b) and a == b
    with pytest.raises(AttributeError):
        a.order = 7


def test_minimal_field_edge_orders():
    one = Cyc.zeta(1)
    assert one.is_one()
    minus = Cyc.zeta(2)
    assert minus == -1
    assert minus.conjugate() == minus
    assert one.conjugate() == one


def test_cyclotomic_division_failure_is_typed(monkeypatch):
    # with mu(6) = mu(3) = mu(2) = -1 the product for Phi_6 divides x^6 - 1
    # by x^3 - 1 and then x^3 + 1 by x^2 - 1, which leaves a remainder
    cyclotomic_polynomial.cache_clear()
    monkeypatch.setattr(exactnum, "_mobius", lambda m: 1 if m == 1 else -1)
    with pytest.raises(InternalInconsistency):
        cyclotomic_polynomial(6)


def test_mobius_and_cyclotomic_degrees():
    assert [exactnum._mobius(m) for m in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    for n in (1, 2, 30, 64, 105, 210, 1024):
        poly = cyclotomic_polynomial(n)
        assert len(poly) == euler_phi(n) + 1 and poly[-1] == 1
        assert all(c.denominator == 1 for c in poly)


# differential tests against a Fraction reference ------------------------------

DIFF_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 24)
DIFF = settings(max_examples=60, deadline=None)

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def vectors(draw, order):
    return draw(st.lists(rationals, min_size=euler_phi(order), max_size=euler_phi(order)))


@st.composite
def order_and_vectors(draw, count):
    order = draw(st.sampled_from(DIFF_ORDERS))
    return (order,) + tuple(draw(vectors(order)) for _ in range(count))


def ref_reduce(poly, order):
    """Coordinates of a polynomial in Q[x] modulo Phi_order, by long division
    by the monic Phi_order."""
    modulus, phi = cyclotomic_polynomial(order), euler_phi(order)
    rem = list(poly) + [Fraction(0)] * phi
    for i in range(len(rem) - 1, phi - 1, -1):
        for j, m in enumerate(modulus):
            rem[i - phi + j] -= rem[i] * m
    return tuple(rem[:phi])


def ref_mul(a, b, order):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(prod, order)


def ref_substitute(a, step, order):
    """zeta^i |-> zeta_order^(i * step), reduced."""
    poly = [Fraction(0)] * order
    for i, x in enumerate(a):
        poly[(i * step) % order] += x
    return ref_reduce(poly, order)


def assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert len(x.num) == euler_phi(x.order)
    if not any(x.num):
        assert x.den == 1


@DIFF
@given(order_and_vectors(2))
def test_ring_operations_match_reference(data):
    order, a, b = data
    x, y = Cyc(order, a), Cyc(order, b)
    for result, expected in (
        (x * y, ref_mul(a, b, order)),
        (x + y, tuple(p + q for p, q in zip(a, b))),
        (x - y, tuple(p - q for p, q in zip(a, b))),
        (-x, tuple(-p for p in a)),
    ):
        assert_canonical(result)
        assert result.coords == expected


@DIFF
@given(order_and_vectors(1), st.integers(-50, 50))
def test_galois_matches_reference(data, exponent):
    order, a = data
    assume(math.gcd(exponent, order) == 1)
    image = Cyc(order, a).galois(exponent)
    assert_canonical(image)
    assert image.coords == ref_substitute(a, exponent % order, order)


@DIFF
@given(order_and_vectors(1), st.sampled_from((1, 2, 3, 4, 6)))
def test_lift_matches_reference(data, factor):
    order, a = data
    target = order * factor
    lifted = Cyc(order, a).lift_to(target)
    assert_canonical(lifted)
    assert lifted.coords == ref_substitute(a, factor, target)


@DIFF
@given(order_and_vectors(1))
def test_inverse_and_canonical_form(data):
    order, a = data
    x = Cyc(order, a)
    assert_canonical(x)
    assert x.coords == tuple(Fraction(c) for c in a)
    assert serialize.read_element(order, serialize.element_document(x)["coords"]) == x
    if x.is_zero():
        assert x.den == 1
        return
    inv = x.inverse()
    assert_canonical(inv)
    assert x * inv == 1
    assert (x * inv).is_one()


@DIFF
@given(order_and_vectors(2), st.integers(1, 9))
def test_equal_values_from_different_routes(data, scale):
    order, a, b = data
    x, y = Cyc(order, a), Cyc(order, b)
    pairs = [
        (x * y, y * x),
        ((x + y) - y, x),
        (x * scale / scale, x),
        (Cyc(order, [c * scale for c in a]) / scale, x),
        (Cyc(order, [str(c) for c in a]), x),
        (x.conjugate().conjugate(), x),
    ]
    assert (x * 2 == x) == x.is_zero()
    assert (x == y) == (a == b)
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)
        assert (left.num, left.den) == (right.num, right.den)


small_entries = st.sampled_from((-2, -1, 0, 1, 2, Fraction(1, 2)))


@DIFF
@given(st.sampled_from((1, 3, 4, 8)), st.data())
def test_projmap_equality_agrees_with_key(order, data):
    def entry():
        coords = data.draw(st.lists(small_entries, min_size=euler_phi(order),
                                    max_size=euler_phi(order)))
        return Cyc(order, coords)

    rows = [[entry() for _ in range(3)] for _ in range(3)]
    other = [[entry() for _ in range(3)] for _ in range(3)] if data.draw(st.booleans()) else rows
    scale = entry()
    assume(not scale.is_zero())
    try:
        p = ProjMap(order, rows)
        q = ProjMap(order, [[c * scale for c in row] for row in other])
    except ValueError:
        assume(False)
    assert (p == q) == (p.key() == q.key())
    if p == q:
        assert hash(p) == hash(q)
    assert (p == ProjMap(order, rows)) and hash(p) == hash(ProjMap(order, rows))
