"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Run with -v to get one pass/fail line per criterion.  The numerical
cross-checks use their stated tolerances (1e-9 relative for the complex
embedding, 1e-6 separation for root and eigenvalue clustering, 1e-8 relative
for a point on a curve); everything else is exact.
"""

import cmath
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest

from oddsig import serialize
from oddsig.descent import (
    FamilyTriple,
    bielliptic_quartic,
    family_curve,
    family_invariants,
    family_moduli_field,
    family_rational_descent,
    family_real_definability,
    weil_descent_order2,
    CYCLE,
)
from oddsig.errors import ImpossibleCase, NotAnIsomorphism
from oddsig.exactnum import CyclotomicElement, common_order
from oddsig.matgroup import closure, element_order
from oddsig.plane import PlaneCurve, ProjMap, is_automorphism, is_smooth
from oddsig.polyring import SparsePoly
from oddsig.ramify import (
    Signature,
    fixed_point_count,
    odd_signature_verdict,
    signature,
)
from oddsig.superell import qgonal_real_descent, rotation_map
from oracles import (PLANE_QUARTIC_STRATA, defect_twist_map, distinct_root_count,
                     exceptional_qgonal_rows, power, product, qgonal_identity, to_complex)

numpy = pytest.importorskip("numpy")


# fixture builders -----------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(stem):
    return serialize.parse_input((FIXTURES / f"{stem}.json").read_text(encoding="utf-8")).value


def P(order, nvars, items):
    return SparsePoly.build(order, nvars, items)


def fermat_curve(d):
    return PlaneCurve(P(d, 3, [(1, (d, 0, 0)), (1, (0, d, 0)), (1, (0, 0, d))]))


def fermat_generators(d):
    z = CyclotomicElement.zeta(d, 1)
    return [
        ProjMap.diagonal(d, z, 1, 1),
        ProjMap.diagonal(d, 1, z, 1),
        ProjMap.permutation(d, [2, 0, 1]),
        ProjMap.permutation(d, [1, 0, 2]),
    ]


def klein_quartic():
    return PlaneCurve(P(7, 3, [(1, (3, 0, 1)), (1, (1, 3, 0)), (1, (0, 1, 3))]))


def klein_generators():
    z = [CyclotomicElement.zeta(7, j) for j in range(7)]
    return [
        ProjMap.diagonal(7, z[1], z[2], z[4]),
        ProjMap.permutation(7, [2, 0, 1]),
        ProjMap(7, [
            [z[1] - z[6], z[4] - z[3], z[2] - z[5]],
            [z[4] - z[3], z[2] - z[5], z[1] - z[6]],
            [z[2] - z[5], z[1] - z[6], z[4] - z[3]],
        ]),
    ]


def quartic_family(a, b, c, order=1):
    items = [(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)),
             (a, (2, 2, 0)), (b, (2, 0, 2)), (c, (0, 2, 2))]
    return PlaneCurve(P(order, 3, [t for t in items if t[0] != 0]))


def sign_generators(order=1):
    return [ProjMap.diagonal(order, -1, 1, 1), ProjMap.diagonal(order, 1, -1, 1)]


@lru_cache(maxsize=None)
def group_fixtures():
    """(name, curve, closed group, full signature) for every group fixture."""
    z3 = CyclotomicElement.zeta(3, 1)
    z6 = CyclotomicElement.zeta(6, 1)
    z9 = CyclotomicElement.zeta(9, 1)
    z13 = CyclotomicElement.zeta(13, 1)
    i = CyclotomicElement.zeta(4, 1)
    raw = [
        ("fermat", fermat_curve(4), fermat_generators(4), Signature(0, (2, 3, 8))),
        ("klein", klein_quartic(), klein_generators(), Signature(0, (2, 3, 7))),
        ("signs", quartic_family(1, 3, 5), sign_generators(),
         Signature(0, (2, 2, 2, 2, 2, 2))),
        ("cyclic9",
         PlaneCurve(P(9, 3, [(1, (3, 1, 0)), (1, (0, 3, 1)), (1, (0, 0, 4))])),
         [ProjMap.diagonal(9, z9 ** 2, z9 ** 3, 1)], Signature(0, (3, 9, 9))),
        ("cyclic3",
         PlaneCurve(P(3, 3, [(1, (0, 1, 3)), (1, (4, 0, 0)), (2, (1, 3, 0)),
                             (1, (0, 4, 0))])),
         [ProjMap.diagonal(3, 1, 1, z3)], Signature(0, (3, 3, 3, 3, 3))),
        ("cyclic6",
         PlaneCurve(P(6, 3, [(1, (3, 1, 0)), (1, (0, 4, 0)), (1, (0, 2, 2)),
                             (1, (0, 0, 4))])),
         [ProjMap.diagonal(6, z6, -1, 1)], Signature(0, (2, 3, 3, 6))),
        ("sym3",
         PlaneCurve(P(3, 3, [(1, (0, 0, 4)), (1, (1, 1, 2)), (1, (3, 0, 1)),
                             (1, (0, 3, 1)), (2, (2, 2, 0))])),
         [ProjMap.diagonal(3, z3, z3 ** 2, 1), ProjMap.permutation(3, [1, 0, 2])],
         Signature(0, (2, 2, 2, 2, 3))),
        ("sym4", quartic_family(1, 1, 1),
         [ProjMap.permutation(1, [1, 0, 2]), ProjMap.permutation(1, [2, 0, 1]),
          ProjMap.diagonal(1, -1, 1, 1)], Signature(0, (2, 2, 2, 3))),
        ("dihedral8", quartic_family(3, 1, 1),
         [ProjMap.permutation(1, [1, 0, 2]), ProjMap.diagonal(1, -1, 1, 1)],
         Signature(0, (2, 2, 2, 2, 2))),
        ("order16", quartic_family(0, 0, 1, order=4),
         [ProjMap.diagonal(4, i, 1, 1), ProjMap.diagonal(4, 1, -1, 1),
          ProjMap.permutation(4, [0, 2, 1])], Signature(0, (2, 2, 2, 4))),
        # degrees 5 to 7, where the trace formula needs h_{d-3} beyond the trace
        ("fermat5", fermat_curve(5), fermat_generators(5), Signature(0, (2, 3, 10))),
        ("fermat6", fermat_curve(6), fermat_generators(6), Signature(0, (2, 3, 12))),
        ("fermat7", fermat_curve(7), fermat_generators(7), Signature(0, (2, 3, 14))),
        ("klein5",
         PlaneCurve(P(13, 3, [(1, (4, 1, 0)), (1, (0, 4, 1)), (1, (1, 0, 4))])),
         [ProjMap.diagonal(13, z13, z13 ** 9, z13 ** 3), ProjMap.permutation(13, [1, 2, 0])],
         Signature(0, (3, 3, 13))),
    ]
    return tuple((name, curve, closure(gens), sig) for name, curve, gens, sig in raw)


@lru_cache(maxsize=None)
def fixed_point_table(name):
    """Cached |Fix(g)| for every nontrivial g in the named fixture group."""
    for fname, curve, group, _ in group_fixtures():
        if fname == name:
            return {g.key(): fixed_point_count(curve, g)
                    for g in group if not g.is_identity()}
    raise KeyError(name)


# criteria -------------------------------------------------------------------

def test_criterion_01_fermat_quartic_symmetries():
    """Closure of the four standard generators has order 96 and the quotient
    signature is (0; 2, 3, 8)."""
    curve = fermat_curve(4)
    gens = fermat_generators(4)
    for g in gens:
        ok, _ = is_automorphism(curve, g)
        assert ok
    group = closure(gens)
    assert len(group) == 96
    sig = signature(curve, gens)
    assert sig == Signature(0, (2, 3, 8))
    assert odd_signature_verdict(sig) == "ODD"


def test_criterion_02_klein_quartic_symmetries():
    """The diagonal, cycle, and order-2 generators close to a group of order
    168 with quotient signature (0; 2, 3, 7)."""
    curve = klein_quartic()
    gens = klein_generators()
    for g in gens:
        ok, _ = is_automorphism(curve, g)
        assert ok
    # the dense generator really is an involution in the projective group
    assert element_order(gens[2])[0] == 2
    group = closure(gens)
    assert len(group) == 168
    sig = signature(curve, gens)
    assert sig == Signature(0, (2, 3, 7))
    assert odd_signature_verdict(sig) == "ODD"


def test_criterion_03_bielliptic_member_is_inconclusive():
    """X_{1,3,5} is smooth, its sign group has order 4, and the quotient
    signature (0; 2,2,2,2,2,2) leaves the descent question open."""
    curve = quartic_family(1, 3, 5)
    assert is_smooth(curve)
    gens = sign_generators()
    for g in gens:
        ok, _ = is_automorphism(curve, g)
        assert ok
    group = closure(gens)
    assert len(group) == 4
    sig = signature(curve, group)
    assert sig == Signature(0, (2, 2, 2, 2, 2, 2))
    assert odd_signature_verdict(sig) == "INCONCLUSIVE"


def test_criterion_04_order2_descent_obstruction():
    """The genus-3 curve y^4 = quadratic * quartic with a1 = 1, a3 = 2(i-1)
    carries the involution nu = (x : -y : z); descent through mu = (-z : iy : x)
    is obstructed with both cocycle defects equal to nu.

    The quadratic coefficient must satisfy conj(a2 a3) = a2 a3 for mu to hit
    the conjugate curve, which forces a2 = 1 + i here; the sign-flipped value
    1 - i makes mu fail to be an isomorphism at all, and we pin that down too.
    """
    i = CyclotomicElement.zeta(4, 1)
    nu = ProjMap.diagonal(4, 1, -1, 1)
    mu = ProjMap(4, [[0, 0, -1], [0, i, 0], [1, 0, 0]])
    curve = bielliptic_quartic(1, 1 + i, 2 * i - 2, 4)
    ok, lam = is_automorphism(curve, nu)
    assert ok and lam == 1
    assert signature(curve, closure([nu])) == Signature(1, (2, 2, 2, 2))
    verdict = weil_descent_order2(curve, mu, [nu])
    assert verdict.status == "OBSTRUCTED"
    assert verdict.witness is None
    assert len(verdict.defects) == 2
    assert all(defect == nu for _, defect in verdict.defects)
    # documented deviation: with a2 = 1 - i the stated mu is not an
    # isomorphism onto the conjugate curve, so the example only works
    # with the sign corrected
    bad = bielliptic_quartic(1, 1 - i, 2 * i - 2, 4)
    with pytest.raises(NotAnIsomorphism):
        weil_descent_order2(bad, mu, [nu])


def test_criterion_05_odd_signature_sweep():
    """Verdict sweep over the genus-3 stratum catalog, computed from the 12
    curve and generator fixture pairs, and the non-normal cover catalog: ODD
    everywhere except the two all-even strata."""
    assert len(PLANE_QUARTIC_STRATA) == 12
    odd_groups = {"PSL(2,7)", "S3", "D4", "S4", "C4^2 : S3", "C4 (o) (C2)^2",
                  "C4 (o) A4", "C6", "C9", "C3"}
    verdicts = {}
    for label, stem, size, published in PLANE_QUARTIC_STRATA:
        gens = fixture(f"{stem}_gens")
        sig = signature(fixture(stem), gens)
        assert (len(closure(gens)), sig) == (size, published), label
        verdicts[label] = odd_signature_verdict(sig)
    assert {label for label, v in verdicts.items() if v == "ODD"} == odd_groups
    assert {label for label, v in verdicts.items() if v == "INCONCLUSIVE"} == {"C2 x C2", "C2"}

    wanted = {"GL(2,3)", "SL(2,3)/CD", "S5", "PSL(2,7)",
              "(C5 x C5) : S3", "(C3 x C3) : V4", "(C3 x C3) : D4"}
    rows = [r for r in exceptional_qgonal_rows(5) if r["group"] in wanted]
    assert {r["group"] for r in rows} == wanted and len(rows) == 7
    expected_rows = {
        "GL(2,3)": (48, Signature(0, (2, 3, 8))),
        "SL(2,3)/CD": (48, Signature(0, (2, 3, 12))),
        "S5": (120, Signature(0, (2, 4, 5))),
        "PSL(2,7)": (168, Signature(0, (2, 3, 7))),
        "(C5 x C5) : S3": (150, Signature(0, (2, 3, 10))),
        "(C3 x C3) : V4": (36, Signature(0, (2, 2, 2, 3))),
        "(C3 x C3) : D4": (72, Signature(0, (2, 4, 6))),
    }
    for row in rows:
        size, sig = expected_rows[row["group"]]
        assert row["group_order"] == size and row["signature"] == sig
        assert odd_signature_verdict(row["signature"]) == "ODD", row["group"]


def closed_form_defect(twist, rotation, k):
    """twist^(2k+1) rotation^(2k+1), the cocycle defect at rotation^k."""
    one = qgonal_identity(twist.order)
    return power(twist, 2 * k + 1, one) @ power(rotation, 2 * k + 1, one)


def test_criterion_06_qgonal_real_descent_parity():
    """For the y^q = x^m (x^n - 1)(x^n + 2) family with q | mn, real descent
    succeeds exactly when n is odd, and every cocycle defect matches the
    closed form twist^(2k+1) rotation^(2k+1)."""
    even = qgonal_real_descent(3, 3, 2)
    assert even["verdict"] == "OBSTRUCTED"
    assert even["witness"] is None
    odd = qgonal_real_descent(3, 3, 3)
    assert odd["verdict"] == "DEFINABLE"
    assert odd["method"] == "weil-cocycle"
    assert odd["witness"] is not None and odd["witness"]["k"] == 1
    phi = odd["witness"]["map"]
    assert (phi.conjugate() @ phi).is_identity()
    for q, m, n, report in [(3, 3, 2, even), (3, 3, 3, odd)]:
        assert len(report["defects"]) == q * n
        seen_k = set()
        for entry in report["defects"]:
            k = entry["k"]
            seen_k.add(k)
            expected = closed_form_defect(defect_twist_map(q, m, n), rotation_map(n), k)
            assert entry["defect"] == expected.lift_to(entry["defect"].order)
            assert entry["is_identity"] == ((2 * k + 1) % n == 0)
        assert seen_k == set(range(n))


def test_criterion_06_long_family_members():
    """The two members once too long to run, (5, 5, 3) and (7, 7, 7), have
    q | mn and odd n, so each descends, and every defect has the closed form."""
    for q, m, n in [(5, 5, 3), (7, 7, 7)]:
        report = qgonal_real_descent(q, m, n)
        assert report["verdict"] == "DEFINABLE" and report["method"] == "weil-cocycle"
        assert len(report["defects"]) == q * n
        twist, rotation = defect_twist_map(q, m, n), rotation_map(n)
        for entry in report["defects"]:
            k = entry["k"]
            expected = closed_form_defect(twist, rotation, k)
            assert entry["defect"] == expected.lift_to(entry["defect"].order)
            assert entry["is_identity"] == ((2 * k + 1) % n == 0)


def test_criterion_07_family_real_descent_cases():
    """The three realizable conjugation matches for X_{a,b,c} each descend
    with the expected explicit witness; the pure-cycle match is impossible."""
    i = CyclotomicElement.zeta(4, 1)
    cases = [
        (FamilyTriple(1 + 2 * i, 1 - 2 * i, 3), ProjMap.permutation(4, [0, 2, 1])),
        (FamilyTriple(i, 2 * i, 3), ProjMap.diagonal(4, i, 1, 1)),
        (FamilyTriple(3, i, 2 * i), ProjMap.diagonal(4, 1, 1, i)),
    ]
    for triple, expected in cases:
        verdict = family_real_definability(triple)
        assert verdict.status == "DEFINABLE"
        assert verdict.witness == expected
        defect = verdict.witness.conjugate() @ verdict.witness
        assert defect.is_identity()
        ok, _ = is_automorphism(family_curve(triple.lift_to(4)),
                                verdict.witness)
        assert not ok or triple.conjugate() == triple  # the witness moves the curve
    with pytest.raises(ImpossibleCase):
        family_real_definability(FamilyTriple(1 + 2 * i, 1 - 2 * i, 3),
                                 case=CYCLE)


def test_criterion_08_rational_moduli_descent():
    """For a = 1 + 2i, b = conj(a), c = 3 the invariants are the rationals
    (15, 3, 67) and the cocycle f_sigma = (x : z : y) descends the curve to
    the rationals with f_sigma squared the identity."""
    i = CyclotomicElement.zeta(4, 1)
    triple = FamilyTriple(1 + 2 * i, 1 - 2 * i, 3)
    j1, j2, j3, _, _ = family_invariants(triple)
    assert (j1.as_rational(), j2.as_rational(), j3.as_rational()) == (15, 3, 67)
    assert family_moduli_field(triple)["field"] == "Q"
    verdict = family_rational_descent(triple)
    assert verdict.status == "DEFINABLE"
    assert verdict.field == "Q"
    swap_yz = ProjMap.permutation(4, [0, 2, 1])
    assert verdict.witness == swap_yz
    assert (verdict.witness @ verdict.witness).is_identity()
    exponents = {exponent for exponent, _ in verdict.assignment}
    assert exponents == {1, 3}
    table = dict(verdict.assignment)
    assert table[3] == swap_yz and table[1].is_identity()


# property suites ------------------------------------------------------------

ORDER_POOL = (1, 2, 3, 4, 5, 6, 8, 9, 12)


def random_element(rng, order):
    degree = len(CyclotomicElement.zero(order).coords)
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(degree)]
    return CyclotomicElement(order, coords)


def test_criterion_09a_field_axioms():
    rng = random.Random(1201)
    for _ in range(1000):
        order = rng.choice(ORDER_POOL)
        a = random_element(rng, order)
        b = random_element(rng, order)
        c = random_element(rng, order)
        zero = CyclotomicElement.zero(order)
        one = CyclotomicElement.one(order)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a - a == zero
        assert a * 0 == zero and a * 1 == a
        if not b.is_zero():
            assert b * b.inverse() == one
            assert (a / b) * b == a
        double = common_order(order, 2 * order)
        assert (a + b).lift_to(double) == a.lift_to(double) + b.lift_to(double)
        assert (a * b).lift_to(double) == a.lift_to(double) * b.lift_to(double)


def test_criterion_09b_galois_laws():
    rng = random.Random(1301)
    for _ in range(1000):
        order = rng.choice(ORDER_POOL)
        a = random_element(rng, order)
        b = random_element(rng, order)
        units = [k for k in range(max(order, 2)) if gcd(k, order) == 1]
        k = rng.choice(units)
        l = rng.choice(units)
        assert a.galois(1) == a
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)
        assert a.galois(k).galois(l) == a.galois((k * l) % order)
        assert a.conjugate() == a.galois(-1)
        if a.is_rational():
            assert a.galois(k) == a


def cyclic_branch_data(size, exact_counts):
    """Branch indices and ramification total for a cyclic quotient, from the
    exact stabilizer-order counts {d: points with stabilizer of order d}."""
    indices = []
    total = 0
    for d, count in sorted(exact_counts.items()):
        if d == 1 or count == 0:
            continue
        orbit = size // d
        assert count % orbit == 0, "stabilizer counts must fill whole orbits"
        indices.extend([d] * (count // orbit))
        total += orbit * (d - 1) * (count // orbit)
    return tuple(sorted(indices)), total


def test_criterion_09c_riemann_hurwitz_ledger():
    """Fixed points of every nontrivial symmetry reconcile with the branch
    data of the quotient, for all group fixtures and for 1000 random cyclic
    subgroups."""
    for name, curve, group, expected in group_fixtures():
        table = fixed_point_table(name)
        sig = signature(curve, [group[i] for i in group.gens])
        assert sig == expected
        ledger = sum((len(group) // c) * (c - 1) for c in sig.indices)
        assert sum(table.values()) == ledger, name

    rng = random.Random(1401)
    fixtures = group_fixtures()
    for case in range(1000):
        name, curve, group, _ = fixtures[rng.randrange(len(fixtures))]
        table = fixed_point_table(name)
        elements = [g for g in group if not g.is_identity()]
        g = elements[rng.randrange(len(elements))]
        m, _ = element_order(g)
        powers = {}
        current = g
        for k in range(1, m):
            powers[k] = current
            current = current @ g
        assert current.is_identity()
        # counts depend only on the cyclic subgroup generated by the power
        fix_by_order = {}
        for k, h in powers.items():
            d = m // gcd(k, m)
            count = table[h.key()]
            assert fix_by_order.setdefault(d, count) == count
        exact = {}
        for d in sorted(fix_by_order, reverse=True):
            exact[d] = fix_by_order[d] - sum(v for e, v in exact.items()
                                             if e % d == 0 and e > d)
            assert exact[d] >= 0
        indices, total = cyclic_branch_data(m, exact)
        assert sum(table[h.key()] for h in powers.values()) == \
            sum(count * (d - 1) for d, count in exact.items())
        rh = 2 * curve.genus() - 2 - total
        quotient_doubled = rh // m + 2
        assert rh % m == 0 and quotient_doubled % 2 == 0
        assert quotient_doubled >= 0
        if case % 10 == 0:
            # g alone: listing all m powers would trip closure's generator-count bound
            assert signature(curve, [g]) == Signature(quotient_doubled // 2, indices)


def test_criterion_09d_complex_embedding_oracle():
    """Exact arithmetic agrees with the floating-point embedding to 1e-9
    relative error on bounded-height samples."""
    rng = random.Random(1501)

    def close(exact, approx):
        scale = max(1.0, abs(exact), abs(approx))
        assert abs(exact - approx) <= 1e-9 * scale

    for _ in range(1000):
        order = rng.choice(ORDER_POOL)
        a = random_element(rng, order)
        b = random_element(rng, order)
        za, zb = to_complex(a), to_complex(b)
        close(to_complex(a + b), za + zb)
        close(to_complex(a - b), za - zb)
        close(to_complex(a * b), za * zb)
        close(to_complex(a.conjugate()), za.conjugate())
        if not b.is_zero() and abs(zb) > 1e-3:
            close(to_complex(a / b), za / zb)
        k = rng.randrange(order)
        close(to_complex(CyclotomicElement.zeta(order, k)),
              cmath.exp(2j * cmath.pi * k / order))
        if a.is_rational():
            close(to_complex(a), complex(Fraction(a.as_rational())))


# brute-force oracles --------------------------------------------------------

def test_criterion_10a_multiplication_tables():
    """Every fixture group of order at most 24 is closed, cancellative, and
    has identity and inverses, checked on the full multiplication table."""
    checked = 0
    for name, _, group, _ in group_fixtures():
        if len(group) > 24:
            continue
        checked += 1
        elements = sorted(group, key=lambda g: g.key())
        keys = {g.key() for g in elements}
        assert sum(1 for g in elements if g.is_identity()) == 1
        for a in elements:
            row = {(a @ b).key() for b in elements}
            col = {(b @ a).key() for b in elements}
            assert row == keys and col == keys
            assert any((a @ b).is_identity() for b in elements)
    assert checked >= 6


def random_quartic_form(rng):
    """Random binary quartic: either a product of small linear factors with
    projective multiplicity at most 2, or a dense random draw.  Returns the
    form and its exact distinct projective root count (None for dense)."""
    if rng.random() < 0.7:
        while True:
            factors = []
            for _ in range(4):
                a, b = 0, 0
                while a == 0 and b == 0:
                    a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                factors.append((a, b))
            classes = {}
            for a, b in factors:
                d = gcd(a, b)
                rep = (a // d, b // d)
                if rep[0] < 0 or (rep[0] == 0 and rep[1] < 0):
                    rep = (-rep[0], -rep[1])
                classes[rep] = classes.get(rep, 0) + 1
            # clustering at 1e-6 cannot resolve roots of multiplicity > 2
            if max(classes.values()) <= 2:
                break
        form = product(*(SparsePoly.build(1, 2, [(v, e) for v, e in [(a, (1, 0)), (b, (0, 1))] if v])
                         for a, b in factors))
        return form, len(classes)
    while True:
        items = [(rng.randint(-9, 9), (4 - j, j)) for j in range(5)]
        items = [(v, e) for v, e in items if v]
        if items:
            return SparsePoly.build(1, 2, items), None


def clustered_root_count(dense):
    """Distinct projective roots of the binary form sum_k dense[k] X^k Y^(d-k),
    d = len(dense) - 1, with complex coefficients, via numerical clustering
    with 1e-6 separation; Y = 0 is a root when the X^d coefficient is below
    1e-9 of the largest."""
    scale = max(abs(c) for c in dense)
    top = len(dense) - 1
    while top > 0 and abs(dense[top]) <= 1e-9 * scale:
        top -= 1
    at_infinity = 1 if top < len(dense) - 1 else 0
    if top == 0:
        return at_infinity
    roots = list(numpy.roots(list(reversed(dense[:top + 1]))))
    labels = list(range(len(roots)))

    def find(x):
        while labels[x] != x:
            x = labels[x]
        return x

    for p in range(len(roots)):
        for q in range(p + 1, len(roots)):
            if abs(roots[p] - roots[q]) < 1e-6:
                labels[find(p)] = find(q)
    return at_infinity + len({find(p) for p in range(len(roots))})


def test_criterion_10b_root_count_oracle():
    """Exact distinct-root counts match numerical root clustering on 200
    random quartic binary forms."""
    rng = random.Random(1601)
    for _ in range(200):
        form, expected = random_quartic_form(rng)
        count = distinct_root_count(form)
        if expected is not None:
            assert count == expected
        dense = [float(form.terms[(k, 4 - k)].as_rational()) if (k, 4 - k) in form.terms else 0.0
                 for k in range(5)]
        assert count == clustered_root_count(dense)


def geometric_fixed_point_count(curve, g):
    """|Fix(g)| in the complex embedding, counted point by point: cluster the
    eigenvalues of A at 1e-6; a simple eigenvalue gives a fixed point when its
    eigenvector lies on the curve, a double one gives every point where its
    line of eigenvectors meets the curve."""
    a = numpy.array([[to_complex(c) for c in row] for row in g.entries])
    a = a / numpy.abs(a).max()
    terms = [(exps, to_complex(coeff)) for exps, coeff in curve.poly.terms.items()]
    scale = max(abs(c) for _, c in terms)
    clusters = []
    for value in numpy.linalg.eigvals(a):
        near = next((c for c in clusters if abs(c[0] - value) < 1e-6), None)
        if near is None:
            clusters.append([value])
        else:
            near.append(value)
    count = 0
    for cluster in clusters:
        dim = len(cluster)
        assert dim < 3, "a nontrivial map is not scalar"
        _, singular, vh = numpy.linalg.svd(a - numpy.mean(cluster) * numpy.eye(3))
        # finite order: A is diagonalizable, so the eigenspace has the full dimension
        assert (singular[3 - dim:] < 1e-6).all() and (singular[:3 - dim] > 1e-6).all()
        basis = vh[3 - dim:].conj()
        if dim == 1:
            value = sum(c * numpy.prod(basis[0] ** numpy.array(exps)) for exps, c in terms)
            count += abs(value) < 1e-8 * scale
            continue
        # F(s u + t w) as sum_k dense[k] t^k s^(d-k)
        u, w = basis
        dense = numpy.zeros(curve.degree + 1, dtype=complex)
        for exps, c in terms:
            product = numpy.array([c])
            for i, e in enumerate(exps):
                for _ in range(e):
                    product = numpy.polynomial.polynomial.polymul(product, [u[i], w[i]])
            dense[:len(product)] += product
        count += clustered_root_count(list(dense))
    return count


def test_criterion_10c_fixed_point_oracle():
    """The trace formula's fixed-point counts match a geometric count in the
    complex embedding on every nontrivial element of every group fixture."""
    checked = 0
    for name, curve, group, _ in group_fixtures():
        table = fixed_point_table(name)
        for g in group:
            if not g.is_identity():
                assert geometric_fixed_point_count(curve, g) == table[g.key()], (name, g)
                checked += 1
    assert checked == 1025
