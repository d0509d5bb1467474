import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from oddsig import plane, polyring, ramify, serialize
from oddsig.errors import (BoundExceeded, GenusTooSmall, HypothesisViolation,
                           InternalInconsistency, NonIntegerGenus, NotAnAutomorphism, ScalarMap)
from oddsig.exactnum import CyclotomicElement
from oddsig.matgroup import closure, cyclic_subgroup_classes, element_order
from oddsig.plane import PlaneCurve, ProjMap, is_smooth
from oddsig.polyring import SparsePoly
from oddsig.ramify import (Signature, fixed_point_count, is_odd_signature,
                           odd_signature_verdict, signature)
from oracles import PLANE_QUARTIC_STRATA

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def P(order, nvars, items):
    return SparsePoly.build(order, nvars, items)


def fermat_quartic():
    return PlaneCurve(P(4, 3, [(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4))]))


def fermat_generators():
    i = CyclotomicElement.zeta(4, 1)
    return [
        ProjMap.diagonal(4, i, 1, 1),
        ProjMap.diagonal(4, 1, i, 1),
        ProjMap.permutation(4, [2, 0, 1]),
        ProjMap.permutation(4, [1, 0, 2]),
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


def sign_group(order=1):
    return closure(sign_generators(order))


def test_signature_value_object():
    sig = Signature(0, (2, 3, 8))
    assert str(sig) == "(0; 2, 3, 8)"
    assert str(Signature(3, ())) == "(3)"
    assert repr(sig) == "Signature(quotient_genus=0, indices=(2, 3, 8))"
    assert Signature(0, (2, 2)) == Signature(0, (2, 2))
    assert Signature(0, (2, 2)) != Signature(1, (2, 2))
    assert len({sig, Signature(0, (2, 3, 8)), Signature(0, (2, 3, 7))}) == 2
    assert {sig: "ODD"}[Signature(0, (2, 3, 8))] == "ODD"
    with pytest.raises(AttributeError):
        sig.quotient_genus = 1


def test_odd_signature_predicate():
    assert is_odd_signature(Signature(0, (2, 3, 7)))
    assert odd_signature_verdict(Signature(0, (2, 3, 8))) == "ODD"
    # all multiplicities even
    assert not is_odd_signature(Signature(0, (2, 2, 2, 2, 2, 2)))
    # rational quotient is required
    assert not is_odd_signature(Signature(1, (2, 2, 2, 2)))
    assert odd_signature_verdict(Signature(2, ())) == "INCONCLUSIVE"
    assert not is_odd_signature(Signature(0, ()))


def test_fixed_points_on_fermat():
    curve = fermat_quartic()
    i = CyclotomicElement.zeta(4, 1)
    assert fixed_point_count(curve, ProjMap.permutation(4, [2, 0, 1])) == 2
    assert fixed_point_count(curve, ProjMap.diagonal(4, i, 1, 1)) == 4
    assert fixed_point_count(curve, ProjMap.diagonal(4, -1, 1, 1)) == 4
    assert fixed_point_count(curve, ProjMap.permutation(4, [1, 0, 2])) == 4


def test_fixed_points_on_klein():
    curve = klein_quartic()
    diag, cycle, invol = klein_generators()
    assert fixed_point_count(curve, diag) == 3
    assert fixed_point_count(curve, cycle) == 2
    # the involution has non-root-of-unity scalar on its canonical square
    assert fixed_point_count(curve, invol) == 4
    group = closure(klein_generators())
    quad = next(g for g in group if element_order(g)[0] == 4)
    assert fixed_point_count(curve, quad) == 0


def test_fixed_point_error_paths():
    curve = fermat_quartic()
    with pytest.raises(ScalarMap):
        fixed_point_count(curve, ProjMap.identity(4))
    shear = ProjMap(4, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotAnAutomorphism):
        fixed_point_count(curve, shear)
    with pytest.raises(NotAnAutomorphism):
        signature(curve, [ProjMap.identity(4), shear])
    # every generator is verified, not only the first
    with pytest.raises(NotAnAutomorphism):
        signature(quartic_family(1, 3, 5),
                  [ProjMap.diagonal(1, -1, 1, 1), ProjMap.permutation(1, [1, 0, 2])])


def test_eigenspace_ledger_failure_is_typed(monkeypatch):
    # the count's own ledger: a count outside [0, 2g + 2] is typed.
    # diag(i, 1, 1) on the Fermat quartic: det A * tr A = -1 + 2i and lambda = 1.
    # A wrong lambda makes t + conj(t) = -2 / lambda: 1/4 gives 10 > 2g + 2
    # fixed points and -1/4 gives -6
    curve, g = fermat_quartic(), ProjMap.diagonal(4, CyclotomicElement.zeta(4, 1), 1, 1)
    assert fixed_point_count(curve, g) == 4
    for wrong in (Fraction(1, 4), Fraction(-1, 4)):
        lam = CyclotomicElement.from_rational(wrong, 4)
        monkeypatch.setattr(plane, "is_automorphism", lambda curve, mapping: (True, lam))
        with pytest.raises(InternalInconsistency):
            fixed_point_count(curve, g)


def test_constant_eigenvalue_modulus_is_typed(monkeypatch):
    # eigenvalue data that do not belong to g: a trace sum that is not a
    # rational integer is typed. On a quartic t = e3 * e1 / lambda, so the
    # constant characteristic data e1 = 1, e3 = 1/3 give t + conj(t) = 2/3,
    # and a wrong lambda = 3 for diag(i, 1, 1) gives -2/3
    curve, g = fermat_quartic(), ProjMap.diagonal(4, CyclotomicElement.zeta(4, 1), 1, 1)
    one, zero = CyclotomicElement.one(4), CyclotomicElement.zero(4)
    third = CyclotomicElement.from_rational(Fraction(1, 3), 4)
    with monkeypatch.context() as patch:
        patch.setattr(plane, "char_poly", lambda entries: (one, zero, third))
        with pytest.raises(InternalInconsistency):
            fixed_point_count(curve, g)
    assert fixed_point_count(curve, g) == 4
    lam = CyclotomicElement.from_rational(3, 4)
    monkeypatch.setattr(plane, "is_automorphism", lambda curve, mapping: (True, lam))
    with pytest.raises(InternalInconsistency):
        fixed_point_count(curve, g)


def test_negative_stabilizer_count_is_typed(monkeypatch):
    # |Fix| = |<g>| makes the count of the order-2 subgroup inside C4 negative
    monkeypatch.setattr(ramify, "fixed_point_count",
                        lambda curve, gen: element_order(gen)[0])
    i = CyclotomicElement.zeta(4, 1)
    group = closure([ProjMap.diagonal(4, i, 1, 1)])
    with pytest.raises(InternalInconsistency):
        signature(fermat_quartic(), group)


def test_trivial_group_signature():
    curve = fermat_quartic()
    sig = signature(curve, [ProjMap.identity(4)])
    assert sig == Signature(3, ())


def count_fixed_point_calls(monkeypatch):
    calls = []
    real = ramify.fixed_point_count

    def counted(curve, gen):
        calls.append(gen)
        return real(curve, gen)

    monkeypatch.setattr(ramify, "fixed_point_count", counted)
    return calls


def test_fermat_signature(monkeypatch):
    curve = fermat_quartic()
    assert len(closure(fermat_generators())) == 96
    calls = count_fixed_point_calls(monkeypatch)
    sig = signature(curve, fermat_generators())
    assert sig == Signature(0, (2, 3, 8))
    assert odd_signature_verdict(sig) == "ODD"
    # one count per conjugacy class of nontrivial cyclic subgroups
    assert len(calls) == 7


def test_klein_signature(monkeypatch):
    curve = klein_quartic()
    assert len(closure(klein_generators())) == 168
    calls = count_fixed_point_calls(monkeypatch)
    sig = signature(curve, klein_generators())
    assert sig == Signature(0, (2, 3, 7))
    assert odd_signature_verdict(sig) == "ODD"
    assert len(calls) == 4


def test_bielliptic_family_member_full_group():
    curve = quartic_family(1, 3, 5)
    group = sign_group()
    assert len(group) == 4
    sig = signature(curve, group)
    assert sig == Signature(0, (2, 2, 2, 2, 2, 2))
    assert odd_signature_verdict(sig) == "INCONCLUSIVE"


def test_bielliptic_family_member_involution():
    curve = quartic_family(1, 3, 5)
    group = closure([ProjMap.diagonal(1, -1, 1, 1)])
    sig = signature(curve, group)
    assert sig == Signature(1, (2, 2, 2, 2))
    assert odd_signature_verdict(sig) == "INCONCLUSIVE"


def quartic_quotient_rows():
    z3 = CyclotomicElement.zeta(3, 1)
    z6 = CyclotomicElement.zeta(6, 1)
    z9 = CyclotomicElement.zeta(9, 1)
    i = CyclotomicElement.zeta(4, 1)
    rows = []
    # order nine: x^3 y + y^3 z + z^4
    rows.append((
        PlaneCurve(P(9, 3, [(1, (3, 1, 0)), (1, (0, 3, 1)), (1, (0, 0, 4))])),
        [ProjMap.diagonal(9, z9 ** 2, z9 ** 3, 1)],
        9, Signature(0, (3, 9, 9))))
    # order three: y z^3 + x^4 + 2 x y^3 + y^4
    rows.append((
        PlaneCurve(P(3, 3, [(1, (0, 1, 3)), (1, (4, 0, 0)), (2, (1, 3, 0)),
                            (1, (0, 4, 0))])),
        [ProjMap.diagonal(3, 1, 1, z3)],
        3, Signature(0, (3, 3, 3, 3, 3))))
    # order six: x^3 y + y^4 + y^2 z^2 + z^4
    rows.append((
        PlaneCurve(P(6, 3, [(1, (3, 1, 0)), (1, (0, 4, 0)), (1, (0, 2, 2)),
                            (1, (0, 0, 4))])),
        [ProjMap.diagonal(6, z6, -1, 1)],
        6, Signature(0, (2, 3, 3, 6))))
    # nonabelian of order six: z^4 + x y z^2 + x^3 z + y^3 z + 2 x^2 y^2
    rows.append((
        PlaneCurve(P(3, 3, [(1, (0, 0, 4)), (1, (1, 1, 2)), (1, (3, 0, 1)),
                            (1, (0, 3, 1)), (2, (2, 2, 0))])),
        [ProjMap.diagonal(3, z3, z3 ** 2, 1), ProjMap.permutation(3, [1, 0, 2])],
        6, Signature(0, (2, 2, 2, 2, 3))))
    # coordinate permutations and sign flips, order twenty-four
    rows.append((
        quartic_family(1, 1, 1),
        [ProjMap.permutation(1, [1, 0, 2]), ProjMap.permutation(1, [2, 0, 1]),
         ProjMap.diagonal(1, -1, 1, 1)],
        24, Signature(0, (2, 2, 2, 3))))
    # dihedral of order eight
    rows.append((
        quartic_family(3, 1, 1),
        [ProjMap.permutation(1, [1, 0, 2]), ProjMap.diagonal(1, -1, 1, 1)],
        8, Signature(0, (2, 2, 2, 2, 2))))
    # order sixteen
    rows.append((
        quartic_family(0, 0, 1, order=4),
        [ProjMap.diagonal(4, i, 1, 1), ProjMap.diagonal(4, 1, -1, 1),
         ProjMap.permutation(4, [0, 2, 1])],
        16, Signature(0, (2, 2, 2, 4))))
    return rows


@pytest.mark.parametrize("case", range(7))
def test_quartic_quotient_rows(case):
    curve, gens, size, expected = quartic_quotient_rows()[case]
    assert is_smooth(curve)
    assert len(closure(gens)) == size
    assert signature(curve, gens) == expected


def test_signature_conjugation_equivariance():
    i = CyclotomicElement.zeta(4, 1)
    curve = quartic_family(i, 3, 5, order=4)
    assert is_smooth(curve)
    group = sign_group(4)
    sig = signature(curve, group)
    assert sig == Signature(0, (2, 2, 2, 2, 2, 2))
    twin = curve.conjugate()
    twin_group = [g.conjugate() for g in group]
    assert signature(twin, twin_group) == sig


def test_fixed_point_ledger_matches_branch_data():
    # the branch data predicts the total number of fixed points of
    # nontrivial elements: sum over indices c of (|G|/c)(c-1)
    cases = [
        (fermat_quartic(), fermat_generators(), 196),
        (quartic_family(1, 3, 5), sign_generators(), 12),
    ]
    for curve, gens, expected in cases:
        group = closure(gens)
        total = sum(fixed_point_count(curve, g)
                    for g in group if not g.is_identity())
        assert total == expected
        sig = signature(curve, gens)
        predicted = sum((len(group) // c) * (c - 1) for c in sig.indices)
        assert predicted == expected


def test_fixed_count_is_conjugation_invariant():
    rng = random.Random(31415)
    curve = fermat_quartic()
    group = closure(fermat_generators())
    checked = 0
    while checked < 12:
        g = rng.choice(group)
        if g.is_identity():
            continue
        h = rng.choice(group)
        conj = (h @ g) @ h.inverse()
        assert fixed_point_count(curve, conj) == fixed_point_count(curve, g)
        checked += 1


def test_riemann_hurwitz_rejects_bad_input(monkeypatch):
    # a quadruple line passes the homogeneity checks, but the hypothesis
    # check refuses the singular curve before any count
    quad_line = PlaneCurve(P(4, 3, [(1, (4, 0, 0))]))
    i = CyclotomicElement.zeta(4, 1)
    group = closure([ProjMap.diagonal(4, 1, i, 1)])
    assert len(group) == 4
    with pytest.raises(HypothesisViolation):
        signature(quad_line, group)
    # three fixed points of an involution on a genus-3 curve leave
    # 2g - 2 - 3 = 1, which |G| = 2 does not divide: the integrality guard holds
    monkeypatch.setattr(ramify, "fixed_point_count", lambda curve, gen: 3)
    with pytest.raises(NonIntegerGenus):
        signature(fermat_quartic(), closure([ProjMap.diagonal(4, -1, 1, 1)]))


def test_signature_report_contents():
    curve, group = quartic_family(1, 3, 5), sign_group()
    sig = signature(curve, group)
    report = {
        "group_order": len(group),
        "curve_genus": curve.genus(),
        "quotient_genus": sig.quotient_genus,
        "indices": list(sig.indices),
        "verdict": odd_signature_verdict(sig),
    }
    assert report == {
        "group_order": 4,
        "curve_genus": 3,
        "quotient_genus": 0,
        "indices": [2, 2, 2, 2, 2, 2],
        "verdict": "INCONCLUSIVE",
    }


def fixture(stem):
    return serialize.parse_input((FIXTURES / f"{stem}.json").read_text(encoding="utf-8")).value


def test_plane_quartic_stratum_catalog():
    # every stratum's signature is computed from its curve and generator
    # fixtures, and compared with the published table
    assert len(PLANE_QUARTIC_STRATA) == 12
    odd = set()
    for label, stem, size, expected in PLANE_QUARTIC_STRATA:
        gens = fixture(f"{stem}_gens")
        sig = signature(fixture(stem), gens)
        assert (len(closure(gens)), sig) == (size, expected), label
        total = size * (2 * sig.quotient_genus - 2)
        total += sum((size // c) * (c - 1) for c in sig.indices)
        assert total == 4
        if odd_signature_verdict(sig) == "ODD":
            odd.add(label)
    assert odd == {"PSL(2,7)", "S3", "D4", "S4", "C4^2 : S3", "C4 (o) (C2)^2",
                   "C4 (o) A4", "C6", "C9", "C3"}


# field operations of the fixed-point count --------------------------------------

# multiplications and inverses over the class representatives, as measured
# for the trace formula: is_automorphism's substitution dominates the
# multiplications, and each count inverts twice: the leading coefficient
# inside is_automorphism, then lambda
FIXED_POINT_OPS = {"fermat": (7, 203, 14), "klein": (4, 492, 8)}


def test_fixed_point_count_field_operations_are_pinned(monkeypatch):
    counts = {"mul": 0, "inverse": 0}
    real_mul, real_inverse = CyclotomicElement.__mul__, CyclotomicElement.inverse

    def mul(a, b):
        counts["mul"] += 1
        return real_mul(a, b)

    def inverse(a):
        counts["inverse"] += 1
        return real_inverse(a)

    for name, curve, gens in (("fermat", fermat_quartic(), fermat_generators()),
                              ("klein", klein_quartic(), klein_generators())):
        group = closure(gens)
        reps = [group[gen] for _, _, gen in cyclic_subgroup_classes(group)]
        classes, mul_bound, inverse_bound = FIXED_POINT_OPS[name]
        assert len(reps) == classes
        counts.update(mul=0, inverse=0)
        with monkeypatch.context() as patch:
            patch.setattr(CyclotomicElement, "__mul__", mul)
            patch.setattr(CyclotomicElement, "inverse", inverse)
            for g in reps:
                fixed_point_count(curve, g)
        assert counts["mul"] <= mul_bound, (name, counts)
        assert counts["inverse"] <= inverse_bound, (name, counts)


# curves outside the theorem ----------------------------------------------------

def invariant_quartic(coeffs, perms):
    """Sum over the orbits of quartic monomials under coordinate permutations,
    the k-th orbit weighted by coeffs[k]."""
    orbits, seen = [], set()
    for e in sorted(e for e in itertools.product(range(5), repeat=3) if sum(e) == 4):
        if e not in seen:
            orbit = sorted({tuple(e[p[i]] for i in range(3)) for p in perms})
            seen.update(orbit)
            orbits.append(orbit)
    return PlaneCurve(P(1, 3, [(c, e) for c, orbit in zip(coeffs, orbits) if c for e in orbit]))


C3_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
S3_PERMS = list(itertools.permutations(range(3)))


def permutation_group(perms, order=1):
    return [ProjMap.permutation(order, p) for p in perms if p != (0, 1, 2)]


def test_signature_refuses_curves_outside_the_theorem():
    s3 = permutation_group(S3_PERMS)
    conic = PlaneCurve(P(1, 3, [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))]))
    # x^4 + y^4 + z^4 - 2(x^2 y^2 + y^2 z^2 + z^2 x^2), the lines x +- y +- z = 0
    four_lines = invariant_quartic([1, 0, -2], S3_PERMS)
    # 2(x^2 y^2 + y^2 z^2 + z^2 x^2) + xyz(x + y + z), singular at the coordinate points
    c3_quartic = invariant_quartic([0, 0, 2, 0, 1], C3_PERMS)
    w = CyclotomicElement.zeta(3, 1)
    fermat_cubic = PlaneCurve(P(3, 3, [(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))]))
    group54 = closure([ProjMap.diagonal(3, w, 1, 1), ProjMap.diagonal(3, 1, w, 1)]
                      + permutation_group(S3_PERMS, 3))
    assert len(group54) == 54
    fermat_octic = PlaneCurve(P(1, 3, [(1, (8, 0, 0)), (1, (0, 8, 0)), (1, (0, 0, 8))]))
    cases = [(conic, s3, GenusTooSmall),
             (four_lines, s3, HypothesisViolation),
             (c3_quartic, permutation_group(C3_PERMS), HypothesisViolation),
             (fermat_cubic, group54, GenusTooSmall),
             (fermat_octic, s3, BoundExceeded)]
    for curve, group, error in cases:
        with pytest.raises(error):
            signature(curve, group)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=5, max_size=5), st.booleans())
def test_signature_on_invariant_quartics_raises_or_is_smooth(coeffs, symmetric):
    perms = S3_PERMS if symmetric else C3_PERMS
    assume(any(coeffs[:4 if symmetric else 5]))            # S3 has 4 orbits, C3 has 5
    curve = invariant_quartic(coeffs, perms)
    try:
        signature(curve, permutation_group(perms))
    except HypothesisViolation:
        assert not is_smooth(curve)
        return
    assert is_smooth(curve)

