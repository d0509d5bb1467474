import random

import pytest

from oddsig import ramify
from oddsig.errors import (InternalInconsistency, NonIntegerGenus, NotAnAutomorphism,
                           ScalarMap)
from oddsig.exactnum import CyclotomicElement
from oddsig.matgroup import closure, element_order
from oddsig.plane import PlaneCurve, ProjMap, conjugate_curve, is_smooth
from oddsig.polyring import SparsePoly
from oddsig.ramify import (Signature, fixed_point_count, is_odd_signature,
                           odd_signature_verdict, plane_quartic_stratum_rows,
                           signature, signature_report)


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


def sign_group(order=1):
    return closure([ProjMap.diagonal(order, -1, 1, 1),
                    ProjMap.diagonal(order, 1, -1, 1)])


def test_signature_value_object():
    sig = Signature(0, (2, 3, 8))
    assert str(sig) == "(0; 2, 3, 8)"
    assert sig.index_counts() == {2: 1, 3: 1, 8: 1}
    assert str(Signature(3, ())) == "(3)"
    assert Signature(0, (2, 2)) == Signature(0, (2, 2))


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
    # a closed group is verified through its generators
    with pytest.raises(NotAnAutomorphism):
        signature(quartic_family(1, 3, 5), closure([ProjMap.permutation(1, [1, 0, 2])]))


def test_eigenspace_ledger_failure_is_typed(monkeypatch):
    real = ramify._count_eigen_branch
    monkeypatch.setattr(ramify, "_count_eigen_branch",
                        lambda *args: (real(*args)[0], 2))
    with pytest.raises(InternalInconsistency):
        fixed_point_count(fermat_quartic(), ProjMap.permutation(4, [2, 0, 1]))


def test_zero_residue_inverse_is_typed():
    # m is a nonzero polynomial that is zero as a residue mod m
    m = [CyclotomicElement.from_rational(c, 4) for c in (-1, 0, 1)]
    with pytest.raises(InternalInconsistency):
        ramify._ainv(m, m, 4)


def test_constant_eigenvalue_modulus_is_typed(monkeypatch):
    monkeypatch.setattr(ramify, "uni_gcd",
                        lambda *args: [CyclotomicElement.one(4)])
    with pytest.raises(InternalInconsistency):
        ramify._eigenvalue_modulus(ProjMap.permutation(4, [2, 0, 1]), 10)


def test_negative_stabilizer_count_is_typed(monkeypatch):
    # |Fix| = |<g>| makes the count of the order-2 subgroup inside C4 negative
    monkeypatch.setattr(ramify, "fixed_point_count",
                        lambda curve, gen, bound: element_order(gen)[0])
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

    def counted(curve, gen, bound):
        calls.append(gen)
        return real(curve, gen, bound)

    monkeypatch.setattr(ramify, "fixed_point_count", counted)
    return calls


def test_fermat_signature(monkeypatch):
    curve = fermat_quartic()
    group = closure(fermat_generators())
    assert len(group) == 96
    calls = count_fixed_point_calls(monkeypatch)
    sig = signature(curve, group)
    assert sig == Signature(0, (2, 3, 8))
    assert odd_signature_verdict(sig) == "ODD"
    # one count per conjugacy class of nontrivial cyclic subgroups
    assert len(calls) == 7


def test_klein_signature(monkeypatch):
    curve = klein_quartic()
    group = closure(klein_generators())
    assert len(group) == 168
    calls = count_fixed_point_calls(monkeypatch)
    sig = signature(curve, group)
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
    group = closure(gens)
    assert len(group) == size
    assert signature(curve, group) == expected


def test_signature_conjugation_equivariance():
    i = CyclotomicElement.zeta(4, 1)
    curve = quartic_family(i, 3, 5, order=4)
    assert is_smooth(curve)
    group = sign_group(4)
    sig = signature(curve, group)
    assert sig == Signature(0, (2, 2, 2, 2, 2, 2))
    twin = conjugate_curve(curve)
    twin_group = [g.conjugate() for g in group]
    assert signature(twin, twin_group) == sig


def test_fixed_point_ledger_matches_branch_data():
    # the branch data predicts the total number of fixed points of
    # nontrivial elements: sum over indices c of (|G|/c)(c-1)
    cases = [
        (fermat_quartic(), closure(fermat_generators()), 196),
        (quartic_family(1, 3, 5), sign_group(), 12),
    ]
    for curve, group, expected in cases:
        total = sum(fixed_point_count(curve, g)
                    for g in group if not g.is_identity())
        assert total == expected
        sig = signature(curve, group)
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


def test_riemann_hurwitz_rejects_bad_input():
    # a quadruple line passes the homogeneity checks but the genus formula
    # applied to it is meaningless, and the integrality guard catches that
    quad_line = PlaneCurve(P(4, 3, [(1, (4, 0, 0))]))
    i = CyclotomicElement.zeta(4, 1)
    group = closure([ProjMap.diagonal(4, 1, i, 1)])
    assert len(group) == 4
    with pytest.raises(NonIntegerGenus):
        signature(quad_line, group)


def test_signature_report_contents():
    report = signature_report(quartic_family(1, 3, 5), sign_group())
    assert report == {
        "group_order": 4,
        "curve_genus": 3,
        "quotient_genus": 0,
        "indices": [2, 2, 2, 2, 2, 2],
        "verdict": "INCONCLUSIVE",
    }


def test_plane_quartic_stratum_catalog():
    rows = plane_quartic_stratum_rows()
    assert len(rows) == 12
    odd = {r["group"] for r in rows if r["verdict"] == "ODD"}
    assert odd == {"PSL(2,7)", "S3", "D4", "S4", "C4^2 : S3", "C4 (o) (C2)^2",
                   "C4 (o) A4", "C6", "C9", "C3"}
    for row in rows:
        sig, n = row["signature"], row["group_order"]
        total = n * (2 * sig.quotient_genus - 2)
        total += sum((n // c) * (c - 1) for c in sig.indices)
        assert total == 4
        assert row["verdict"] == odd_signature_verdict(sig)
