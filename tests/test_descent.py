"""Order-2 descent on plane curves and the symmetric quartic family."""

import random
from pathlib import Path

import pytest

from oddsig.cli import _verdict_payload, run_command
from oddsig.descent import (
    CYCLE,
    DescentVerdict,
    FamilyTriple,
    NEGATE_AB,
    NEGATE_BC,
    SWAP,
    bielliptic_quartic,
    family_aut_generators,
    family_curve,
    family_invariants,
    family_isomorphic,
    family_moduli_field,
    family_rational_descent,
    family_real_definability,
    family_symmetries,
    weil_descent_order2,
)
from oddsig.errors import (
    BoundExceeded,
    CocycleFailure,
    DegenerateTriple,
    GenusTooSmall,
    HypothesisViolation,
    ImageTooLarge,
    ImpossibleCase,
    InternalInconsistency,
    NotAnIsomorphism,
)
from oddsig.exactnum import CyclotomicElement
from oddsig.matgroup import closure
from oddsig.plane import PlaneCurve, ProjMap, is_automorphism, is_smooth, require_isomorphism
from oddsig.polyring import SparsePoly
from oddsig.ramify import Signature, signature

I = CyclotomicElement.zeta(4, 1)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def quartic_nu():
    return ProjMap.diagonal(4, 1, -1, 1)


def quartic_mu():
    return ProjMap(4, [[0, 0, -1], [0, I, 0], [1, 0, 0]])


def quartic_fixture():
    # a1 real, a2*a3 real: a2*a3 = (1+i)*2(i-1) = -4
    return bielliptic_quartic(1, I + 1, I * 2 - 2, 4)


def fermat_quartic(order=4):
    one = CyclotomicElement.one(order)
    return PlaneCurve(SparsePoly.build(order, 3, [
        (one, (4, 0, 0)), (one, (0, 4, 0)), (one, (0, 0, 4))]))


FERMAT_GENERATORS = [ProjMap.diagonal(4, I, 1, 1), ProjMap.diagonal(4, 1, I, 1),
                     ProjMap.permutation(4, [2, 0, 1]), ProjMap.permutation(4, [1, 0, 2])]


def test_bielliptic_quartic_shape():
    curve = quartic_fixture()
    assert curve.degree == 4
    assert curve.genus() == 3
    assert is_smooth(curve)
    with pytest.raises(DegenerateTriple):
        bielliptic_quartic(0, I + 1, 3, 4)


def test_quartic_involution_and_signature():
    curve = quartic_fixture()
    ok, lam = is_automorphism(curve, quartic_nu())
    assert ok and lam.is_one()
    group = closure([quartic_nu()])
    assert len(group) == 2
    assert signature(curve, group) == Signature(1, (2, 2, 2, 2))


def candidates(verdict):
    return [phi for phi, _ in verdict.defects]


def test_isomorphism_orbit_lists_supplied_map_first():
    curve = quartic_fixture()
    mu, nu = quartic_mu(), quartic_nu()
    orbit = candidates(weil_descent_order2(curve, mu, [nu]))
    assert orbit[0] == mu
    assert set(phi.key() for phi in orbit) == {mu.key(), (mu @ nu).key()}
    twin = curve.conjugate()
    for phi in orbit:
        require_isomorphism(curve, twin, phi)
    # no generators close to the identity alone, so mu is the only candidate
    mu = ProjMap.diagonal(4, 1, 1, I)
    assert candidates(weil_descent_order2(fermat_quartic(), mu, [])) == [mu]


def test_isomorphism_orbit_of_a_large_group_is_distinct_and_sorted():
    # the Fermat quartic is real, so each of its 96 automorphisms is also an
    # isomorphism onto the conjugate curve
    curve = PlaneCurve(SparsePoly.build(4, 3, [(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4))]))
    mu = ProjMap.diagonal(4, 1, 1, I)
    orbit = candidates(weil_descent_order2(curve, mu, FERMAT_GENERATORS))
    group = closure(FERMAT_GENERATORS)
    assert len(orbit) == len(set(orbit)) == 96
    assert orbit[0] == mu
    assert [phi.key() for phi in orbit[1:]] == sorted(phi.key() for phi in orbit[1:])
    assert set(orbit) == {mu @ alpha for alpha in group}


def test_quartic_descent_obstructed_with_defect_nu():
    curve = quartic_fixture()
    mu, nu = quartic_mu(), quartic_nu()
    verdict = weil_descent_order2(curve, mu, [nu])
    assert verdict.status == "OBSTRUCTED"
    assert verdict.witness is None
    assert len(verdict.defects) == 2
    assert all(defect == nu for _, defect in verdict.defects)
    report = _verdict_payload(verdict)
    assert report["status"] == "OBSTRUCTED"
    assert len(report["defects"]) == 2


def test_quartic_verdict_stable_under_candidate_choice():
    curve = quartic_fixture()
    mu, nu = quartic_mu(), quartic_nu()
    seeded = weil_descent_order2(curve, mu @ nu, [nu])
    assert seeded.status == "OBSTRUCTED"
    assert sorted(d.key() for _, d in seeded.defects) == sorted(
        d.key() for _, d in weil_descent_order2(curve, mu, [nu]).defects)


def test_quartic_conjugate_pairing_needs_real_product():
    # a2*a3 = (1-i)*2(i-1) = 4i is not real, so mu cannot reach the conjugate
    bad = bielliptic_quartic(1, 1 - I, I * 2 - 2, 4)
    with pytest.raises(NotAnIsomorphism):
        weil_descent_order2(bad, quartic_mu(), [quartic_nu()])


def test_not_an_isomorphism_on_perturbed_map():
    curve = quartic_fixture()
    skew = ProjMap(4, [[0, 0, -1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(NotAnIsomorphism):
        weil_descent_order2(curve, skew, [quartic_nu()])


def test_rational_curve_descends_with_identity():
    verdict = weil_descent_order2(fermat_quartic(), ProjMap.identity(4), [])
    assert verdict.status == "DEFINABLE"
    assert verdict.witness.is_identity()
    assert verdict.field == "R"


def test_descent_refuses_curves_outside_the_theorem():
    # rational curves: the identity maps each onto its conjugate
    four_lines = PlaneCurve(SparsePoly.build(4, 3, [
        (1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)),
        (-2, (2, 2, 0)), (-2, (0, 2, 2)), (-2, (2, 0, 2))]))
    with pytest.raises(HypothesisViolation):
        weil_descent_order2(four_lines, ProjMap.identity(4), [])
    with pytest.raises(GenusTooSmall):
        weil_descent_order2(PlaneCurve(SparsePoly.build(4, 3, [
            (1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))])), ProjMap.identity(4), [])
    with pytest.raises(BoundExceeded):
        weil_descent_order2(PlaneCurve(SparsePoly.build(4, 3, [
            (1, (8, 0, 0)), (1, (0, 8, 0)), (1, (0, 0, 8))])), ProjMap.identity(4), [])


def test_verdict_validation():
    with pytest.raises(ValueError):
        DescentVerdict("OBSTRUCTED", ProjMap.identity(4), (), (), "test")
    with pytest.raises(ValueError):
        DescentVerdict("DEFINABLE", None, (), (), "test")
    with pytest.raises(ValueError):
        DescentVerdict("MAYBE", None, (), (), "test")
    with pytest.raises(ValueError):
        DescentVerdict(status="DEFINABLE", witness=None, defects=(), assumptions=(), citation="test")


def test_verdict_is_an_immutable_value():
    verdict = DescentVerdict("DEFINABLE", ProjMap.identity(4), (), ("full group",), "test", field="Q")
    same = DescentVerdict("DEFINABLE", ProjMap.identity(4), (), ("full group",), "test", field="Q")
    assert verdict == same and hash(verdict) == hash(same)
    assert verdict != DescentVerdict("OBSTRUCTED", None, (), ("full group",), "test", field="Q")
    assert verdict.assignment is None and _verdict_payload(verdict)["field"] == "Q"
    with pytest.raises(AttributeError):
        verdict.status = "OBSTRUCTED"
    with pytest.raises(AttributeError):
        verdict.extra = 1


def test_triple_moves_are_immutable_values():
    moves = family_symmetries()
    assert len(set(moves)) == 24 and len({m.key() for m in moves}) == 24
    identity = next(m for m in moves if m.is_identity())
    swap = next(m for m in moves if m.perm == (1, 0, 2) and m.plain())
    assert swap.compose(swap).is_identity() and swap.compose(swap) == identity
    assert swap != swap.compose(swap)
    with pytest.raises(AttributeError):
        swap.perm = (0, 1, 2)


# family triples ----------------------------------------------------------------

def test_family_triple_guards():
    with pytest.raises(DegenerateTriple):
        FamilyTriple(1, 1, 5)
    with pytest.raises(DegenerateTriple):
        FamilyTriple(1, -1, 5)
    with pytest.raises(DegenerateTriple):
        FamilyTriple(2, 3, 5)
    # a^2 + b^2 + c^2 - abc = 4 with distinct squares, none equal to 4
    from fractions import Fraction
    with pytest.raises(DegenerateTriple):
        FamilyTriple(Fraction(5, 2), Fraction(10, 3), Fraction(37, 6))
    t = FamilyTriple(1, 3, 5)
    assert t.order == 1 and t.conjugate() == t
    lifted = t.lift_to(4)
    assert lifted != t and lifted.order == 4
    assert lifted == FamilyTriple(*[v.lift_to(4) for v in t])
    assert len({t, lifted}) == 2


def test_singularity_screen_matches_smoothness_oracle():
    for trip in [(1, 3, 5), (I + 1, I * 2, 3), (1, I, 3)]:
        assert is_smooth(family_curve(FamilyTriple(*trip)))
    one = CyclotomicElement.one(1)

    def raw_curve(a, b, c):
        entries = [(one, (4, 0, 0)), (one, (0, 4, 0)), (one, (0, 0, 4)),
                   (CyclotomicElement.from_rational(a, 1), (2, 2, 0)),
                   (CyclotomicElement.from_rational(b, 1), (2, 0, 2)),
                   (CyclotomicElement.from_rational(c, 1), (0, 2, 2))]
        return PlaneCurve(SparsePoly.build(1, 3, entries))

    from fractions import Fraction
    assert not is_smooth(raw_curve(2, 3, 5))
    assert not is_smooth(raw_curve(Fraction(5, 2), Fraction(10, 3), Fraction(37, 6)))


def test_family_invariants():
    t = FamilyTriple(1, 3, 5)
    j1, j2, j3, j4, j5 = family_invariants(t)
    assert (j1, j2, j3, j4, j5) == (15, 35, 707, 9, 153)
    for move in family_symmetries():
        image = family_invariants(move.apply(t))
        assert image[:3] == (j1, j2, j3)
    for move in [m for m in family_symmetries() if m.plain()]:
        assert family_invariants(move.apply(t)) == (j1, j2, j3, j4, j5)


def test_symmetry_group_structure():
    full = family_symmetries()
    plain = [m for m in full if m.plain()]
    assert len(full) == 24 and len(plain) == 6
    keys = {m.key() for m in full}
    assert {m.key() for m in plain} <= keys
    assert all(m.plain() for m in plain)
    # closure and inverses inside the key algebra
    for u in full:
        assert any(u.compose(v).is_identity() and v.compose(u).is_identity()
                   for v in full)
        for v in full:
            assert u.compose(v).key() in keys
    # permutation moves carry permutation matrices exactly
    for m in plain:
        for row in m.map.entries:
            assert sum(0 if c.is_zero() else 1 for c in row) == 1
            assert all(c.is_zero() or c.is_one() for c in row)


def test_symmetry_action_is_functorial():
    t = FamilyTriple(I * 2 + 1, 3, I)
    full = family_symmetries()
    for u in full:
        require_isomorphism(family_curve(t), family_curve(u.apply(t)), u.map)
    for u in full:
        for v in full:
            assert u.compose(v).apply(t) == u.apply(v.apply(t))


def random_triple(rng):
    pool = [1, 2, 3, 5, -1, -3, I, I * 2, I * 3, I + 1, I - 1,
            I * 2 + 1, I + 2, -I - 2, I * 2 - 1, I + 3]
    while True:
        try:
            return FamilyTriple(rng.choice(pool), rng.choice(pool), rng.choice(pool))
        except DegenerateTriple:
            continue


def test_family_isomorphic_examples():
    t = FamilyTriple(1, 3, 5)
    hit = family_isomorphic(t, FamilyTriple(3, 1, 5))
    assert hit is not None and hit.key() == ((1, 0, 2), (1, 1, 1))
    hit = family_isomorphic(t, FamilyTriple(-1, -3, 5))
    assert hit is not None and hit.key() == ((0, 1, 2), (-1, -1, 1))
    assert family_isomorphic(t, FamilyTriple(1, 3, 7)) is None
    assert family_isomorphic(t, FamilyTriple(-1, -3, 5),
                             field_contains_i=False) is None
    hit = family_isomorphic(t, FamilyTriple(3, 1, 5), field_contains_i=False)
    assert hit is not None


def test_family_isomorphic_matches_moves_exactly():
    rng = random.Random(40961)
    moves = family_symmetries()
    for _ in range(120):
        t = random_triple(rng)
        m = rng.choice(moves)
        found = family_isomorphic(t, m.apply(t))
        assert found is not None and found.key() == m.key()
        j = family_invariants(t)[:3]
        assert family_invariants(m.apply(t))[:3] == j
        # trivial stabilizer: only the identity fixes a valid triple
        fixers = [u for u in moves if u.apply(t) == t]
        assert len(fixers) == 1 and fixers[0].is_identity()


def test_real_descent_swap_case():
    t = FamilyTriple(I * 2 + 1, 1 - I * 2, 3)
    for kwargs in ({}, {"case": SWAP}):
        verdict = family_real_definability(t, **kwargs)
        assert verdict.status == "DEFINABLE"
        assert verdict.witness == ProjMap.permutation(4, [0, 2, 1])


def test_real_descent_sign_cases():
    t = FamilyTriple(I, I * 2, 3)
    for kwargs in ({}, {"case": NEGATE_AB}):
        verdict = family_real_definability(t, **kwargs)
        assert verdict.status == "DEFINABLE"
        assert verdict.witness == ProjMap.diagonal(4, I, 1, 1)
    t = FamilyTriple(3, I, I * 2)
    for kwargs in ({}, {"case": NEGATE_BC}):
        verdict = family_real_definability(t, **kwargs)
        assert verdict.status == "DEFINABLE"
        assert verdict.witness == ProjMap.diagonal(4, 1, 1, I)


def test_real_descent_real_triple_is_trivial():
    verdict = family_real_definability(FamilyTriple(1, 3, 5))
    assert verdict.status == "DEFINABLE"
    assert verdict.witness.is_identity()


def test_real_descent_inconclusive_when_orbit_misses_conjugate():
    verdict = family_real_definability(FamilyTriple(I * 2 + 1, 3, 5))
    assert verdict.status == "INCONCLUSIVE"
    assert verdict.witness is None and verdict.defects == ()


def test_real_descent_case_guards():
    with pytest.raises(ImpossibleCase):
        family_real_definability(FamilyTriple(1, 3, 5), case=CYCLE)
    with pytest.raises(HypothesisViolation):
        family_real_definability(FamilyTriple(I, I * 2, 3), case=SWAP)
    with pytest.raises(HypothesisViolation):
        family_real_definability(FamilyTriple(1, 3, 5), case="bogus")


def test_moduli_field_generators():
    t = FamilyTriple(I * 2 + 1, 1 - I * 2, 3)
    report = family_moduli_field(t)
    assert report["rational"] and report["field"] == "Q"
    gens = report["generators"]
    assert gens["j1"] == 15 and gens["j2"] == 3 and gens["j3"] == 67
    report = family_moduli_field(t, field_contains_i=False)
    assert report["rational"] and report["field"] == "Q"
    assert report["generators"]["j4"] == 5 and report["generators"]["j5"] == 5
    report = family_moduli_field(FamilyTriple(I * 2 + 1, 3, 5))
    assert not report["rational"]
    assert report["field"] == "Q(j1, j2, j3)"


def test_rational_descent_closing_example():
    t = FamilyTriple(I * 2 + 1, 1 - I * 2, 3)
    verdict = family_rational_descent(t)
    assert verdict.status == "DEFINABLE" and verdict.field == "Q"
    assert verdict.witness == ProjMap.permutation(4, [0, 2, 1])
    assert (verdict.witness @ verdict.witness).is_identity()
    assert dict(verdict.assignment).keys() == {1, 3}
    assert all(defect.is_identity() for _, defect in verdict.defects)
    report = _verdict_payload(verdict)
    assert report["field"] == "Q" and len(report["assignment"]) == 2


def test_rational_descent_needs_permutation_action():
    with pytest.raises(ImageTooLarge):
        family_rational_descent(FamilyTriple(I, I * 2, 3))


def test_rational_descent_real_triple():
    verdict = family_rational_descent(FamilyTriple(1, 3, 5))
    assert verdict.status == "DEFINABLE" and verdict.field == "Q"
    assert verdict.witness.is_identity()
    assert all(m.is_identity() for _, m in verdict.assignment)


def test_rational_descent_inconclusive_off_orbit():
    verdict = family_rational_descent(FamilyTriple(I * 2 + 1, 3, 5))
    assert verdict.status == "INCONCLUSIVE"


def test_aut_generators_are_automorphisms():
    t = FamilyTriple(I * 2 + 1, 3, I)
    curve = family_curve(t)
    gens = family_aut_generators(t.order)
    assert len(closure([g.lift_to(4) for g in gens])) == 4
    for g in gens:
        ok, lam = is_automorphism(curve, g)
        assert ok and lam.is_one()


# the engines' self-checks -------------------------------------------------------

def test_defect_outside_the_group_is_typed(capsys):
    # the only defect of the bielliptic pair is nu; without --aut the group
    # is the identity alone, and a defect outside it refuses the input
    with pytest.raises(HypothesisViolation, match="outside the group"):
        weil_descent_order2(quartic_fixture(), quartic_mu(), [])
    code = run_command(["descend-real", "--curve", str(FIXTURES / "bielliptic_quartic.json"),
                        "--mu", str(FIXTURES / "bielliptic_quartic_mu.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "outside the group" in err
    assert len(err.splitlines()) == 1


def test_defect_outside_a_subgroup_refuses_the_input():
    # mu = swap(x, y) o diag(i, 1, 1) has defect diag(i, -i, 1), an
    # automorphism of the Fermat quartic that <diag(i, 1, 1)> lacks
    swap = ProjMap.permutation(4, [1, 0, 2])
    defect = ProjMap.diagonal(4, I, -I, 1)
    phi = swap @ ProjMap.diagonal(4, I, 1, 1)
    assert phi.conjugate() @ phi == defect and is_automorphism(fermat_quartic(), defect)[0]
    with pytest.raises(HypothesisViolation, match="outside the group"):
        weil_descent_order2(fermat_quartic(), swap, [ProjMap.diagonal(4, I, 1, 1)])
    verdict = weil_descent_order2(fermat_quartic(), swap, FERMAT_GENERATORS)
    assert verdict.status == "DEFINABLE" and verdict.witness == swap
    assert len(verdict.defects) == 96


def test_shipped_descent_inputs_keep_defects_in_the_group():
    # oracle: every defect is an automorphism by substitution, and an element
    # of the closure of the generators the verdict was computed with
    from oddsig.serialize import parse_input

    def read(name):
        return parse_input((FIXTURES / name).read_text(encoding="utf-8")).value

    curve, nu = read("bielliptic_quartic.json"), read("bielliptic_quartic_nu.json")
    cases = [(curve, nu, weil_descent_order2(curve, read("bielliptic_quartic_mu.json"), nu))]
    for path in sorted(FIXTURES.glob("triple_*.json")):
        t = read(path.name)
        gens = family_aut_generators(t.order)
        cases.append((family_curve(t), gens, family_real_definability(t)))
    seen = 0
    for curve, gens, verdict in cases:
        group = set(closure([g.lift_to(4) for g in gens]))
        for _, defect in verdict.defects:
            assert defect in group
            assert is_automorphism(curve, defect)[0]
            seen += 1
    assert seen == 2 + 4 * 4


def test_cocycle_failure_is_typed(monkeypatch, capsys):
    # an assignment that gives every field automorphism the same transposition
    # breaks the cocycle identity at (k, l) = (1, 1): the swap squared is the
    # identity, not the swap assigned to 1
    from oddsig import descent
    assert issubclass(CocycleFailure, InternalInconsistency)
    swap = next(m for m in family_symmetries() if m.plain() and m.perm == (0, 2, 1))
    monkeypatch.setattr(descent, "family_isomorphic", lambda t, t2, field_contains_i=True: swap)
    with pytest.raises(CocycleFailure, match=r"exponents \(1, 1\)"):
        family_rational_descent(FamilyTriple(1, 3, 5))
    code = run_command(["quartic-family", "rational-descend",
                        "--triple", str(FIXTURES / "triple_135.json")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("internal inconsistency: cocycle identity fails") and "Traceback" not in err
    assert len(err.splitlines()) == 1
