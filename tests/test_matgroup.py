import random
import time
from pathlib import Path

import pytest

from oddsig import matgroup, plane, serialize
from oddsig.descent import weil_descent_order2
from oddsig.errors import BoundExceeded, HypothesisViolation, NotAnAutomorphism, OddsigError
from oddsig.exactnum import CyclotomicElement, common_order
from oddsig.matgroup import (DEFAULT_BOUND, MAX_CLOSURE_WORK, closure, cyclic_subgroup_classes,
                             cyclic_subgroups, element_order)
from oddsig.plane import PlaneCurve, ProjMap
from oddsig.polyring import SparsePoly
from oddsig.ramify import Signature, signature
from oracles import cyclic_subgroup, is_group


def fermat_generators():
    i = CyclotomicElement.zeta(4, 1)
    return [
        ProjMap.diagonal(4, i, 1, 1),
        ProjMap.diagonal(4, 1, i, 1),
        ProjMap.permutation(4, [2, 0, 1]),
        ProjMap.permutation(4, [1, 0, 2]),
    ]


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


def sign_generators(order=4):
    return [ProjMap.diagonal(order, -1, 1, 1), ProjMap.diagonal(order, 1, -1, 1)]


def test_closure_fermat_group():
    group = closure(fermat_generators())
    assert len(group) == 96
    assert group[0].is_identity()
    assert is_group(group)


def test_closure_klein_group():
    group = closure(klein_generators())
    assert len(group) == 168


def test_is_identity_matches_identity_map():
    for group in (closure(fermat_generators()), closure(klein_generators())):
        identity = ProjMap.identity(group[0].order)
        assert [g.is_identity() for g in group] == [g == identity for g in group]
        assert sum(g.is_identity() for g in group) == 1
    z = CyclotomicElement.zeta(7, 1)
    for order, scalar in ((1, 2), (7, z)):
        g = ProjMap.diagonal(order, scalar, scalar, scalar)
        assert g.is_identity() and g == ProjMap.identity(order)
    assert not ProjMap.diagonal(7, 1, 1, z).is_identity()
    assert not ProjMap(1, [[1, 0, 0], [0, 1, 0], [2, 0, 1]]).is_identity()


def test_closure_sign_group():
    group = closure(sign_generators())
    assert len(group) == 4
    assert is_group(group)
    # every element is an involution here
    assert all(element_order(g)[0] in (1, 2) for g in group)


def test_closure_respects_bound():
    shear = ProjMap(1, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(BoundExceeded):
        closure([shear], bound=12)


# a diagonal entry of 4290 digits, near Python's 4300-digit limit on parsing an int
HUGE = int("7" * 4290)


@pytest.mark.parametrize("entries", [
    [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[HUGE, 0, 0], [0, 1, 0], [0, 0, 1]],
    # the companion matrix of x^3 - x - 1 passes the denominator test, but
    # B = A^3 has tr B = 3 and e2(B) = 2
    [[0, 0, 1], [1, 0, 1], [0, 1, 0]],
    # real eigenvalues l, 1/l, 1 pass both tests above, since e2(B) = tr B is
    # rational; tr B exceeds 3, the largest absolute value of a sum of three
    # roots of unity
    [[10**40 + 1, 10**40, 0], [1, 1, 0], [0, 0, 1]],
    [[2, 1, 0], [1, 1, 0], [0, 0, 1]],
])
def test_closure_refuses_generators_of_infinite_order(entries):
    started = time.perf_counter()
    with pytest.raises(HypothesisViolation, match="infinite order"):
        closure([ProjMap.identity(1), ProjMap(1, entries)])
    assert time.perf_counter() - started < 1.0


def test_closure_bounds_its_generator_count_before_any_product(monkeypatch):
    # 8 generators of a group of order <= 360 are enough, since each one that
    # is not redundant at least doubles the order
    assert MAX_CLOSURE_WORK == 8 * DEFAULT_BOUND
    gens = fermat_generators()
    assert len(closure(gens + gens)) == 96
    products, real = [], matgroup.matrix_product

    def spy(*args):
        products.append(args)
        return real(*args)

    monkeypatch.setattr(matgroup, "matrix_product", spy)
    # diag(2, 1, 1) has infinite order, yet the count refuses it first
    infinite = ProjMap.diagonal(1, 2, 1, 1)
    for count, bound in ((9, DEFAULT_BOUND), (MAX_CLOSURE_WORK // 10 + 1, 10)):
        with pytest.raises(BoundExceeded, match="drop redundant generators"):
            closure([infinite] * count, bound)
    assert products == []
    with pytest.raises(HypothesisViolation):
        closure([infinite] * (MAX_CLOSURE_WORK // 10), 10)
    assert len(products) == 2                 # A^3 of the finite-order test


def test_fixture_generators_pass_the_finite_order_test():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    paths = sorted(fixtures.glob("*_gens.json"))
    assert len(paths) == 12
    for path in paths:
        for g in serialize.parse_input(path.read_text(encoding="utf-8")).value:
            # a genus-3 automorphism has order at most 14
            assert len(closure([g])) <= 14, path.name


def test_closure_mixed_orders_lift():
    i = CyclotomicElement.zeta(4, 1)
    w = CyclotomicElement.zeta(3, 1)
    group = closure([ProjMap.diagonal(4, i, 1, 1), ProjMap.diagonal(3, w, 1, 1)])
    assert len(group) == 12
    assert all(g.order == 12 for g in group)


def test_element_order_values():
    i = CyclotomicElement.zeta(4, 1)
    n, scalar = element_order(ProjMap.diagonal(4, i, 1, 1))
    assert n == 4 and scalar == CyclotomicElement.one(4)
    n, _ = element_order(ProjMap.permutation(4, [2, 0, 1]))
    assert n == 3
    n, _ = element_order(ProjMap.permutation(4, [1, 0, 2]))
    assert n == 2
    n, _ = element_order(ProjMap.identity(4))
    assert n == 1
    shear = ProjMap(1, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(BoundExceeded):
        element_order(shear, bound=50)


def dense_element_order(a, bound=200):
    """(n, c) with A^n = c * identity, by dense 3x3 products from the identity."""
    zero, one = CyclotomicElement.zero(a.order), CyclotomicElement.one(a.order)
    power = [[one if r == c else zero for c in range(3)] for r in range(3)]
    for n in range(1, bound + 1):
        power = [[sum((power[r][k] * a.entries[k][c] for k in range(3)), zero)
                  for c in range(3)] for r in range(3)]
        if (all(power[r][c].is_zero() for r in range(3) for c in range(3) if r != c)
                and power[0][0] == power[1][1] == power[2][2]):
            return n, power[0][0]
    raise AssertionError("no scalar power within the bound")


def test_element_order_matches_dense_powers():
    for group in (closure(fermat_generators()), closure(klein_generators())):
        for g in group:
            assert element_order(g) == dense_element_order(g)


def test_closure_multiplies_only_nonzero_entries(monkeypatch):
    gens = fermat_generators()
    calls = []
    original = CyclotomicElement.__mul__

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(CyclotomicElement, "__mul__", counted)
    monkeypatch.setattr(CyclotomicElement, "__rmul__", counted)
    group = closure(gens)
    assert len(group) == 96
    # a product of two monomial maps makes 3 entry products, 2 determinant
    # products and at most 2 scalings; the dense kernel made 17 298 here
    assert len(calls) <= 2300


def test_element_order_scalar_witness():
    z = [CyclotomicElement.zeta(7, j) for j in range(7)]
    t = ProjMap(7, [
        [z[1] - z[6], z[4] - z[3], z[2] - z[5]],
        [z[4] - z[3], z[2] - z[5], z[1] - z[6]],
        [z[2] - z[5], z[1] - z[6], z[4] - z[3]],
    ])
    n, scalar = element_order(t)
    assert n == 2
    # the square of the representative really is that scalar matrix
    m = t.entries
    zero = CyclotomicElement.zero(7)
    square = [[sum((m[r][k] * m[k][c] for k in range(3)), zero) for c in range(3)]
              for r in range(3)]
    for r in range(3):
        for c in range(3):
            expect = scalar if r == c else zero
            assert square[r][c] == expect


def test_cyclic_subgroup_sizes():
    i = CyclotomicElement.zeta(4, 1)
    sub = cyclic_subgroup(ProjMap.diagonal(4, i, 1, 1))
    assert len(sub) == 4
    group = closure(sign_generators())
    subs = cyclic_subgroups(group)
    # trivial subgroup plus three involutions
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2]


def test_cyclic_subgroup_generators_are_first_appearances():
    group = closure([ProjMap.permutation(1, [1, 0, 2]), ProjMap.permutation(1, [2, 0, 1])])
    first = cyclic_subgroups(group)
    for sub, gen in first.items():
        matrices = frozenset(group[i] for i in sub)
        assert cyclic_subgroup(group[gen]) == matrices
        assert gen == next(a for a, g in enumerate(group) if cyclic_subgroup(g) == matrices)


def test_subgroup_conjugacy_classes_symmetric_group():
    # permutation matrices give S_3: three conjugate involutions, one 3-cycle class
    group = closure([ProjMap.permutation(1, [1, 0, 2]), ProjMap.permutation(1, [2, 0, 1])])
    assert len(group) == 6
    rows = cyclic_subgroup_classes(group)
    sizes = sorted((size, order) for order, size, _ in rows)
    # one class of three order-2 subgroups, one order-3 subgroup; the trivial
    # subgroup has no row
    assert sizes == [(1, 3), (3, 2)]
    assert_rows_match_matrix_conjugation(group, rows)


def assert_rows_match_matrix_conjugation(group, rows):
    """Each row's class is the orbit of the subgroup its generator generates
    under conjugation by every element, computed with matrices, with the
    row's order and size. The classes are disjoint and cover the nontrivial
    cyclic subgroups, and each generator is the first element that generates
    a member of its class, so the rows come in order of first appearance."""
    seen = set()
    for order, size, gen in rows:
        rep = cyclic_subgroup(group[gen])
        orbit = {frozenset(h @ g @ h.inverse() for g in rep) for h in group}
        assert (len(rep), len(orbit)) == (order, size)
        assert seen.isdisjoint(orbit)
        seen |= orbit
        assert gen == next(a for a, g in enumerate(group) if cyclic_subgroup(g) in orbit)
    assert seen == {cyclic_subgroup(g) for g in group if not g.is_identity()}
    gens = [gen for _, _, gen in rows]
    assert gens == sorted(gens)


def s4_generators():
    return [ProjMap.permutation(1, [1, 0, 2]), ProjMap.permutation(1, [2, 0, 1]),
            ProjMap.diagonal(1, -1, 1, 1)]


def order16_generators():
    i = CyclotomicElement.zeta(4, 1)
    return [ProjMap.diagonal(4, i, 1, 1), ProjMap.diagonal(4, 1, -1, 1),
            ProjMap.permutation(4, [0, 2, 1])]


def naive_closure(generators):
    order = common_order(*[g.order for g in generators])
    gens = [g.lift_to(order) for g in generators]
    out = [ProjMap.identity(order)]
    queue = list(out)
    while queue:
        current = queue.pop(0)
        for g in gens:
            nxt = current @ g
            if nxt not in out:
                out.append(nxt)
                queue.append(nxt)
    return out


@pytest.mark.parametrize("generators, size", [(s4_generators, 24), (order16_generators, 16)])
def test_group_tables_on_small_groups(generators, size):
    group = closure(generators())
    assert len(group) == size
    assert list(group) == naive_closure(generators())
    for a in range(size):
        assert (group[a] @ group[group.inv[a]]).is_identity()
        for b in range(size):
            assert group[group.mul[a][b]] == group[a] @ group[b]
    assert [group[i] for i in group.gens] == [g.lift_to(group[0].order) for g in generators()]
    first = cyclic_subgroups(group)
    for sub, gen in first.items():
        assert frozenset(group[i] for i in sub) == cyclic_subgroup(group[gen])
    assert_rows_match_matrix_conjugation(group, cyclic_subgroup_classes(group))


@pytest.mark.parametrize("generators, seed", [(fermat_generators, 11), (klein_generators, 12)])
def test_group_tables_on_sampled_pairs(generators, seed):
    group = closure(generators())
    assert list(group) == naive_closure(generators())
    rng = random.Random(seed)
    for _ in range(300):
        a, b = rng.randrange(len(group)), rng.randrange(len(group))
        assert group[group.mul[a][b]] == group[a] @ group[b]
    for a in range(len(group)):
        assert (group[a] @ group[group.inv[a]]).is_identity()


@pytest.mark.parametrize("generators, subgroups, classes",
                         [(fermat_generators, 50, 8), (klein_generators, 79, 5)])
def test_cyclic_subgroup_classes_of_large_groups(generators, subgroups, classes):
    group = closure(generators())
    first = cyclic_subgroups(group)
    assert len(first) == subgroups
    for sub, gen in first.items():
        assert frozenset(group[i] for i in sub) == cyclic_subgroup(group[gen])
    rows = cyclic_subgroup_classes(group)
    # the trivial subgroup is a class of its own, and has no row
    assert len(rows) == classes - 1
    # each row's class, conjugated by every element through the tables,
    # partitions the nontrivial cyclic subgroups
    mul, inv = group.mul, group.inv
    members = []
    for order, size, gen in rows:
        rep = next(sub for sub, a in first.items() if a == gen)
        orbit = {frozenset(mul[mul[h][x]][inv[h]] for x in rep) for h in range(len(group))}
        assert len(rep) == order and len(orbit) == size
        members += orbit
    assert len(members) == len(first) - 1
    assert set(members) == {sub for sub in first if len(sub) > 1}


def test_is_group_rejects_broken_sets():
    group = closure(sign_generators())
    assert is_group(group)
    assert not is_group(group[:-1])
    assert not is_group([g for g in group if not g.is_identity()])
    assert not is_group([])
    rng = random.Random(5150)
    for _ in range(20):
        subset = [g for g in group if not g.is_identity()]
        rng.shuffle(subset)
        chopped = [group[0]] + subset[:2]
        assert not is_group(chopped)


def test_is_group_random_closed_subsets():
    group = closure(fermat_generators())
    rng = random.Random(24680)
    for _ in range(10):
        g = group[rng.randrange(len(group))]
        assert is_group(sorted(cyclic_subgroup(g), key=lambda m: m.key()))


# the group a verdict reads ---------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(stem):
    return serialize.parse_input((FIXTURES / f"{stem}.json").read_text(encoding="utf-8")).value


def fixture_pairs():
    """(curve, generators) for every curve fixture with a group fixture."""
    stems = sorted(p.name[:-len("_gens.json")] for p in FIXTURES.glob("*_gens.json"))
    return ([(fixture(stem), fixture(f"{stem}_gens")) for stem in stems]
            + [(fixture("bielliptic_quartic"), fixture("bielliptic_quartic_nu"))])


def test_automorphism_group_is_the_closure_of_the_lifted_generators():
    pairs = fixture_pairs()
    assert len(pairs) == 13
    for curve, gens in pairs:
        group = matgroup.automorphism_group(curve, gens)
        order = common_order(curve.order, *[g.order for g in gens])
        expected = closure([g.lift_to(order) for g in gens])
        assert (group.elements, group.mul, group.inv, group.gens) == (
            expected.elements, expected.mul, expected.inv, expected.gens)
    fermat = fixture("fermat_quartic")
    trivial = matgroup.automorphism_group(fermat, [])
    assert list(trivial) == [ProjMap.identity(fermat.order)]
    assert signature(fermat, []) == Signature(3, ())


def _four_lines():
    # x^4 + y^4 + z^4 - 2(x^2 y^2 + y^2 z^2 + z^2 x^2), the lines x +- y +- z = 0
    terms = [(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4)),
             (-2, (2, 2, 0)), (-2, (0, 2, 2)), (-2, (2, 0, 2))]
    return PlaneCurve(SparsePoly.build(1, 3, terms))


def _refusal_inputs(case):
    """(curve, mu, generators) that both verdict engines must refuse alike."""
    swap = ProjMap.permutation(1, [1, 0, 2])
    if case == "degree 8":
        octic = PlaneCurve(SparsePoly.build(1, 3, [(1, (8, 0, 0)), (1, (0, 8, 0)), (1, (0, 0, 8))]))
        return octic, ProjMap.identity(1), [swap]
    if case == "singular":
        return _four_lines(), ProjMap.identity(1), [swap]
    nu, flip = fixture("bielliptic_quartic_nu")[0], fixture("sign_flip_x")
    gens = [flip] + [nu] * 8 if case == "nine generators" else [nu, flip]
    return fixture("bielliptic_quartic"), fixture("bielliptic_quartic_mu"), gens


@pytest.mark.parametrize("case, error, message, checked", [
    ("degree 8", BoundExceeded, "plane curve degree 8 exceeds the bound 7", False),
    ("singular", HypothesisViolation, "plane curve is singular", False),
    ("nine generators", BoundExceeded, "9 generators with bound 360 exceed the closure work "
                                       "bound 2880 (generators times bound); drop redundant "
                                       "generators", False),
    ("not an automorphism", NotAnAutomorphism, "group element does not preserve the curve", True),
])
def test_verdict_engines_refuse_their_group_alike(case, error, message, checked, monkeypatch):
    """signature and weil_descent_order2 build their group through
    automorphism_group, so each refuses these inputs with the same class and
    message; only the last input reaches a generator check."""
    curve, mu, gens = _refusal_inputs(case)
    checks, real = [], plane.is_isomorphism_onto

    def spy(source, target, mapping):
        checks.append(mapping)
        return real(source, target, mapping)

    monkeypatch.setattr(plane, "is_isomorphism_onto", spy)
    for engine in (lambda: signature(curve, gens), lambda: weil_descent_order2(curve, mu, gens)):
        checks.clear()
        with pytest.raises(OddsigError) as info:
            engine()
        assert (type(info.value), str(info.value)) == (error, message)
        assert bool(checks) == checked
