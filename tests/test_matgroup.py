import random

import pytest

from oddsig.errors import BoundExceeded
from oddsig.exactnum import CyclotomicElement
from oddsig.matgroup import (closure, cyclic_subgroup, cyclic_subgroups,
                             element_order, is_group,
                             subgroup_conjugacy_classes)
from oddsig.plane import ProjMap


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
    for sub in first:
        assert cyclic_subgroup(first[sub]) == sub
        assert first[sub] is next(g for g in group if cyclic_subgroup(g) == sub)


def test_subgroup_conjugacy_classes_symmetric_group():
    # permutation matrices give S_3: three conjugate involutions, one 3-cycle class
    group = closure([ProjMap.permutation(1, [1, 0, 2]), ProjMap.permutation(1, [2, 0, 1])])
    assert len(group) == 6
    subs = cyclic_subgroups(group)
    classes = subgroup_conjugacy_classes(group, subs)
    sizes = sorted((len(cls), len(cls[0])) for cls in classes)
    # one trivial class, one class of three order-2 subgroups, one order-3 subgroup
    assert sizes == [(1, 1), (1, 3), (3, 2)]


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
