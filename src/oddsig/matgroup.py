"""Finite matrix groups in PGL_3 generated by explicit maps.

Groups are plain lists of ProjMap values in the order breadth-first closure
discovers them, so reports stay deterministic. Closure refuses to grow past
a configurable bound instead of looping on an infinite group.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import BoundExceeded
from .exactnum import CyclotomicElement, common_order
from .plane import ProjMap

DEFAULT_BOUND = 360


def closure(generators: Sequence[ProjMap], bound: int = DEFAULT_BOUND) -> list[ProjMap]:
    """Breadth-first closure of the generated subgroup of PGL_3."""
    if not generators:
        raise ValueError("need at least one generator")
    order = common_order(*[g.order for g in generators])
    gens = [g.lift_to(order) for g in generators]
    identity = ProjMap.identity(order)
    seen = {identity}
    queue = [identity]
    out = [identity]
    while queue:
        current = queue.pop(0)
        for g in gens:
            nxt = current @ g
            if nxt in seen:
                continue
            seen.add(nxt)
            out.append(nxt)
            queue.append(nxt)
            if len(out) > bound:
                raise BoundExceeded(f"group closure exceeded bound {bound}")
    return out


def _raw_mul(a, b, order):
    zero = CyclotomicElement.zero(order)
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(3)), zero) for c in range(3))
        for r in range(3)
    )


def _raw_scalar(m) -> CyclotomicElement | None:
    if any(not m[r][c].is_zero() for r in range(3) for c in range(3) if r != c):
        return None
    if m[0][0] != m[1][1] or m[1][1] != m[2][2]:
        return None
    return m[0][0]


def element_order(a: ProjMap, bound: int = DEFAULT_BOUND) -> tuple[int, CyclotomicElement]:
    """Least n with A^n scalar, for the stored representative A.

    Returns (n, c) where A^n = c * identity. n is the order of the map in
    PGL_3; c depends on the canonical representative.
    """
    one = CyclotomicElement.one(a.order)
    power = tuple(tuple(one if r == c else CyclotomicElement.zero(a.order)
                        for c in range(3)) for r in range(3))
    for n in range(1, bound + 1):
        power = _raw_mul(power, a.entries, a.order)
        scalar = _raw_scalar(power)
        if scalar is not None:
            return n, scalar
    raise BoundExceeded(f"element order exceeded bound {bound}")


def cyclic_subgroup(a: ProjMap, bound: int = DEFAULT_BOUND) -> frozenset[ProjMap]:
    n, _ = element_order(a, bound)
    out = [ProjMap.identity(a.order)]
    for _ in range(n - 1):
        out.append(out[-1] @ a)
    return frozenset(out)


def cyclic_subgroups(group: Sequence[ProjMap]) -> dict[frozenset[ProjMap], ProjMap]:
    """Distinct cyclic subgroups generated by elements of the group, in order
    of first appearance, each mapped to the first element whose powers
    produced it (a generator of the subgroup)."""
    first: dict[frozenset[ProjMap], ProjMap] = {}
    for g in group:
        first.setdefault(cyclic_subgroup(g, bound=len(group) + 1), g)
    return first


def conjugate_subgroup(sub: Iterable[ProjMap], h: ProjMap) -> frozenset[ProjMap]:
    hinv = h.inverse()
    return frozenset(h @ g @ hinv for g in sub)


def subgroup_conjugacy_classes(group: Sequence[ProjMap],
                               subgroups: Sequence[frozenset[ProjMap]]) -> list[list[frozenset[ProjMap]]]:
    remaining = list(subgroups)
    classes: list[list[frozenset[ProjMap]]] = []
    while remaining:
        rep = remaining.pop(0)
        orbit = {rep}
        for h in group:
            orbit.add(conjugate_subgroup(rep, h))
        classes.append(sorted(orbit, key=lambda s: sorted(m.key() for m in s)))
        remaining = [s for s in remaining if s not in orbit]
    return classes


def is_group(elements: Sequence[ProjMap]) -> bool:
    """Brute-force check of the group axioms on a finite subset of PGL_3."""
    if not elements:
        return False
    order = elements[0].order
    if any(e.order != order for e in elements):
        return False
    pool = set(elements)
    if len(pool) != len(elements):
        return False
    if ProjMap.identity(order) not in pool:
        return False
    for a in elements:
        if a.inverse() not in pool:
            return False
        for b in elements:
            if a @ b not in pool:
                return False
    return True
