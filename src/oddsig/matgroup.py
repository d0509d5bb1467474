"""Finite matrix groups in PGL_3 generated by explicit maps.

closure returns a FiniteGroup: a sequence of ProjMap values in the order
breadth-first closure discovers them, so reports stay deterministic, with
the identity at index 0. Alongside the elements it keeps the index of each
lifted generator and integer tables for the product and the inverse, filled
from the products closure computes anyway. Cyclic subgroups, and their
conjugacy classes as integer rows (order, size, generator), come from those
tables; only closure multiplies maps.
element_order, which no library path calls, raises the stored
representative to powers with the same sparse product, unnormalized, to
read off the scalar A^n = c * I. Closure lifts its generators to their
lcm field, refuses one that fails a necessary test for finite order
(integrality through CyclotomicElement.is_integral, and a trace bound)
before it multiplies anything, and refuses to grow past a configurable
bound instead of looping on an infinite group that passes the test; before
all this, it refuses more generators than that bound needs, through
require_closure_work. automorphism_group builds the group every verdict
reads, the closure of checked automorphisms of a curve the theorem covers;
ramify and descent call it and check nothing of their own before it.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import plane
from .errors import BoundExceeded, HypothesisViolation, NotAnAutomorphism
from .exactnum import CyclotomicElement, common_order, euler_phi, galois_exponents
from .plane import ProjMap, char_poly, matrix_product

# Harui (arXiv:1306.5842): a smooth plane curve of degree d >= 4 has at most
# 6d^2 automorphisms, apart from the Klein quartic (168) and the Wiman sextic
# (360); over the verdict degrees 4..7 the largest order is 360.
DEFAULT_BOUND = 360

# Closure costs up to r * bound products for r generators. Each generator
# that is not redundant at least doubles the order, so 8 of them generate
# any group of order at most DEFAULT_BOUND = 360 < 2^9.
MAX_CLOSURE_WORK = 8 * DEFAULT_BOUND


class FiniteGroup(Sequence):
    """Elements of a finite subgroup of PGL_3 with integer group tables.

    elements[mul[a][b]] is elements[a] @ elements[b], elements[inv[a]] is
    the inverse of elements[a], and elements[0] is the identity. gens holds
    the index of each lifted generator, in the order given."""

    __slots__ = ("elements", "gens", "mul", "inv")

    def __init__(self, elements: tuple[ProjMap, ...], gens: tuple[int, ...],
                 mul: list[list[int]], inv: list[int]):
        self.elements = elements
        self.gens = gens
        self.mul = mul
        self.inv = inv

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, index):
        return self.elements[index]

    def __iter__(self):
        return iter(self.elements)


def _require_finite_order(a: ProjMap) -> None:
    """Refuse a map that fails a necessary test for finite order in PGL_3.

    B = A^3 / det A does not change when A is scaled, and det B = 1. If
    A^n = c * I then B^n = I, so the eigenvalues of B are roots of unity
    with product 1. Hence the coefficients of charpoly(B) are algebraic
    integers, that is, of denominator 1 in the power basis of Q(zeta_N),
    and e2(B) = e3(B) * sum(1/beta) = conj(tr B). Each of the phi(N)
    embeddings of tr B is a sum of three roots of unity, of absolute value
    at most 3, so Tr_{K/Q}(tr B * conj(tr B)) <= 9 phi(N). The test reads
    the raw B: canonical scaling would change its coefficients. Integrality
    is CyclotomicElement.is_integral, since Z[zeta_N] is the ring of integers.
    A unipotent map passes the test, and the closure bound stops that one."""
    m = a.entries
    cube = matrix_product(matrix_product(m, m, a.order), m, a.order)
    scale = a.det().inverse()
    b = [[c if c.is_zero() else c * scale for c in row] for row in cube]
    e1, e2, e3 = char_poly(b)
    size = e1.abs2()
    trace = sum(size.galois(k) for k in galois_exponents(a.order))
    if (not all(e.is_integral() for e in (e1, e2, e3)) or e2 != e1.conjugate()
            or trace.as_rational() > 9 * euler_phi(a.order)):
        raise HypothesisViolation("generator of infinite order: A^3 / det A fails "
                                  "the root-of-unity test on its characteristic polynomial")


def require_closure_work(count: int, bound: int = DEFAULT_BOUND) -> None:
    """Refuse count generators that closure up to bound would not take:
    automorphism_group runs this before it checks any generator."""
    if count * bound > MAX_CLOSURE_WORK:
        raise BoundExceeded(
            f"{count} generators with bound {bound} exceed the closure work bound "
            f"{MAX_CLOSURE_WORK} (generators times bound); drop redundant generators")


def closure(generators: Sequence[ProjMap], bound: int = DEFAULT_BOUND) -> FiniteGroup:
    """Breadth-first closure of the generated subgroup of PGL_3."""
    if not generators:
        raise ValueError("need at least one generator")
    require_closure_work(len(generators), bound)
    order = common_order(*[g.order for g in generators])
    gens = [g.lift_to(order) for g in generators]
    for g in gens:
        _require_finite_order(g)
    out = [ProjMap.identity(order)]
    index = {out[0]: 0}
    right: list[list[int]] = []   # right[x][s] = index of out[x] @ gens[s]
    origin = [None]               # origin[b] = (p, s) with out[b] first reached as out[p] @ gens[s]
    for x, current in enumerate(out):  # out doubles as the BFS queue
        row = []
        for s, g in enumerate(gens):
            nxt = current @ g
            b = index.get(nxt)
            if b is None:
                b = index[nxt] = len(out)
                out.append(nxt)
                origin.append((x, s))
                if len(out) > bound:
                    raise BoundExceeded(f"group closure exceeded bound {bound}")
            row.append(b)
        right.append(row)
    # a * b = (a * p) * g_s when b = p * g_s, and p precedes b in BFS order
    mul = []
    for a in range(len(out)):
        row = [a]
        for p, s in origin[1:]:
            row.append(right[row[p]][s])
        mul.append(row)
    inv = [row.index(0) for row in mul]
    return FiniteGroup(tuple(out), tuple(right[0]), mul, inv)


def automorphism_group(curve: plane.PlaneCurve, generators: Sequence[ProjMap]) -> FiniteGroup:
    """The group a verdict reads: the closure of checked automorphisms of a
    curve the theorem covers, over Q(zeta_N) with N the lcm of the curve's
    and the generators' orders; no generators close to the trivial group.

    In this order: lifting the curve to Q(zeta_N) refuses an N above
    exactnum.MAX_ORDER; a curve that fails plane.require_verdict_curve is
    refused; require_closure_work refuses too many generators before any
    is checked; a generator that is not an automorphism raises
    NotAnAutomorphism. The closure of automorphisms consists of
    automorphisms, and on such a curve every automorphism is linear."""
    order = common_order(curve.order, *[g.order for g in generators])
    curve = curve.lift_to(order)
    plane.require_verdict_curve(curve)
    require_closure_work(len(generators))
    for g in generators:
        if not plane.is_automorphism(curve, g)[0]:
            raise NotAnAutomorphism("group element does not preserve the curve")
    return closure([g.lift_to(order) for g in generators] or [ProjMap.identity(order)])


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
    power = a.entries
    for n in range(1, bound + 1):
        scalar = _raw_scalar(power)
        if scalar is not None:
            return n, scalar
        power = matrix_product(power, a.entries, a.order)
    raise BoundExceeded(f"element order exceeded bound {bound}")


def cyclic_subgroups(group: FiniteGroup) -> dict[frozenset[int], int]:
    """Distinct cyclic subgroups as index sets, in order of first appearance,
    each mapped to the index of the first element whose powers produced it
    (a generator of the subgroup)."""
    mul = group.mul
    first: dict[frozenset[int], int] = {}
    for a in range(len(group)):
        powers = [0]
        p = a
        while p:
            powers.append(p)
            p = mul[p][a]
        first.setdefault(frozenset(powers), a)
    return first


def cyclic_subgroup_classes(group: FiniteGroup) -> list[tuple[int, int, int]]:
    """One row (order, size, generator) per conjugacy class of nontrivial
    cyclic subgroups, in order of first appearance: the order of the
    subgroups, how many the class holds, and the generator cyclic_subgroups
    gives its first member."""
    mul, inv = group.mul, group.inv
    rows: list[tuple[int, int, int]] = []
    done: set[frozenset[int]] = set()
    for rep, generator in cyclic_subgroups(group).items():
        if len(rep) > 1 and rep not in done:
            orbit = {frozenset(mul[mul[h][x]][inv[h]] for x in rep) for h in range(len(group))}
            done |= orbit
            rows.append((len(rep), len(orbit), generator))
    return rows
