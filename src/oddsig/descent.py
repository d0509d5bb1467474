"""Order-2 Galois descent on plane curves and the symmetric quartic family.

The conjugation case of Weil's criterion: a curve X with X isomorphic to its
conjugate descends to the reals exactly when some isomorphism phi onto the
conjugate curve has identity cocycle defect conj(phi) o phi. The candidates
are mu o alpha for alpha in the group G that matgroup.automorphism_group
closes from the supplied automorphisms; every defect is an automorphism, so
one outside G refuses the input.

The second half implements the quartic family

    x^4 + y^4 + z^4 + a x^2 y^2 + b x^2 z^2 + c y^2 z^2 = 0

whose members are classified up to isomorphism by sign-and-permutation moves
on the triple (a, b, c). Each move is realized by an explicit projective map
that works uniformly in the triple, which turns Galois descent questions
about a member into finite searches through a 24-element group.

matgroup, plane and polyring are reached as modules, so the invariants, the
moduli field and the refused cycle case run none of them.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

from . import matgroup, plane, polyring
from .errors import (
    CocycleFailure,
    DegenerateTriple,
    HypothesisViolation,
    ImageTooLarge,
    ImpossibleCase,
)
from .exactnum import CyclotomicElement, as_element, common_order, galois_exponents

DEFINABLE = "DEFINABLE"
OBSTRUCTED = "OBSTRUCTED"
INCONCLUSIVE = "INCONCLUSIVE"

SWAP = "swap"
CYCLE = "cycle"
NEGATE_AB = "negate-ab"
NEGATE_BC = "negate-bc"


class _VerdictFields(NamedTuple):
    status: str
    witness: Optional[plane.ProjMap]
    defects: tuple
    assumptions: tuple[str, ...]
    citation: str
    field: Optional[str] = None
    assignment: Optional[tuple] = None


class DescentVerdict(_VerdictFields):
    """Outcome of a descent check, with the evidence that produced it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.status not in (DEFINABLE, OBSTRUCTED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict status {self.status!r}")
        if (self.witness is not None) != (self.status == DEFINABLE):
            raise ValueError("witness is present exactly for definable verdicts")
        return self


_ORDER2_CITATION = ("Weil cocycle criterion for the order-2 Galois action: "
                    "some isomorphism onto the conjugate curve must have "
                    "identity defect conj(phi) o phi")


def weil_descent_order2(curve: plane.PlaneCurve, mu: plane.ProjMap,
                        aut_generators: Sequence[plane.ProjMap]) -> DescentVerdict:
    """Decide real definability given one isomorphism onto the conjugate.

    The candidates are mu o alpha for alpha in the group G that
    matgroup.automorphism_group closes over the field of the curve, mu and
    the generators, so the verdict does not depend on the mu supplied; G's
    curve check makes the list complete. A defect outside G is an
    automorphism that G lacks, which disproves the stated assumption, so
    the input is refused."""
    curve = curve.lift_to(common_order(curve.order, mu.order))
    group = matgroup.automorphism_group(curve, aut_generators)
    plane.require_isomorphism(curve, curve.conjugate(), mu)
    members = set(group)
    mu = mu.lift_to(group[0].order)
    # mu o alpha is distinct for distinct alpha, and group[0] is the identity
    candidates = [mu] + sorted((mu @ alpha for alpha in group[1:]), key=plane.ProjMap.key)
    defects = []
    witness = None
    for phi in candidates:
        defect = phi.conjugate() @ phi
        if defect not in members:
            raise HypothesisViolation("a cocycle defect lies outside the group of the supplied "
                                      "generators, so they miss an automorphism")
        if defect.is_identity() and witness is None:
            witness = phi
        defects.append((phi, defect))
    return DescentVerdict(
        status=DEFINABLE if witness is not None else OBSTRUCTED,
        witness=witness,
        defects=tuple(defects),
        assumptions=("the supplied generators produce the full automorphism "
                     "group; with extra automorphisms the candidate list "
                     "would be larger",),
        citation=_ORDER2_CITATION,
        field="R" if witness is not None else None,
    )


def bielliptic_quartic(a1, a2, a3, order: int) -> plane.PlaneCurve:
    """y^4 + y^2 (x - a1 z)(x + z/a1) + prod_{i=2,3} (x - ai z)(x + z/conj(ai)).

    Smooth members are genus-3 curves with the visible involution
    (x : -y : z); the shape of the degree-4 part ties the curve to its
    conjugate whenever a1 is real and a2 a3 is real."""
    vals = [as_element(v, order) for v in (a1, a2, a3)]
    if any(v.is_zero() for v in vals):
        raise DegenerateTriple("coefficients must be nonzero")
    a1, a2, a3 = vals
    one = CyclotomicElement.one(order)

    def pair(root, coroot):
        # (x - root z)(x + coroot z) as coefficients on x^2, xz, z^2
        return [one, coroot - root, -(root * coroot)]

    quad = pair(a1, a1.inverse())
    quart = polyring.uni_mul(pair(a2, a2.conjugate().inverse()),
                             pair(a3, a3.conjugate().inverse()))
    entries = [(one, (0, 4, 0))]
    for i, coeff in enumerate(quad):
        if not coeff.is_zero():
            entries.append((coeff, (2 - i, 2, i)))
    for i, coeff in enumerate(quart):
        if not coeff.is_zero():
            entries.append((coeff, (4 - i, 0, i)))
    return plane.PlaneCurve(polyring.SparsePoly.build(order, 3, entries))


# the symmetric quartic family --------------------------------------------------

class _TripleFields(NamedTuple):
    a: CyclotomicElement
    b: CyclotomicElement
    c: CyclotomicElement


class FamilyTriple(_TripleFields):
    """Coefficient triple (a, b, c) of a smooth member with distinct squares."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        o = common_order(*[v.order for v in (a, b, c) if isinstance(v, CyclotomicElement)])
        vals = [as_element(v, o) for v in (a, b, c)]
        squares = [v * v for v in vals]
        for i in range(3):
            for j in range(i + 1, 3):
                if squares[i] == squares[j]:
                    raise DegenerateTriple(
                        "coefficient squares must be pairwise distinct")
        four = CyclotomicElement.from_rational(4, o)
        if any(s == four for s in squares):
            raise DegenerateTriple("singular member: a coefficient square is 4")
        if squares[0] + squares[1] + squares[2] - vals[0] * vals[1] * vals[2] == four:
            raise DegenerateTriple(
                "singular member: a^2 + b^2 + c^2 - abc equals 4")
        return super().__new__(cls, *vals)

    @property
    def order(self) -> int:
        return self.a.order

    def lift_to(self, order: int) -> "FamilyTriple":
        return FamilyTriple(*[v.lift_to(order) for v in self])

    def galois(self, exponent: int) -> "FamilyTriple":
        return FamilyTriple(*[v.galois(exponent) for v in self])

    def conjugate(self) -> "FamilyTriple":
        return self.galois(-1)


def family_curve(t: FamilyTriple) -> plane.PlaneCurve:
    order = t.order
    one = CyclotomicElement.one(order)
    entries = [(one, (4, 0, 0)), (one, (0, 4, 0)), (one, (0, 0, 4))]
    for coeff, exps in ((t.a, (2, 2, 0)), (t.b, (2, 0, 2)), (t.c, (0, 2, 2))):
        if not coeff.is_zero():
            entries.append((coeff, exps))
    return plane.PlaneCurve(polyring.SparsePoly.build(order, 3, entries))


def family_invariants(t: FamilyTriple):
    """(abc, sum of squares, sum of fourth powers, sum, sum of cubes)."""
    a, b, c = t
    j1 = a * b * c
    j2 = a * a + b * b + c * c
    j3 = a ** 4 + b ** 4 + c ** 4
    j4 = a + b + c
    j5 = a ** 3 + b ** 3 + c ** 3
    return j1, j2, j3, j4, j5


class TripleMove(NamedTuple):
    """One symmetry of the family: permute the triple, then flip signs."""

    perm: tuple[int, int, int]
    signs: tuple[int, int, int]
    map: plane.ProjMap

    def apply(self, t: FamilyTriple) -> FamilyTriple:
        vals = [t[self.perm[i]] * self.signs[i] for i in range(3)]
        return FamilyTriple(*vals)

    def compose(self, other: "TripleMove") -> "TripleMove":
        """self applied after other."""
        perm = tuple(other.perm[self.perm[i]] for i in range(3))
        signs = tuple(self.signs[i] * other.signs[self.perm[i]] for i in range(3))
        return TripleMove(perm, signs, self.map @ other.map)

    def is_identity(self) -> bool:
        return self.perm == (0, 1, 2) and self.signs == (1, 1, 1)

    def plain(self) -> bool:
        """True for pure permutations, the moves defined without i."""
        return self.signs == (1, 1, 1)

    def key(self):
        return (self.perm, self.signs)


def _generator_moves() -> dict[str, TripleMove]:
    i = CyclotomicElement.zeta(4, 1)
    return {
        SWAP: TripleMove((1, 0, 2), (1, 1, 1), plane.ProjMap.permutation(4, [0, 2, 1])),
        CYCLE: TripleMove((1, 2, 0), (1, 1, 1), plane.ProjMap.permutation(4, [1, 2, 0])),
        NEGATE_AB: TripleMove((0, 1, 2), (-1, -1, 1), plane.ProjMap.diagonal(4, i, 1, 1)),
        NEGATE_BC: TripleMove((0, 1, 2), (1, -1, -1), plane.ProjMap.diagonal(4, 1, 1, i)),
    }


@functools.cache
def _moves() -> tuple[TripleMove, ...]:
    gens = list(_generator_moves().values())
    identity = TripleMove((0, 1, 2), (1, 1, 1), plane.ProjMap.identity(4))
    seen = {identity.key(): identity}
    queue = [identity]
    while queue:
        cur = queue.pop(0)
        for gen in gens:
            nxt = gen.compose(cur)
            if nxt.key() not in seen:
                seen[nxt.key()] = nxt
                queue.append(nxt)
    return tuple(seen[k] for k in sorted(seen))


def family_symmetries() -> list[TripleMove]:
    """The 24 triple moves, sorted by key; the 6 with plain() true are the
    pure permutations."""
    return list(_moves())


def family_isomorphic(t: FamilyTriple, t2: FamilyTriple,
                      field_contains_i: bool = True) -> Optional[TripleMove]:
    """The unique move carrying t to t2, or None.

    Uniqueness holds because distinct squares leave no move fixing a valid
    triple; searched over all 24 moves, or the 6 permutations when the
    coefficient field lacks i."""
    order = common_order(t.order, t2.order)
    t, t2 = t.lift_to(order), t2.lift_to(order)
    for move in _moves():
        if (field_contains_i or move.plain()) and move.apply(t) == t2:
            return move
    return None


def family_aut_generators(order: int = 1) -> list[plane.ProjMap]:
    """Sign involutions generating the automorphisms of a generic member."""
    o = common_order(order, 2)
    minus = CyclotomicElement.from_rational(-1, o)
    return [plane.ProjMap.diagonal(o, minus, 1, 1), plane.ProjMap.diagonal(o, 1, minus, 1)]


def family_real_definability(t: FamilyTriple,
                             case: Optional[str] = None) -> DescentVerdict:
    """Real descent for a family member via the conjugate-matching move.

    With case given, insists the conjugate triple matches that one
    generator; the pure cycle case is impossible, since it forces
    a = b = c real against the distinct-squares requirement."""
    if case == CYCLE:
        raise ImpossibleCase(
            "conjugation matching the pure cycle forces a = b = c real, "
            "excluded by the distinct-squares requirement")
    move = family_isomorphic(t, t.conjugate(), field_contains_i=True)
    if case is not None:
        gens = _generator_moves()
        if case not in gens:
            raise HypothesisViolation(f"unknown case {case!r}")
        if move is None or move.key() != gens[case].key():
            raise HypothesisViolation(
                f"conjugate triple does not match the {case} move")
    if move is None:
        return DescentVerdict(
            status=INCONCLUSIVE,
            witness=None,
            defects=(),
            assumptions=("no family symmetry carries the triple to its "
                         "conjugate, so the real moduli field is larger "
                         "than the reals and descent is not the question",),
            citation="family classification by sign-and-permutation moves",
        )
    return weil_descent_order2(family_curve(t), move.map, family_aut_generators(t.order))


def family_moduli_field(t: FamilyTriple, field_contains_i: bool = True) -> dict:
    """Generators of the moduli field: (j1, j2, j3), or (j2, j4, j5) without i."""
    j1, j2, j3, j4, j5 = family_invariants(t)
    gens = (j1, j2, j3) if field_contains_i else (j2, j4, j5)
    names = ("j1", "j2", "j3") if field_contains_i else ("j2", "j4", "j5")
    rational = all(g.is_rational() for g in gens)
    label = "Q" if rational else f"Q({', '.join(names)})"
    return {
        "generators": dict(zip(names, gens)),
        "rational": rational,
        "field": label,
    }


def family_rational_descent(t: FamilyTriple) -> DescentVerdict:
    """Descent to the rational moduli field via an explicit cocycle.

    Every field automorphism fixing the invariants moves the triple by a
    pure permutation; assigning each one its permutation map and verifying
    the cocycle identity over all pairs certifies a model over the field
    generated by (j1, j2, j3)."""
    t = t.lift_to(common_order(t.order, 4))
    order = t.order
    exponents = galois_exponents(order)
    assignment = {}
    for k in exponents:
        image = t.galois(k)
        move = family_isomorphic(t, image, field_contains_i=True)
        if move is None:
            return DescentVerdict(
                status=INCONCLUSIVE,
                witness=None,
                defects=(),
                assumptions=("some field automorphism moves the triple off "
                             "its symmetry orbit, so the moduli field is "
                             "larger than the fixed field of the invariants",),
                citation="family classification by sign-and-permutation moves",
            )
        if not move.plain():
            raise ImageTooLarge(
                "a field automorphism acts through a sign flip; the cocycle "
                "construction needs the action to stay inside the pure "
                "permutations")
        assignment[k] = move
    defects = []
    for k in exponents:
        for l in exponents:
            kl = (k * l) % order or order
            composed = assignment[l].compose(assignment[k])
            expected = assignment[kl]
            defect = expected.map.inverse() @ composed.map
            defects.append(((k, l), defect))
            if composed.key() != expected.key() or not defect.is_identity():
                raise CocycleFailure(
                    f"cocycle identity fails at exponents ({k}, {l}); "
                    f"defect table: {[(p, d.key()) for p, d in defects]}")
    j1, j2, j3 = family_invariants(t)[:3]
    rational = all(j.is_rational() for j in (j1, j2, j3))
    conj = order - 1 if order > 2 else 1
    return DescentVerdict(
        status=DEFINABLE,
        witness=assignment[conj].map,
        defects=tuple(defects),
        assumptions=("the assigned permutation maps have rational entries, "
                     "so twisting by a field automorphism fixes them",),
        citation="Weil cocycle criterion over the invariant field, verified "
                 "on all pairs of field automorphisms",
        field="Q" if rational else "Q(j1, j2, j3)",
        assignment=tuple(sorted((k, m.map) for k, m in assignment.items())),
    )
