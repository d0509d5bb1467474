"""Ramification data of a curve quotient by a finite automorphism group.

fixed_point_count reads |Fix(g)| off the Eichler trace formula (holomorphic
Lefschetz): with F o A = lambda * F on a smooth plane curve of degree d,
|Fix(g)| = 2 - t - conj(t), t = (det A / lambda) * h_{d-3}(eigenvalues of A),
and h_{d-3} comes from the characteristic polynomial of A, so every quantity
lies in Q(zeta_N) and no eigenvalue is ever computed. The formula needs a
smooth curve; signature establishes that before it counts.

signature assembles the quotient data. Its one input shape is a curve and
a list of generators, and matgroup.automorphism_group checks both and
closes the group. Conjugate elements have equally many fixed points,
Fix(h g h^-1) = h Fix(g), so it counts them once per row of
matgroup.cyclic_subgroup_classes, times the class size. A point stabilizer
is cyclic and holds one subgroup of each order dividing its own, so
inverting over the divisors of the orders gives the points with stabilizer
order exactly c; branch points of each index follow by orbit counting, and
the quotient genus from Riemann-Hurwitz.
The verdict is ODD exactly when the quotient is rational and
some branch index appears an odd number of times.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from . import exactnum, matgroup, plane
from .errors import (
    InternalInconsistency,
    NegativeGenus,
    NonIntegerBranchCount,
    NonIntegerGenus,
    NotAnAutomorphism,
    ScalarMap,
)


class Signature(NamedTuple):
    """Quotient genus and ascending branch indices."""

    quotient_genus: int
    indices: tuple[int, ...]

    def __str__(self):
        inside = "; ".join([str(self.quotient_genus),
                            ", ".join(str(c) for c in self.indices)]).rstrip("; ")
        return f"({inside})"


def is_odd_signature(sig: Signature) -> bool:
    if sig.quotient_genus != 0:
        return False
    return any(count % 2 == 1 for count in Counter(sig.indices).values())


def odd_signature_verdict(sig: Signature) -> str:
    return "ODD" if is_odd_signature(sig) else "INCONCLUSIVE"


# fixed points by the Eichler trace formula -----------------------------------

def fixed_point_count(curve: plane.PlaneCurve, mapping: plane.ProjMap) -> int:
    """Number of points of a smooth curve fixed by a nontrivial automorphism.

    Precondition: the curve is smooth of degree d >= 4. signature is the
    caller that establishes it, through matgroup.automorphism_group; on a
    singular curve the formula below means nothing.

    With F o A = lambda * F and alpha the eigenvalues of A,
    |Fix(g)| = 2 - t - conj(t), where t = (det A / lambda) * h_{d-3}(alpha)
    and h_k is the complete homogeneous symmetric polynomial, from
    h_k = e1 h_{k-1} - e2 h_{k-2} + e3 h_{k-3}, h_0 = 1, h_j = 0 for j < 0.
    - Every fixed point of a holomorphic automorphism has index 1, so the
      Lefschetz number is the count: |Fix(g)| = 2 - tr(g*|H^1), and
      tr(g*|H^1) = t + conj(t) with t the trace of g* on H^0(K).
    - On a smooth plane curve H^0(K) is the residues of P*Omega/F with
      deg P = d - 3. Pulling back gives (det A / lambda) * (P o A) Omega / F,
      and P -> P o A has trace h_{d-3}(alpha) on forms of degree d - 3.
    - Scaling A by c multiplies t by c^3 c^(d-3) / c^d = 1, so the stored
      representative does not matter; g^-1 in place of g conjugates t and
      leaves t + conj(t) unchanged.
    (Eichler trace formula: Farkas and Kra, Riemann Surfaces, V.2.)
    A trace sum that is not a rational integer, or a count outside
    [0, 2g + 2], raises InternalInconsistency."""
    if mapping.is_identity():
        raise ScalarMap("identity fixes the whole curve")
    ok, lam = plane.is_automorphism(curve, mapping)
    if not ok:
        raise NotAnAutomorphism("map does not preserve the curve")
    order = exactnum.common_order(curve.order, mapping.order)
    e1, e2, e3 = plane.char_poly(mapping.lift_to(order).entries)
    # h_{k-3}, h_{k-2}, h_{k-1} at k = 2
    h3, h2, h1 = (exactnum.CyclotomicElement.zero(order),
                  exactnum.CyclotomicElement.one(order), e1)
    for _ in range(curve.degree - 4):
        h3, h2, h1 = h2, h1, e1 * h1 - e2 * h2 + e3 * h3
    t = e3 * h1 / lam
    trace = t + t.conjugate()
    if not trace.is_rational() or trace.as_rational().denominator != 1:
        raise InternalInconsistency(f"trace of g on H^1 is {trace}, not a rational integer")
    count = 2 - int(trace.as_rational())
    if not 0 <= count <= 2 * curve.genus() + 2:
        raise InternalInconsistency(
            f"{count} fixed points lie outside [0, 2g + 2] for genus {curve.genus()}")
    return count


# quotient signature -----------------------------------------------------------

def signature(curve: plane.PlaneCurve, generators: Sequence[plane.ProjMap]) -> Signature:
    """Signature of the quotient of the curve by the group the generators
    generate, closed by matgroup.automorphism_group; its curve check is what
    makes the trace formula of fixed_point_count hold. No generators give
    the trivial quotient (g)."""
    group = matgroup.automorphism_group(curve, generators)
    size = len(group)
    # fixed[k] counts the points whose stabilizer order k divides
    fixed: Counter[int] = Counter()
    for order, count, generator in matgroup.cyclic_subgroup_classes(group):
        fixed[order] += count * fixed_point_count(curve, group[generator])
    exact: dict[int, int] = {}
    for c in sorted(fixed, reverse=True):
        exact[c] = fixed[c] - sum(value for k, value in exact.items() if k % c == 0)
        if exact[c] < 0:
            raise InternalInconsistency(f"negative count of points with stabilizer order {c}")
    indices: list[int] = []
    for c in sorted(exact):
        points, rem = divmod(exact[c] * c, size)
        if rem:
            raise NonIntegerBranchCount(
                f"index {c} stabilizer total {exact[c]} is not a multiple of {size // c}")
        indices.extend([c] * points)
    ramification = sum((size // c) * (c - 1) for c in indices)
    numerator = 2 * curve.genus() - 2 - ramification
    twice, rem = divmod(numerator, size)
    if rem:
        raise NonIntegerGenus("Riemann-Hurwitz count is not divisible by the group order")
    quotient_genus, rem = divmod(twice + 2, 2)
    if rem:
        raise NonIntegerGenus("Riemann-Hurwitz count gives a half-integer genus")
    if quotient_genus < 0:
        raise NegativeGenus("quotient genus came out negative")
    return Signature(quotient_genus, tuple(indices))
