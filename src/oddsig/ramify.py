"""Ramification data of a curve quotient by a finite automorphism group.

fixed_point_count works eigenvalue by eigenvalue. The candidate eigenvalues
of a map A of projective order n with A^n = c*I are the roots of
gcd(charpoly(A), x^n - c), a squarefree polynomial h of degree at most 3.
Rather than factoring h, all computations run in polyring's splitting
algebra K[x]/(m) for divisors m of h, which splits m on a zero divisor.
A one-dimensional eigenspace contributes a
fixed point when its eigenvector lies on the curve; a two-dimensional one
contributes every intersection point of the fixed line with the curve, and
a fixed line lying on the curve is rejected as input (FixedLineOnCurve).

signature assembles the quotient data. It checks only the generators of the
group: the closure of automorphisms consists of automorphisms. Conjugate
elements have equally many fixed points, Fix(h g h^-1) = h Fix(g), so it
counts fixed points once per conjugacy class of nontrivial cyclic subgroups,
at the first generator of the class, and gives that count to every subgroup
in the class. Counts of points with stabilizer exactly C come from Moebius
inversion over the poset of cyclic subgroups, branch points of each index
follow by orbit counting, and the quotient genus comes out of
Riemann-Hurwitz. The verdict is ODD exactly when the quotient
is rational and some branch index appears an odd number of times. A verified
signature first refuses, through plane.require_verdict_curve, a curve that
is singular or of degree outside 4..MAX_PLANE_DEGREE.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    FixedLineOnCurve,
    InternalInconsistency,
    NegativeGenus,
    NonIntegerBranchCount,
    NonIntegerGenus,
    NotAnAutomorphism,
    ScalarMap,
)
from .exactnum import CyclotomicElement, common_order
from .matgroup import (
    DEFAULT_BOUND,
    FiniteGroup,
    closure,
    cyclic_subgroups,
    element_order,
    subgroup_conjugacy_classes,
)
from .plane import PlaneCurve, ProjMap, is_automorphism, require_verdict_curve
from .polyring import (
    mod_branches,
    mod_gcd,
    mod_inverse,
    mod_mul,
    mod_reduce,
    mod_strip,
    split_modulus,
    uni_add,
    uni_gcd,
    uni_monic,
    uni_scale,
    uni_sub,
    uni_trim,
    zero_part,
)


@dataclass(frozen=True)
class Signature:
    """Quotient genus and ascending branch indices."""

    quotient_genus: int
    indices: tuple[int, ...]

    def __str__(self):
        inside = "; ".join([str(self.quotient_genus),
                            ", ".join(str(c) for c in self.indices)]).rstrip("; ")
        return f"({inside})"

    def index_counts(self) -> dict[int, int]:
        return dict(Counter(self.indices))


def is_odd_signature(sig: Signature) -> bool:
    if sig.quotient_genus != 0:
        return False
    return any(count % 2 == 1 for count in Counter(sig.indices).values())


def odd_signature_verdict(sig: Signature) -> str:
    return "ODD" if is_odd_signature(sig) else "INCONCLUSIVE"


# candidate eigenvalue modulus ------------------------------------------------

def _char_poly(mapping: ProjMap) -> list[CyclotomicElement]:
    m = mapping.entries
    order = mapping.order
    one = CyclotomicElement.one(order)
    tr = m[0][0] + m[1][1] + m[2][2]
    s2 = (m[0][0] * m[1][1] - m[0][1] * m[1][0]
          + m[0][0] * m[2][2] - m[0][2] * m[2][0]
          + m[1][1] * m[2][2] - m[1][2] * m[2][1])
    det = mapping.det()
    return uni_trim([-det, s2, -tr, one])


def _eigenvalue_modulus(mapping: ProjMap, bound: int) -> list[CyclotomicElement]:
    n, scalar = element_order(mapping, bound)
    order = mapping.order
    power = [CyclotomicElement.zero(order)] * (n + 1)
    power[0] = -scalar
    power[n] = CyclotomicElement.one(order)
    h = uni_gcd(_char_poly(mapping), power, order)
    if len(h) < 2:
        raise InternalInconsistency("finite order map must have an eigenvalue candidate")
    return h


# eigenvector extraction over a branch ----------------------------------------

def _b_entries(mapping: ProjMap, m, order):
    """Entries of A - x*I as residues mod m."""
    minus_one = -CyclotomicElement.one(order)
    rows = []
    for r in range(3):
        row = []
        for c in range(3):
            const = mapping.entries[r][c]
            coeffs = [const, minus_one] if r == c else [const]
            row.append(mod_reduce(uni_trim(coeffs), m, order))
        rows.append(row)
    return rows


def _adjugate(b, m, order):
    def minor(i, j):
        rs = [r for r in range(3) if r != i]
        cs = [c for c in range(3) if c != j]
        return uni_sub(mod_mul(b[rs[0]][cs[0]], b[rs[1]][cs[1]], m, order),
                       mod_mul(b[rs[0]][cs[1]], b[rs[1]][cs[0]], m, order), order)

    adj = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            entry = minor(j, i)
            if (i + j) % 2:
                entry = uni_scale(entry, -CyclotomicElement.one(order))
            adj[i][j] = mod_reduce(entry, m, order)
    return adj


def _eval_curve_at(poly, v, m, order):
    """Reduce F(v0, v1, v2) mod m for coordinates in K[x]/(m)."""
    maxdeg = [0, 0, 0]
    for exps in poly.terms:
        for i, e in enumerate(exps):
            maxdeg[i] = max(maxdeg[i], e)
    one = [CyclotomicElement.one(order)]
    powers = []
    for i in range(3):
        row = [one]
        for _ in range(maxdeg[i]):
            row.append(mod_mul(row[-1], v[i], m, order))
        powers.append(row)
    acc: list[CyclotomicElement] = []
    for exps, coeff in poly.terms.items():
        term = [coeff]
        for i, e in enumerate(exps):
            if e:
                term = mod_mul(term, powers[i][e], m, order)
        acc = uni_add(acc, term, order)
    return mod_reduce(acc, m, order)


def _bform_mul(p, q, m, order):
    out: dict[tuple[int, int], list] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = (e1[0] + e2[0], e1[1] + e2[1])
            prod = mod_mul(c1, c2, m, order)
            if not prod:
                continue
            out[key] = uni_add(out.get(key, []), prod, order)
    return {k: v for k, v in out.items() if v}


def _restrict_to_plane(poly, u, w, m, order):
    """Binary form F(s*u + t*w) with coefficients in K[x]/(m)."""
    one = [CyclotomicElement.one(order)]
    total: dict[tuple[int, int], list] = {}
    lines = []
    for i in range(3):
        form = {}
        if u[i]:
            form[(1, 0)] = u[i]
        if w[i]:
            form[(0, 1)] = w[i]
        lines.append(form)
    for exps, coeff in poly.terms.items():
        term = {(0, 0): [coeff]}
        for i, e in enumerate(exps):
            for _ in range(e):
                term = _bform_mul(term, lines[i], m, order)
        for key, val in term.items():
            total[key] = uni_add(total.get(key, []), val, order)
    return {k: v for k, v in total.items() if v}


# distinct-root counting for binary forms over K[x]/(m) ------------------------

def _deriv_in_s(dense, order):
    out = []
    for k in range(1, len(dense)):
        out.append(uni_scale(dense[k], CyclotomicElement.from_rational(k, order)))
    while out and not out[-1]:
        out.pop()
    return out


def _affine_distinct_count(dense, m, order) -> int:
    """Sum over the roots of m of the number of distinct s-roots; raises
    Split where the roots of m disagree."""
    work = mod_strip(dense, m, order)
    if not work:
        raise FixedLineOnCurve("curve contains a line fixed pointwise by a group element")
    n_eff = len(work) - 1
    if n_eff == 0:
        return 0
    deriv = _deriv_in_s(work, order)
    if not deriv:
        raise InternalInconsistency("inseparable restriction in characteristic zero")
    gdeg = len(mod_gcd(work, deriv, m, order)) - 1
    return (len(m) - 1) * (n_eff - gdeg)


def _binary_distinct_sum(form, degree, m, order) -> int:
    """Sum over the roots of m of distinct projective roots of the form."""
    at_infinity, finite = split_modulus(m, zero_part(form.get((degree, 0), []), m, order), order)
    dense = [form.get((k, degree - k), []) for k in range(degree + 1)]
    total = len(at_infinity) - 1
    for part in (at_infinity, finite):
        if len(part) > 1:
            total += sum(mod_branches(lambda branch: _affine_distinct_count(dense, branch, order),
                                      part, order))
    return total


# per-eigenvalue fixed point contributions -------------------------------------

def _rank2_contribution(poly, adj, m, order) -> int:
    """Eigenvalues with a one-dimensional eigenspace: adjugate column test."""
    total = 0
    rem = uni_monic(m)
    for r in range(3):
        for c in range(3):
            if len(rem) <= 1:
                return total
            entry = mod_reduce(adj[r][c], rem, order)
            if not entry:
                continue
            g, live = split_modulus(rem, zero_part(entry, rem, order), order)
            if len(live) > 1:
                v = [mod_reduce(adj[k][c], live, order) for k in range(3)]
                on_curve = _eval_curve_at(poly, v, live, order)
                total += len(zero_part(on_curve, live, order)) - 1
            rem = g
    if len(rem) > 1:
        raise InternalInconsistency("adjugate vanished on a rank-two branch")
    return total


def _fixed_line_points(poly, row, c, entry, m, order) -> int:
    """Fixed points on the eigenplane row . v = 0, where entry = row[c] is a
    unit mod m."""
    minus_one = -CyclotomicElement.one(order)
    inv = mod_inverse(mod_reduce(entry, m, order), m, order)
    basis = []
    for idx in (k for k in range(3) if k != c):
        vec = [[], [], []]
        vec[idx] = [CyclotomicElement.one(order)]
        vec[c] = mod_reduce(uni_scale(mod_mul(row[idx], inv, m, order), minus_one), m, order)
        basis.append(vec)
    section = _restrict_to_plane(poly, basis[0], basis[1], m, order)
    return _binary_distinct_sum(section, poly.total_degree(), m, order)


def _rank1_contribution(poly, b, m, order) -> int:
    """Eigenvalues with a two-dimensional eigenspace: fixed line section."""
    total = 0
    rem = uni_monic(m)
    for r in range(3):
        for c in range(3):
            if len(rem) <= 1:
                return total
            entry = mod_reduce(b[r][c], rem, order)
            if not entry:
                continue
            g, live = split_modulus(rem, zero_part(entry, rem, order), order)
            if len(live) > 1:
                total += sum(mod_branches(
                    lambda part: _fixed_line_points(poly, b[r], c, entry, part, order), live, order))
            rem = g
    if len(rem) > 1:
        raise InternalInconsistency("scalar branch inside eigenplane handler")
    return total


def _count_eigen_branch(poly, mapping, m, order) -> tuple[int, int]:
    """(fixed point count, eigenspace dimension ledger) for eigenvalues mod m."""
    b = _b_entries(mapping, m, order)
    adj = _adjugate(b, m, order)
    g_adj = uni_monic(m)
    for r in range(3):
        for c in range(3):
            g_adj = zero_part(adj[r][c], g_adj, order) if adj[r][c] else g_adj
            if len(g_adj) == 1:
                break
        if len(g_adj) == 1:
            break
    plane_part, point_part = split_modulus(m, g_adj, order)
    count = 0
    ledger = 0
    if len(point_part) > 1:
        count += _rank2_contribution(poly, adj, point_part, order)
        ledger += len(point_part) - 1
    if len(plane_part) > 1:
        count += _rank1_contribution(poly, b, plane_part, order)
        ledger += 2 * (len(plane_part) - 1)
    return count, ledger


def fixed_point_count(curve: PlaneCurve, mapping: ProjMap,
                      bound: int = DEFAULT_BOUND) -> int:
    """Number of points of the curve fixed by a nontrivial automorphism."""
    if mapping.is_identity():
        raise ScalarMap("identity fixes the whole curve")
    ok, _ = is_automorphism(curve, mapping)
    if not ok:
        raise NotAnAutomorphism("map does not preserve the curve")
    order = common_order(curve.order, mapping.order)
    poly = curve.poly.lift_to(order)
    lifted = mapping.lift_to(order)
    h = _eigenvalue_modulus(lifted, bound)
    count, ledger = _count_eigen_branch(poly, lifted, h, order)
    if ledger != 3:
        raise InternalInconsistency(
            f"eigenspace dimensions of a finite-order map sum to {ledger}, not 3")
    return count


# quotient signature -----------------------------------------------------------

def signature(curve: PlaneCurve, group: Sequence[ProjMap],
              bound: int = DEFAULT_BOUND, verify: bool = True) -> Signature:
    """Signature of the quotient of the curve by the given full group.

    A FiniteGroup from closure is taken as it is; any other sequence is a
    generating set, closed here after its elements are verified. With
    verify, the curve must also pass plane.require_verdict_curve: smooth of
    degree 4 to MAX_PLANE_DEGREE, where every automorphism is linear."""
    if len(group) == 0:
        raise ValueError("empty group")
    generators = group.generators if isinstance(group, FiniteGroup) else group
    if verify:
        require_verdict_curve(curve)
        for g in generators:
            ok, _ = is_automorphism(curve, g)
            if not ok:
                raise NotAnAutomorphism("group element does not preserve the curve")
    if not isinstance(group, FiniteGroup):
        group = closure(group, bound)
    size = len(group)
    genus_top = curve.genus()
    if size == 1:
        return Signature(genus_top, ())
    subgroups = cyclic_subgroups(group)
    count_of: dict[frozenset[int], int] = {}
    for cls in subgroup_conjugacy_classes(group, subgroups):
        if len(cls[0]) > 1:
            count = fixed_point_count(curve, group[subgroups[cls[0]]], bound)
            count_of.update((sub, count) for sub in cls)
    # a point fixed by one generator of a cyclic subgroup is fixed by all of them
    fixed = {sub: count_of[sub] for sub in subgroups if len(sub) > 1}
    exact: dict[frozenset, int] = {}
    for sub in sorted(fixed, key=len, reverse=True):
        above = sum(exact[other] for other in exact if sub < other)
        exact[sub] = fixed[sub] - above
        if exact[sub] < 0:
            raise InternalInconsistency("negative stabilizer count in the Moebius inversion")
    totals: Counter[int] = Counter()
    for sub, value in exact.items():
        totals[len(sub)] += value
    indices: list[int] = []
    for c in sorted(totals):
        points, rem = divmod(totals[c] * c, size)
        if rem:
            raise NonIntegerBranchCount(
                f"index {c} stabilizer total {totals[c]} is not a multiple of {size // c}")
        indices.extend([c] * points)
    ramification = sum((size // c) * (c - 1) for c in indices)
    numerator = 2 * genus_top - 2 - ramification
    twice, rem = divmod(numerator, size)
    if rem:
        raise NonIntegerGenus("Riemann-Hurwitz count is not divisible by the group order")
    quotient_genus, rem = divmod(twice + 2, 2)
    if rem:
        raise NonIntegerGenus("Riemann-Hurwitz count gives a half-integer genus")
    if quotient_genus < 0:
        raise NegativeGenus("quotient genus came out negative")
    return Signature(quotient_genus, tuple(indices))


# plane quartic strata ----------------------------------------------------------

def plane_quartic_stratum_rows() -> list[dict]:
    """Automorphism strata of smooth plane quartics: group label, group order,
    quotient signature.

    Nonstandard group names are carried as opaque strings; rows are matched
    by (order, signature), never by abstract isomorphism type. The C3 row
    satisfies the odd-signature definition even though its group order is
    below 5; the verdict here follows the definition."""
    rows = [
        ("PSL(2,7)", 168, Signature(0, (2, 3, 7))),
        ("S3", 6, Signature(0, (2, 2, 2, 2, 3))),
        ("C2 x C2", 4, Signature(0, (2, 2, 2, 2, 2, 2))),
        ("D4", 8, Signature(0, (2, 2, 2, 2, 2))),
        ("S4", 24, Signature(0, (2, 2, 2, 3))),
        ("C4^2 : S3", 96, Signature(0, (2, 3, 8))),
        ("C4 (o) (C2)^2", 16, Signature(0, (2, 2, 2, 4))),
        ("C4 (o) A4", 48, Signature(0, (2, 3, 12))),
        ("C6", 6, Signature(0, (2, 3, 3, 6))),
        ("C9", 9, Signature(0, (3, 9, 9))),
        ("C3", 3, Signature(0, (3, 3, 3, 3, 3))),
        ("C2", 2, Signature(1, (2, 2, 2, 2))),
    ]
    return [{"group": label, "group_order": size, "signature": sig,
             "verdict": odd_signature_verdict(sig)}
            for label, size, sig in rows]
