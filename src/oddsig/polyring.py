"""Polynomials over a fixed cyclotomic field.

SparsePoly is the plane layer's term record, with no ring arithmetic: its
terms map exponent tuples to nonzero CyclotomicElement coefficients, and the
canonical term order is graded lexicographic with earlier variables larger.
It carries structure queries, derivatives, the Galois action and
substitute_linear, the pull-back F o A that plane.is_isomorphism_onto tests:
it builds each power of a substituted linear form once, multiplies term
dicts through _term_product, and sums into one dict. The algorithms
run on one layer of univariate helpers (dense coefficient lists, low degree
first): division, the gcd and the resultant.
poly_as_ylists reads a ternary form in the chart z = 1 straight off its
terms as a y-list, a list indexed by the degree in y of dense x-lists, and
plane.is_smooth reads the line z = 0 off the terms the same way; no step
leads back from a list to a SparsePoly. superell holds a cover's f as a
list from the start, and serialize reads it as one. The module reads no
document: serialize holds a document term, and superell.build_family a
family member, to MAX_DEGREE through check_degree. The resultant takes two
y-lists and returns Res_y as an x-list, eliminating y from the Sylvester
matrix by fraction-free (Bareiss) elimination over K[x], each division by
the previous pivot an exact uni_divmod. plane.is_smooth decides the affine
chart by the gcd of a pencil of such resultants, so no arithmetic over
K[x]/(m) is needed.
uni_gcd first runs uni_coprime_mod_p, which proves gcd(a, b) = 1 from the
images in F_p[x] (Langemyr and McCallum, J. Symbolic Comput. 8, 1989) and
never disproves it; Euclid runs only when it cannot. The images come from
exactnum.split_prime and exactnum.residues, so this module never reads an
element's numerators. The list helpers read the field off their
coefficients: zero is c - c, one is c ** 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    BoundExceeded,
    InternalInconsistency,
    OrderMismatch,
    VariableCountMismatch,
    ZeroPolynomial,
)
from .exactnum import MAX_DEGREE, CyclotomicElement, as_element, residues, split_prime

Coeff = Union[int, Fraction, CyclotomicElement]


def check_degree(degree: int, what: str) -> None:
    if degree > MAX_DEGREE:
        raise BoundExceeded(f"{what} {degree} exceeds the bound {MAX_DEGREE}")


def _gl_key(exponents: tuple[int, ...]) -> tuple:
    return (sum(exponents), exponents)


class SparsePoly:
    """A polynomial in nvars variables over Q(zeta_order)."""

    __slots__ = ("order", "nvars", "terms")

    def __init__(self, order: int, nvars: int, terms: dict[tuple[int, ...], CyclotomicElement]):
        clean: dict[tuple[int, ...], CyclotomicElement] = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise VariableCountMismatch(f"bad exponent vector {exps} for {nvars} variables")
            if coeff.order != order:
                raise OrderMismatch("coefficient order differs from polynomial order")
            if not coeff.is_zero():
                clean[exps] = coeff
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("SparsePoly is immutable")

    def __reduce__(self):
        return SparsePoly, (self.order, self.nvars, self.terms)

    # constructors -------------------------------------------------------
    @classmethod
    def build(cls, order: int, nvars: int, entries: Iterable[tuple[Coeff, Sequence[int]]]) -> "SparsePoly":
        """Sum of coeff * x^exps entries (duplicates accumulate)."""
        acc: dict[tuple[int, ...], CyclotomicElement] = {}
        for coeff, exps in entries:
            c = as_element(coeff, order)
            key = tuple(int(e) for e in exps)
            acc[key] = acc[key] + c if key in acc else c
        return cls(order, nvars, acc)

    # basic structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def degree_in(self, var: int) -> int:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(e[var] for e in self.terms)

    def leading_term(self) -> tuple[tuple[int, ...], CyclotomicElement]:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        exps = max(self.terms, key=_gl_key)
        return exps, self.terms[exps]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], CyclotomicElement]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_gl_key, reverse=True)]

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.order, self.nvars, self.terms) == (other.order, other.nvars, other.terms)

    def __hash__(self):
        return hash((self.order, self.nvars, tuple(self.sorted_terms())))

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(f"v{i}^{e}" for i, e in enumerate(exps) if e) or "1"
            bits.append(f"({[str(c) for c in coeff.coords]})*{mono}")
        return "SparsePoly(" + " + ".join(bits) + ")"

    # evaluation and substitution ----------------------------------------
    def substitute_linear(self, matrix: Sequence[Sequence[CyclotomicElement]]) -> "SparsePoly":
        """Compose with a linear change of variables.

        matrix has one row per current variable; row i gives the linear form
        (in the new variables) substituted for variable i. For a projective
        map A acting on points, the pullback F o A is substitute_linear(A).
        """
        if len(matrix) != self.nvars:
            raise VariableCountMismatch("matrix row count differs from variable count")
        new_nvars = len(matrix[0])
        forms = []
        for row in matrix:
            if len(row) != new_nvars:
                raise VariableCountMismatch("ragged substitution matrix")
            forms.append({tuple(1 if j == k else 0 for j in range(new_nvars)): c
                          for k, c in enumerate(row) if not c.is_zero()})
        max_pow = [0] * self.nvars
        for exps in self.terms:
            for i, e in enumerate(exps):
                max_pow[i] = max(max_pow[i], e)
        # powers[i][e] is the term dict of (row i)^e, each built once
        one = {(0,) * new_nvars: CyclotomicElement.one(self.order)}
        powers = []
        for form, top in zip(forms, max_pow):
            row_powers = [one]
            for _ in range(top):
                row_powers.append(_term_product(row_powers[-1], form))
            powers.append(row_powers)
        acc: dict[tuple[int, ...], CyclotomicElement] = {}
        for exps, coeff in self.terms.items():
            term = {(0,) * new_nvars: coeff}
            for i, e in enumerate(exps):
                if e:
                    term = _term_product(term, powers[i][e])
            for key, c in term.items():
                acc[key] = acc[key] + c if key in acc else c
        return SparsePoly(self.order, new_nvars, acc)

    def derivative(self, var: int) -> "SparsePoly":
        out: dict[tuple[int, ...], CyclotomicElement] = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e:
                key = tuple(x - 1 if i == var else x for i, x in enumerate(exps))
                c = coeff * e
                out[key] = out[key] + c if key in out else c
        return SparsePoly(self.order, self.nvars, out)

    # field structure ----------------------------------------------------
    def galois(self, exponent: int) -> "SparsePoly":
        return SparsePoly(self.order, self.nvars, {e: c.galois(exponent) for e, c in self.terms.items()})

    def conjugate(self) -> "SparsePoly":
        return self.galois(-1)

    def lift_to(self, order: int) -> "SparsePoly":
        if order == self.order:
            return self
        return SparsePoly(order, self.nvars, {e: c.lift_to(order) for e, c in self.terms.items()})


def _term_product(a: dict, b: dict) -> dict[tuple[int, ...], CyclotomicElement]:
    """Product of two term dicts (exponent tuple -> coefficient), with the
    terms that cancel dropped."""
    out: dict[tuple[int, ...], CyclotomicElement] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            prod = c1 * c2
            out[key] = out[key] + prod if key in out else prod
    return {key: c for key, c in out.items() if not c.is_zero()}


# univariate helpers (dense lists of CyclotomicElement, low degree first) ----

def uni_trim(c: list[CyclotomicElement]) -> list[CyclotomicElement]:
    while c and c[-1].is_zero():
        c.pop()
    return c


def uni_add(a: Sequence[CyclotomicElement], b: Sequence[CyclotomicElement]) -> list[CyclotomicElement]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return uni_trim(out)


def uni_neg(a: Sequence[CyclotomicElement]) -> list[CyclotomicElement]:
    return [-x for x in a]


def uni_sub(a, b) -> list[CyclotomicElement]:
    return uni_add(a, uni_neg(b))


def uni_mul(a: Sequence[CyclotomicElement], b: Sequence[CyclotomicElement]) -> list[CyclotomicElement]:
    if not a or not b:
        return []
    out = [a[0] - a[0]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
    return uni_trim(out)


def uni_scale(a: Sequence[CyclotomicElement], s: CyclotomicElement) -> list[CyclotomicElement]:
    return uni_trim([x * s for x in a])


def uni_divmod(a: Sequence[CyclotomicElement], b: Sequence[CyclotomicElement]):
    """Euclidean division in K[x] for the cyclotomic field K."""
    if not b:
        raise ZeroPolynomial("univariate division by zero")
    a = list(a)
    q = [b[-1] - b[-1]] * max(0, len(a) - len(b) + 1)
    inv_lead = b[-1].inverse()
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] * inv_lead
        if not coef.is_zero():
            q[i] = coef
            for j, bj in enumerate(b):
                a[i + j] = a[i + j] - coef * bj
    return uni_trim(q), uni_trim(a)


def uni_monic(a: Sequence[CyclotomicElement]) -> list[CyclotomicElement]:
    a = uni_trim(list(a))
    if not a:
        return a
    return uni_scale(a, a[-1].inverse())


def uni_gcd(a: Sequence[CyclotomicElement], b: Sequence[CyclotomicElement]) -> list[CyclotomicElement]:
    """Monic gcd: 1 when uni_coprime_mod_p proves it, else Euclid (K is a field)."""
    r0, r1 = uni_trim(list(a)), uni_trim(list(b))
    if uni_coprime_mod_p(r0, r1):
        return [r0[-1] ** 0]
    while r1:
        _, r = uni_divmod(r0, r1)
        r0, r1 = r1, uni_monic(r)
    return uni_monic(r0)


def uni_coprime_mod_p(a: Sequence[CyclotomicElement], b: Sequence[CyclotomicElement]) -> bool:
    """True proves gcd(a, b) = 1 in K[x], K = Q(zeta_N); False proves nothing.

    exactnum.residues maps the coefficients to F_p by the ring map zeta |-> w
    of exactnum.split_prime. When it keeps both leading coefficients it sends
    Res(a, b) to Res(a mod p, b mod p), so a gcd of degree 0 in F_p[x] proves
    Res(a, b) != 0. A denominator or leading coefficient divisible by p, or a
    common factor mod p, returns False, and uni_gcd runs the Euclidean
    algorithm."""
    a, b = uni_trim(list(a)), uni_trim(list(b))
    if not a or not b:
        return False
    p, _ = split_prime(a[0].order)
    r0, r1 = residues(a), residues(b)
    if r0 is None or r1 is None or not r0[-1] or not r1[-1]:
        return False
    while len(r1) > 1:
        inv = pow(r1[-1], -1, p)
        top = len(r1) - 1
        for i in range(len(r0) - len(r1), -1, -1):
            coef = r0[i + top] * inv % p
            if coef:
                for j, y in enumerate(r1):
                    r0[i + j] = (r0[i + j] - coef * y) % p
        del r0[top:]
        while r0 and not r0[-1]:
            r0.pop()
        if not r0:
            return False
        r0, r1 = r1, r0
    return True


def uni_xgcd(a: Sequence[CyclotomicElement], b: Sequence[CyclotomicElement]):
    """(g, s) with s*a + t*b = g for some t, g monic (or zero)."""
    r0, r1 = uni_trim(list(a)), uni_trim(list(b))
    s0, s1 = [r0[-1] ** 0] if r0 else [], []
    while r1:
        q, r = uni_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, uni_sub(s0, uni_mul(q, s1))
    if not r0:
        return [], []
    lead_inv = r0[-1].inverse()
    return uni_scale(r0, lead_inv), uni_scale(s0, lead_inv)


def uni_derivative(a: Sequence[CyclotomicElement]) -> list[CyclotomicElement]:
    return uni_trim([a[i] * i for i in range(1, len(a))])


def poly_as_ylists(p: SparsePoly) -> list[list[CyclotomicElement]]:
    """A nonzero form p(x, y, z) read in the chart z = 1 as a y-list, a
    polynomial in y over K[x]: a list indexed by the degree in y of trimmed
    dense x-lists (zero rows are []). The term (a, b, c) of p is the
    coefficient of x^a y^b there, since c = deg p - a - b. The resultant and
    plane.is_smooth's pencil of resultants work on this layout."""
    if p.nvars != 3 or not p.is_homogeneous():
        raise VariableCountMismatch("y-lists take homogeneous forms in x, y and z")
    zero = CyclotomicElement.zero(p.order)
    rows: list[list[CyclotomicElement]] = [[] for _ in range(p.degree_in(1) + 1)]
    for (ex, ey, _), coeff in p.terms.items():
        row = rows[ey]
        if len(row) <= ex:
            row.extend([zero] * (ex + 1 - len(row)))
        row[ex] = coeff
    return rows


# resultants -----------------------------------------------------------------

def _bareiss_det(matrix: list[list[list[CyclotomicElement]]]) -> list[CyclotomicElement]:
    """Determinant of a nonempty square matrix over K[x] of dense lists.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): after step k
    every entry below and right of the pivot is a (k+2)-minor of the input,
    so the division by the previous pivot is exact in K[x]; a remainder
    raises InternalInconsistency. The pivot's leading coefficient is
    inverted once per step: each entry is divided by the monic pivot, which
    needs no inverse, and the quotient is scaled back."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    sign, prev = 1, None
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return []
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k][k]
        if prev is not None:
            inv = prev[-1].inverse()
            prev = uni_scale(prev, inv)
        for i in range(k + 1, n):
            left = m[i][k]
            for j in range(k + 1, n):
                num = uni_sub(uni_mul(top, m[i][j]), uni_mul(left, m[k][j]))
                if num and prev is not None:
                    num, rem = uni_divmod(num, prev)
                    if rem:
                        raise InternalInconsistency("Bareiss division by the previous pivot left a remainder")
                    num = uni_scale(num, inv)
                m[i][j] = num
        prev = top
    det = m[n - 1][n - 1]
    return det if sign == 1 else uni_neg(det)


def resultant(f: list[list[CyclotomicElement]], g: list[list[CyclotomicElement]]) -> list[CyclotomicElement]:
    """Sylvester resultant Res_y of the y-lists f and g (see poly_as_ylists),
    as a dense x-list; [] when f and g share a factor of positive y-degree.
    Raises ZeroPolynomial on an empty y-list."""
    if not f or not g:
        raise ZeroPolynomial("resultant of zero polynomial")
    n, m = len(f) - 1, len(g) - 1
    # m shifted rows of f's coefficients, then n of g's, highest power first
    rows = [[[]] * shift + f[::-1] + [[]] * (m - 1 - shift) for shift in range(m)]
    rows += [[[]] * shift + g[::-1] + [[]] * (n - 1 - shift) for shift in range(n)]
    # two constants in y: the empty Sylvester determinant is 1
    return _bareiss_det(rows) if rows else [f[-1][-1] ** 0]
