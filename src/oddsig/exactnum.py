"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a rational vector in the power basis 1, zeta, ..., zeta^(phi(N)-1),
reduced modulo the N-th cyclotomic polynomial Phi_N. It is stored as integer
numerators `num` over one positive denominator `den`, kept canonical:
gcd(den, *num) == 1, and zero has den == 1. Since Phi_N is monic over Z, every
product, Galois image and lift stays over that one denominator and needs a
single gcd to renormalise. `coords` is a read-only view of the same vector as
reduced `Fraction`s; serialize writes documents and reports from it. This
module knows no document format: serialize checks a field order or a
coordinate read from JSON before it builds an element.

zeta_N denotes the distinguished primitive root exp(2*pi*i/N) and the complex
embedding maps it there. Elements are immutable; binary operations require
equal orders (use lift_to / common_order to move into a larger field).

Galois automorphisms of Q(zeta_N) are the maps zeta |-> zeta^k with
gcd(k, N) = 1; k = -1 is complex conjugation.

No other module reads `num` or `den`: they ask is_integral, or reduce to
F_p through split_prime and residues (zeta |-> w), the images that
polyring's gcd certificate runs on.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .errors import (BoundExceeded, InternalInconsistency, InvalidExponent, NotASubfield,
                     OrderMismatch)

# Q(zeta_N) keeps tables of about 2*phi(N)^2 ints, and euler_phi factors N by
# trial division; every order a fixture, report or test uses is far below this.
MAX_ORDER = 1024

# polyring's cap on dense lists, here so that superell reads it without running
# polyring; the largest degree in use is 98 (the q-gonal member m = n = 7)
MAX_DEGREE = 128


def _factorize(n: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1 by trial division, primes
    increasing; the one factoriser behind euler_phi, _mobius and the split
    primes."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@functools.cache
def euler_phi(n: int) -> int:
    """Euler totient of a field order; an order above MAX_ORDER raises
    BoundExceeded before any factoring."""
    if n < 1:
        raise ValueError("order must be positive")
    if n > MAX_ORDER:
        raise BoundExceeded(f"field order {n} exceeds the bound {MAX_ORDER}")
    return math.prod((p - 1) * p ** (k - 1) for p, k in _factorize(n))


# Miller-Rabin on the first 13 primes as bases has no strong pseudoprime below
# this bound (Sorenson-Webster, Math. Comp. 2017), so is_prime is exact under it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality; n at or above _MR_LIMIT
    (about 3.3e24) raises BoundExceeded instead of guessing."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise BoundExceeded(f"primality of {n} is only decided below {_MR_LIMIT}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _mobius(m: int) -> int:
    """Moebius function: 0 unless m is squarefree, else -1 to the number
    of its prime factors."""
    factors = _factorize(m)
    return 0 if any(k > 1 for _, k in factors) else (-1) ** len(factors)


@functools.cache
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Phi_n as monic coefficients low to high: the product of (x^d - 1)^mu(n/d)
    over the divisors d of n, in integers. Every factor with mu = 1 is
    multiplied in first, so each division by x^d - 1 is exact."""
    exponents = [(d, _mobius(n // d)) for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d, mu in exponents:
        if mu == 1:  # times x^d - 1
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d, mu in exponents:
        if mu == -1:  # p = q (x^d - 1) gives q_i = q_(i-d) - p_i from the bottom up
            quot = []
            for i in range(len(poly) - d):
                quot.append((quot[i - d] if i >= d else 0) - poly[i])
            if [a - b for a, b in zip([0] * d + quot, quot + [0] * d)] != poly:
                raise InternalInconsistency(f"x^{d} - 1 does not divide the product for Phi_{n} exactly")
            poly = quot
    return tuple(Fraction(c) for c in poly)


class _Field:
    """Integer tables of Q(zeta_n), built on first use of the order.

    rows[k] is x^k mod Phi_n as a dense phi-vector of ints for
    0 <= k < max(n, 2*phi - 1); sparse[k] lists its nonzero (index, value)
    pairs. half_units lists the k with 1 < k < n/2 prime to n: with 1 and
    the negatives, one Galois exponent from each pair {k, -k}."""

    __slots__ = ("phi", "rows", "sparse", "half_units")

    def __init__(self, n: int):
        phi = euler_phi(n)
        modulus = [int(c) for c in cyclotomic_polynomial(n)]
        rows: list[tuple[int, ...]] = []
        current = [1] + [0] * (phi - 1)
        for _ in range(max(n, 2 * phi - 1)):
            rows.append(tuple(current))
            lead = current[-1]
            current = [0] + current[:-1]
            if lead:
                for j in range(phi):
                    current[j] -= lead * modulus[j]
        self.phi = phi
        self.rows = tuple(rows)
        self.sparse = tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in rows)
        self.half_units = tuple(k for k in range(2, (n + 1) // 2) if math.gcd(k, n) == 1)


_field = functools.cache(_Field)


def _mul_ints(a, b, field: _Field) -> list[int]:
    """Product of two integer vectors modulo Phi_n: schoolbook, then each
    x^k with k >= phi replaced by its row."""
    phi = field.phi
    prod = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    prod[j] += x * y
    out = prod[:phi]
    sparse = field.sparse
    for k in range(phi, 2 * phi - 1):
        c = prod[k]
        if c:
            for j, v in sparse[k]:
                out[j] += c * v
    return out


def _substitute_ints(a, step: int, n: int, field: _Field) -> list[int]:
    """Image of an integer vector of Q(zeta_m) under zeta_m |-> zeta_n^step,
    in the power basis of Q(zeta_n)."""
    out = [0] * field.phi
    sparse = field.sparse
    for i, c in enumerate(a):
        if c:
            for j, v in sparse[(i * step) % n]:
                out[j] += c * v
    return out


Scalar = Union[int, Fraction]


class CyclotomicElement:
    """An element of Q(zeta_N): integer numerators over one denominator."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coords: Iterable[Scalar]):
        phi = euler_phi(order)
        fracs = [Fraction(c) for c in coords]
        if len(fracs) != phi:
            raise ValueError(f"expected {phi} coordinates for order {order}, got {len(fracs)}")
        # over the lcm of reduced denominators the numerators have gcd 1 with it
        den = math.lcm(*(c.denominator for c in fracs))
        _set_order(self, order)
        _set_num(self, tuple(c.numerator * (den // c.denominator) for c in fracs))
        _set_den(self, den)

    def __setattr__(self, *_):
        raise AttributeError("CyclotomicElement is immutable")

    def __reduce__(self):  # copy and pickle rebuild through _new, not __setattr__
        return _new, (self.order, self.num, self.den)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as reduced Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # constructors -------------------------------------------------------
    @classmethod
    def zero(cls, order: int) -> "CyclotomicElement":
        return _new(order, (0,) * euler_phi(order), 1)

    @classmethod
    def one(cls, order: int) -> "CyclotomicElement":
        return _new(order, (1,) + (0,) * (euler_phi(order) - 1), 1)

    @classmethod
    def from_rational(cls, value: Scalar, order: int) -> "CyclotomicElement":
        if type(value) is not int:
            value = Fraction(value)
        return _new(order, (value.numerator,) + (0,) * (euler_phi(order) - 1), value.denominator)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicElement":
        """zeta_order ** power."""
        return _new(order, _field(order).rows[power % order], 1)

    # helpers ------------------------------------------------------------
    def _coerce(self, other) -> Optional["CyclotomicElement"]:
        if isinstance(other, CyclotomicElement):
            if other.order != self.order:
                raise OrderMismatch(f"orders {self.order} and {other.order} differ; lift first")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.from_rational(other, self.order)
        return None

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_integral(self) -> bool:
        """True when the element lies in Z[zeta_N], the ring of integers."""
        return self.den == 1

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    # arithmetic ---------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _make(self.order, [a + b for a, b in zip(self.num, o.num)], da)
        return _make(self.order, [a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _make(self.order, [a - b for a, b in zip(self.num, o.num)], da)
        return _make(self.order, [a * db - b * da for a, b in zip(self.num, o.num)], da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.order, _mul_ints(self.num, o.num, _field(self.order)), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """1/a = prod_{k != 1} sigma_k(a) / Norm(a), over the units k mod N."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if self.is_one():  # a monic leading coefficient: no norm to compute
            return self
        n = self.order
        field = _field(n)
        a = self.num
        others = [1]  # the empty product when N <= 2, where Q(zeta_N) = Q
        if n > 2:
            # sigma_k(a) * sigma_-k(a) = sigma_k(a * conj(a)) halves the products
            conj = _substitute_ints(a, n - 1, n, field)
            real = _mul_ints(a, conj, field)
            others = conj
            for k in field.half_units:
                others = _mul_ints(others, _substitute_ints(real, k, n, field), field)
        # a * others is the norm of the numerator vector, a nonzero rational
        norm = _mul_ints(a, others, field)[0]
        den = self.den if norm > 0 else -self.den
        return _make(n, [den * c for c in others], abs(norm))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        result, exponent = CyclotomicElement.one(self.order), abs(exponent)
        while exponent:  # repeated squaring
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, CyclotomicElement):
            return self.order == other.order and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator and self.den == other.denominator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        return f"CyclotomicElement(order={self.order}, coords={[str(c) for c in self.coords]})"

    # field structure ----------------------------------------------------
    def galois(self, exponent: int) -> "CyclotomicElement":
        """Apply zeta |-> zeta^exponent; requires gcd(exponent, order) = 1."""
        n = self.order
        k = exponent % n
        if math.gcd(k, n) != 1:
            raise InvalidExponent(f"exponent {exponent} is not invertible modulo {n}")
        return _make(n, _substitute_ints(self.num, k, n, _field(n)), self.den)

    def conjugate(self) -> "CyclotomicElement":
        return self.galois(-1)

    def abs2(self) -> "CyclotomicElement":
        """|self|^2 = self * conj(self); exact, used for |a| = |b| tests."""
        return self * self.conjugate()

    def lift_to(self, order: int) -> "CyclotomicElement":
        """Rewrite in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise NotASubfield(f"Q(zeta_{self.order}) does not embed in Q(zeta_{order}): {self.order} does not divide {order}")
        step = order // self.order
        return _make(order, _substitute_ints(self.num, step, order, _field(order)), self.den)


_set_order = CyclotomicElement.order.__set__
_set_num = CyclotomicElement.num.__set__
_set_den = CyclotomicElement.den.__set__


def _new(order: int, num: tuple[int, ...], den: int) -> CyclotomicElement:
    """An element from numerators and a denominator that are already canonical."""
    out = object.__new__(CyclotomicElement)
    _set_order(out, order)
    _set_num(out, num)
    _set_den(out, den)
    return out


def _make(order: int, num: list[int], den: int) -> CyclotomicElement:
    """An element from integer numerators over a positive denominator,
    divided by their common gcd (which sends zero to den == 1)."""
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return _new(order, tuple(num), den)


def as_element(value, order: int) -> CyclotomicElement:
    """value in Q(zeta_order): an element of a subfield is lifted, an int or
    Fraction embedded; an element of a field that does not embed raises
    NotASubfield."""
    if isinstance(value, CyclotomicElement):
        return value.lift_to(order)
    return CyclotomicElement.from_rational(value, order)


def galois_exponents(order: int) -> list[int]:
    """The units k mod order, one for each automorphism zeta |-> zeta^k."""
    return [k for k in range(1, max(order, 2)) if math.gcd(k, order) == 1]


def common_order(*orders: int) -> int:
    return math.lcm(*orders) if orders else 1


# reduction to F_p --------------------------------------------------------------

@functools.cache
def _split(order: int) -> tuple[int, int, tuple[int, ...]]:
    """split_prime's (p, w) and the powers w^i mod p for i < phi(order)."""
    p = (2**31 // order + 1) * order + 1
    while not is_prime(p):
        p += order
    factors = [r for r, _ in _factorize(order)]
    h = 2
    while True:
        w = pow(h, (p - 1) // order, p)
        if all(pow(w, order // r, p) != 1 for r in factors):
            break
        h += 1
    return p, w, tuple(pow(w, i, p) for i in range(euler_phi(order)))


def split_prime(order: int) -> tuple[int, int]:
    """The first prime p = 1 (mod order) above 2^31, and an element w of
    exact order `order` in F_p, so a root of Phi_order mod p: zeta |-> w is
    a ring map from Z[zeta][1/den] onto F_p for every den prime to p."""
    return _split(order)[:2]


def residues(elements: Sequence[CyclotomicElement]) -> Optional[list[int]]:
    """The images in F_p of elements of one field Q(zeta_N) under zeta |-> w,
    with (p, w) = split_prime(N); None when p divides a denominator."""
    if not elements:
        return []
    order = elements[0].order
    p, _, powers = _split(order)
    out = []
    for e in elements:
        if e.order != order:
            raise OrderMismatch(f"orders {order} and {e.order} differ; lift first")
        if e.den % p == 0:
            return None
        out.append(sum(map(mul, e.num, powers)) * pow(e.den, -1, p) % p)
    return out
