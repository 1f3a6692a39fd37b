"""Exact arithmetic in an Eisenstein extension K = Q_p[u]/(E(u)).

An element is a vector of integer numerators over one positive common
denominator in the basis 1, pi, ..., pi^(e-1), where pi is the class of u,
reduced so that the denominator and the numerators share no factor. The
read-only `coords` view gives the same coordinates as Fractions in lowest
terms. The valuation is normalized so that v(p) = 1, hence v(pi) = 1/e.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Sequence, Union

from .errors import ZeroInversion

Rat = Union[int, Fraction]


# Miller-Rabin to the prime bases up to 41 is deterministic below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)).
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vp_rational(r: Fraction, p: int):
    """p-adic valuation of a rational; None stands for +infinity (r = 0)."""
    if r == 0:
        return None
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class Valuation:
    """A rational valuation value, or +infinity."""

    def __init__(self, value=None):
        # value None encodes +infinity
        self._v = None if value is None else Fraction(value)

    @classmethod
    def infinity(cls) -> "Valuation":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def value(self) -> Fraction:
        if self._v is None:
            raise ValueError("infinite valuation has no finite value")
        return self._v

    def _coerce(self, other):
        if isinstance(other, Valuation):
            return other
        return Valuation(other)

    def __eq__(self, other):
        other = self._coerce(other)
        return self._v == other._v

    def __lt__(self, other):
        other = self._coerce(other)
        if self._v is None:
            return False
        if other._v is None:
            return True
        return self._v < other._v

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __add__(self, other):
        other = self._coerce(other)
        if self._v is None or other._v is None:
            return Valuation.infinity()
        return Valuation(self._v + other._v)

    __radd__ = __add__

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        return "Valuation(+inf)" if self._v is None else f"Valuation({self._v})"

    def __str__(self):
        return "+inf" if self._v is None else str(self._v)


# rational helpers for polynomial arithmetic over Q, used by invert()

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a, b):
    a = _poly_trim(a)
    b = _poly_trim(b)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and _poly_trim(r):
        shift = len(r) - len(b)
        factor = r[-1] / b[-1]
        q[shift] = factor
        for i, bc in enumerate(b):
            r[shift + i] -= factor * bc
        r = _poly_trim(r)
    return _poly_trim(q), r


def _poly_ext_gcd(a, b):
    # returns (g, s, t) with s*a + t*b = g
    r0, r1 = _poly_trim(a), _poly_trim(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    return r0, s0, t0


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


class FieldSpec:
    """The field K = Q_p[u]/(E(u)) with E monic Eisenstein at p."""

    def __init__(self, p: int, ecoeffs: Sequence[int]):
        coeffs = [int(c) for c in ecoeffs]
        if p >= PRIME_BOUND:
            raise ValueError(f"p = {p} is beyond the proven primality range p < {PRIME_BOUND}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("E must be monic of degree >= 1, low-to-high coefficients")
        e = len(coeffs) - 1
        for c in coeffs[:-1]:
            if c % p != 0:
                raise ValueError("Eisenstein condition fails: coefficient not divisible by p")
        if coeffs[0] % (p * p) == 0:
            raise ValueError("Eisenstein condition fails: constant term divisible by p^2")
        self.p = p
        self.e = e
        self.ecoeffs = tuple(coeffs)
        # pi^e = -(c_0 + c_1 pi + ... + c_{e-1} pi^(e-1)): the nonzero c_i
        self._fold = tuple((i, c) for i, c in enumerate(coeffs[:-1]) if c)
        self._higher = (0,) * (e - 1)
        self._zero = _make(self, (0,) * e, 1)
        self._one = _make(self, (1,) + self._higher, 1)

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and self.p == other.p and self.ecoeffs == other.ecoeffs)

    def __hash__(self):
        return hash((self.p, self.ecoeffs))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, E={list(self.ecoeffs)})"

    def element(self, coords: Iterable[Rat]) -> "FieldElement":
        cs = list(coords)
        if len(cs) > self.e:
            raise ValueError(f"at most {self.e} coordinates expected")
        return FieldElement(self, cs + [0] * (self.e - len(cs)))

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def from_rational(self, r: Rat) -> "FieldElement":
        if type(r) is not int:
            r = Fraction(r)
            return _make(self, (r.numerator,) + self._higher, r.denominator)
        return _make(self, (r,) + self._higher, 1)

    def pi(self) -> "FieldElement":
        if self.e == 1:
            # u = pi is rational here: pi = -c0
            return self.element([-self.ecoeffs[0]])
        return self.element([0, 1])

    def eval_deriv_at_pi(self) -> "FieldElement":
        """E'(pi), evaluated exactly in the pi-power basis."""
        deriv = [i * c for i, c in enumerate(self.ecoeffs)][1:]
        acc = self.zero()
        pw = self.one()
        for c in deriv:
            acc = acc + pw * c
            pw = pw * self.pi()
        return acc

    def a_prism(self) -> "FieldElement":
        """The nilpotency scalar -E'(pi)."""
        return -self.eval_deriv_at_pi()

    def a_log(self) -> "FieldElement":
        """The nilpotency scalar -pi * E'(pi)."""
        return -(self.pi() * self.eval_deriv_at_pi())


def _vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


_new = object.__new__


def _make(spec: FieldSpec, num: tuple, den: int) -> "FieldElement":
    """Trusted constructor: num is a tuple of spec.e integers and den > 0.

    Divides out the common factor of den and num, so that every element
    has one stored form and zero is (0, ..., 0) over 1.
    """
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([n // g for n in num])
            den //= g
    x = _new(FieldElement)
    x.spec = spec
    x._num = num
    x._den = den
    return x


def _fold(spec: FieldSpec, prod: list) -> tuple:
    """The numerator tuple of the integer polynomial prod in pi, of degree
    at most 2e - 2, reduced mod E: pi^e = -(c_(e-1) pi^(e-1) + ... + c_0)."""
    e = spec.e
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        if c:
            for i, ci in spec._fold:
                prod[k - e + i] -= c * ci
    return tuple(prod[:e])


def lift(xs: Sequence["FieldElement"]):
    """(den, nums): the least common denominator of the elements xs and
    their numerator tuples over it."""
    den = lcm(*[x._den for x in xs])
    return den, [x._num if x._den == den else tuple([n * (den // x._den) for n in x._num])
                 for x in xs]


def pack(num: tuple, width: int) -> int:
    """Kronecker substitution: the numerator polynomial num at pi = 2^width.

    A sum of products of packed integers packs the sum of the product
    polynomials, and unpack reads it back (D. Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", J. Symb. Comp.
    44 (2009)).
    """
    x = 0
    for c in reversed(num):
        x = (x << width) + c
    return x


def unpack(spec: FieldSpec, x: int, width: int) -> tuple:
    """The numerator tuple of the polynomial of degree at most 2e - 2 packed
    in x, folded once mod E. Exact when every coefficient has absolute
    value below 2^(width - 1): each is then the signed residue of the
    low width bits."""
    if spec.e == 1:
        return (x,)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    prod = []
    for _ in range(2 * spec.e - 2):
        c = x & mask
        if c >= half:
            c -= mask + 1
            x = (x >> width) + 1
        else:
            x >>= width
        prod.append(c)
    prod.append(x)
    return _fold(spec, prod)


class FieldElement:
    """An element of K: integer pi-power numerators over one denominator."""

    __slots__ = ("spec", "_num", "_den")

    def __init__(self, spec: FieldSpec, coords):
        cs = [Fraction(c) for c in coords]
        if len(cs) != spec.e:
            raise ValueError(f"expected {spec.e} coordinates, got {len(cs)}")
        den = lcm(*(c.denominator for c in cs))
        self.spec = spec
        # den is the least common denominator, so no factor is left to divide out
        self._num = tuple([c.numerator * (den // c.denominator) for c in cs])
        self._den = den

    @property
    def coords(self) -> tuple:
        """The pi-power coordinates as Fractions in lowest terms."""
        den = self._den
        return tuple([Fraction(n, den) for n in self._num])

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.spec.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not FieldElement or other.spec is not self.spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._num, other._num
        if not any(b):
            return self
        if not any(a):
            return other
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _make(self.spec, tuple(map(add, a, b)), d1)
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        return _make(self.spec, tuple([x * s1 + y * s2 for x, y in zip(a, b)]), d1 * s1)

    __radd__ = __add__

    def __neg__(self):
        x = _new(FieldElement)
        x.spec = self.spec
        x._num = tuple([-n for n in self._num])
        x._den = self._den
        return x

    def __sub__(self, other):
        if type(other) is not FieldElement or other.spec is not self.spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._num, other._num
        if not any(b):
            return self
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _make(self.spec, tuple(map(sub, a, b)), d1)
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        return _make(self.spec, tuple([x * s1 - y * s2 for x, y in zip(a, b)]), d1 * s1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        spec = self.spec
        a = self._num
        if type(other) is int:
            if not other:
                return spec._zero
            return _make(spec, tuple([x * other for x in a]), self._den)
        if type(other) is not FieldElement or other.spec is not spec:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        b = other._num
        if not any(a):
            return self
        if not any(b):
            return other
        e = spec.e
        if e == 1:
            return _make(spec, (a[0] * b[0],), self._den * other._den)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _make(spec, _fold(spec, prod), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        return self.spec.from_rational(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        out = self.spec.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.from_rational(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self._num == other._num and self._den == other._den
                and (self.spec is other.spec or self.spec == other.spec))

    def __hash__(self):
        return hash((self.spec, self._num, self._den))

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element has nonzero higher coordinates")
        return Fraction(self._num[0], self._den)

    def invert(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroInversion("cannot invert zero")
        spec = self.spec
        if spec.e == 1:
            n = self._num[0]
            return _make(spec, (self._den if n > 0 else -self._den,), abs(n))
        epoly = [Fraction(c) for c in spec.ecoeffs]
        g, s, _ = _poly_ext_gcd([Fraction(n) for n in self._num], epoly)
        # s * num = g mod E; g is a nonzero constant since E is irreducible
        if len(g) != 1:
            raise ValueError(f"E = {list(spec.ecoeffs)} is not irreducible over Q")
        scale = self._den / g[0]
        _, rem = _poly_divmod([c * scale for c in s], epoly)
        return spec.element(rem)

    def _pi_adic_terms(self, start: int):
        """v_p(coordinate i) + i/e for each nonzero coordinate i >= start."""
        p, e = self.spec.p, self.spec.e
        vden = _vp_int(self._den, p)
        return [Fraction((_vp_int(n, p) - vden) * e + i, e)
                for i, n in enumerate(self._num) if i >= start and n]

    def val(self) -> Valuation:
        """min over nonzero coordinates of v_p(a_i) + i/e, +inf for zero.

        Exact because distinct i give distinct fractional parts i/e, so no
        two terms of the minimum can collide.
        """
        terms = self._pi_adic_terms(0)
        return Valuation(min(terms)) if terms else Valuation.infinity()

    def dist_to_integers(self) -> Valuation:
        """sup over integers k of val(self - k).

        With a_0 the rational coordinate and m1 the min over i >= 1 of
        v_p(a_i) + i/e: the sup is min(v_p(a_0), m1) when v_p(a_0) < 0
        (no integer can repair a pole), and m1 otherwise (integers are
        dense in Z_p, so the a_0 part can be matched arbitrarily well).
        """
        higher = self._pi_adic_terms(1)
        m1 = min(higher) if higher else None
        if self._num[0]:
            v0 = _vp_int(self._num[0], self.spec.p) - _vp_int(self._den, self.spec.p)
            if v0 < 0:
                return Valuation(v0 if m1 is None or v0 < m1 else m1)
        return Valuation.infinity() if m1 is None else Valuation(m1)

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*pi")
            else:
                terms.append(f"{c}*pi^{i}")
        return " + ".join(terms) if terms else "0"
