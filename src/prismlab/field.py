"""Exact arithmetic in an Eisenstein extension K = Q_p[u]/(E(u)).

An element is a vector of integer numerators over one positive common
denominator in the basis 1, pi, ..., pi^(e-1), where pi is the class of u,
reduced so that the denominator and the numerators share no factor. The
read-only `coords` view gives the same coordinates as Fractions in lowest
terms. The valuation is normalized so that v(p) = 1, hence v(pi) = 1/e: a
Fraction, and INF for zero.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Sequence, Union

from .errors import InputFormatError, ZeroInversion

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


def _exact(r: Rat) -> Fraction:
    """r as a Fraction. A float is refused: its value is a binary fraction,
    so 0.1 would become 3602879701896397/36028797018963968."""
    if isinstance(r, float):
        raise TypeError(f"float {r!r} is not exact; give an int, a Fraction or a string")
    return Fraction(r)


class _Infinity:
    """+infinity, the valuation of zero: above every int and Fraction,
    absorbing addition from either side, equal only to itself. INF is the
    one instance; a finite valuation is a Fraction."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "+inf"


INF = _Infinity()


def from_ev(ev, e: int):
    """The valuation ev/e of an element x with e*val(x) = ev
    (FieldElement._ev): a Fraction, or INF when ev is None."""
    return INF if ev is None else Fraction(ev, e)


class FieldSpec:
    """The field K = Q_p[u]/(E(u)) with E monic Eisenstein at p."""

    def __init__(self, p: int, ecoeffs: Sequence[int]):
        """p an int, E's coefficients ints or integral Fractions; nothing
        else is converted."""
        if type(p) is not int:
            raise InputFormatError(f"p = {p!r} is not an integer")
        coeffs = [c.numerator if type(c) is Fraction and c.denominator == 1 else c
                  for c in ecoeffs]
        if bad := [c for c in coeffs if type(c) is not int]:
            raise InputFormatError(f"E coefficient {bad[0]!r} is not an integer")
        if p >= PRIME_BOUND:
            raise InputFormatError(
                f"p = {p} is beyond the proven primality range p < {PRIME_BOUND}")
        if not _is_prime(p):
            raise InputFormatError(f"p = {p} is not prime")
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise InputFormatError("E must be monic of degree >= 1, low-to-high coefficients")
        e = len(coeffs) - 1
        for c in coeffs[:-1]:
            if c % p != 0:
                raise InputFormatError(
                    "Eisenstein condition fails: coefficient not divisible by p")
        if coeffs[0] % (p * p) == 0:
            raise InputFormatError("Eisenstein condition fails: constant term divisible by p^2")
        self.p = p
        self.e = e
        self.ecoeffs = tuple(coeffs)
        # pi^e = -(c_0 + c_1 pi + ... + c_{e-1} pi^(e-1)): the nonzero c_i
        fold = tuple((i, c) for i, c in enumerate(coeffs[:-1]) if c)
        self._mulnum, self._invnum = _product_kernel(fold, e)
        self._higher = (0,) * (e - 1)
        self._zero = _make(self, (0,) * e, 1)
        self._one = _make(self, (1,) + self._higher, 1)
        # u = pi is rational at e = 1: pi = -c_0
        self._pi = _make(self, (0, 1) + self._higher[1:] if e > 1 else (-coeffs[0],), 1)
        # the canonical scalars, built on first use
        self._a_prism = self._a_log = None

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
        cs = [_exact(c) for c in cs]
        den = lcm(*[c.denominator for c in cs])
        return _make(self, tuple([c.numerator * (den // c.denominator) for c in cs])
                     + (0,) * (self.e - len(cs)), den)

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def from_rational(self, r: Rat) -> "FieldElement":
        if type(r) is not int:
            r = _exact(r)
            return _make(self, (r.numerator,) + self._higher, r.denominator)
        return _make(self, (r,) + self._higher, 1)

    def pi(self) -> "FieldElement":
        return self._pi

    def eval_deriv_at_pi(self) -> "FieldElement":
        """E'(pi) = sum_i i c_i pi^(i-1). E' has degree e - 1, so its
        coefficients (c_1, 2 c_2, ..., e c_e) are the coordinates, with no
        reduction mod E."""
        return _make(self, tuple([i * c for i, c in enumerate(self.ecoeffs)][1:]), 1)

    def a_prism(self) -> "FieldElement":
        """The nilpotency scalar -E'(pi), built once."""
        if self._a_prism is None:
            self._a_prism = -self.eval_deriv_at_pi()
        return self._a_prism

    def a_log(self) -> "FieldElement":
        """The nilpotency scalar -pi * E'(pi), built once."""
        if self._a_log is None:
            self._a_log = self.pi() * self.a_prism()
        return self._a_log


def _vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, in O(log v) divisions: up a
    ladder of p^(2^i) while it divides n, then down it, most significant
    bit first."""
    if n % p:
        return 0
    ladder = [p]
    while n % (q := ladder[-1] * ladder[-1]) == 0:
        ladder.append(q)
    v = 0
    for i in range(len(ladder) - 1, -1, -1):
        if n % ladder[i] == 0:
            n //= ladder[i]
            v += 1 << i
    return v


def num_ev(num: tuple, p: int, e: int, start: int = 0):
    """e * v_p on the numerator tuple num, coordinates i >= start, an int:
    the min over the nonzero n_i of e*v_p(n_i) + i. None when those
    coordinates all vanish."""
    best = None
    for i in range(start, e):
        n = num[i]
        if n:
            t = i if n % p else e * _vp_int(n, p) + i
            if best is None or t < best:
                best = t
    return best


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


@cache
def _product_kernel(fold: tuple, e: int):
    """(mul, inv) for numerator tuples of length e, where fold lists the
    nonzero (i, c_i) of E below its leading term, compiled once per E: the
    CLI builds a FieldSpec on every call, and compiling per spec halved its
    jobs per second.

    mul(a, b) is the numerator tuple of a * b mod E: the 2e - 1 convolution
    sums p_k, then each p_k with k >= e folded down, highest first, by
    pi^e = -(c_(e-1) pi^(e-1) + ... + c_0). inv(a) is (r, d_e) with
    a * r = -d_e, by Cayley-Hamilton: the traces s_k of a^k, k <= e, are
    dot products with the power traces t_j = Tr(pi^j), and Newton's
    identities (Cohen, GTM 138, 2.2) give the characteristic polynomial
    x^e + d_1 x^(e-1) + ... + d_e of a from them, so
    r = a^(e-1) + d_1 a^(e-2) + ... + d_(e-1) and d_e = (-1)^e N(a).
    E's constants and the t_j are names of the functions' globals, not
    literals in their source, so a coefficient of any size builds."""
    xs, ys = [f"a{i}" for i in range(e)], [f"b{i}" for i in range(e)]
    lines = ["def mul(a, b):",
             f"    {', '.join(xs)}, = a",
             f"    {', '.join(ys)}, = b"]
    for k in range(2 * e - 1):
        terms = [f"{xs[i]} * {ys[k - i]}" for i in range(max(0, k - e + 1), min(k, e - 1) + 1)]
        lines.append(f"    p{k} = {' + '.join(terms)}")
    for k in range(2 * e - 2, e - 1, -1):
        lines += [f"    p{k - e + i} -= p{k} * c{i}" for i, _ in fold]
    lines.append(f"    return ({''.join(f'p{k}, ' for k in range(e))})")
    # Newton's identities on E: t_j = -(j c_(e-j) + sum_(i<j) c_(e-i) t_(j-i))
    c, t = dict(fold), [e]
    for j in range(1, e):
        t.append(-j * c.get(e - j, 0) - sum([c.get(e - i, 0) * t[j - i] for i in range(1, j)]))
    # w{k}_{j} is coordinate j of a^k, and Newton's identities give each d_k
    lines.append("def inv(w1):")
    for k in range(1, e + 1):
        if k > 1:
            lines.append(f"    w{k} = mul(w1, w{k - 1})")
        lines.append(f"    {''.join(f'w{k}_{j}, ' for j in range(e))}= w{k}")
        lines.append(f"    s{k} = {' + '.join([f't{j} * w{k}_{j}' for j in range(e) if t[j]])}")
        terms = [f"s{k}"] + [f"d{i} * s{k - i}" for i in range(1, k)]
        lines.append(f"    d{k} = -({' + '.join(terms)}){f' // {k}' if k > 1 else ''}")
    r = [f"w{e - 1}_{j}" + "".join([f" + d{i} * w{e - 1 - i}_{j}" for i in range(1, e - 1)])
         for j in range(e)]
    r[0] = f"{r[0]} + d{e - 1}" if e > 1 else "1"
    lines.append(f"    return ({''.join(f'{x}, ' for x in r)}), d{e}")
    namespace = {f"c{i}": ci for i, ci in fold} | {f"t{j}": tj for j, tj in enumerate(t)}
    exec("\n".join(lines), namespace)
    return namespace["mul"], namespace["inv"]


def regular(spec: FieldSpec, num: tuple) -> list:
    """The columns of the e x e integer matrix of multiplication by the
    numerator num, its regular representation (H. Cohen, A Course in
    Computational Algebraic Number Theory, GTM 138, 4.2): column j is
    num * pi^j mod E, each column the compiled product of the last by pi."""
    cols, pi = [num], spec._pi._num
    for _ in range(spec.e - 1):
        cols.append(spec._mulnum(cols[-1], pi))
    return cols


def lift(xs: Sequence["FieldElement"]):
    """(den, nums): the least common denominator of the elements xs and
    their numerator tuples over it."""
    den = lcm(*[x._den for x in xs])
    return den, [x._num if x._den == den else tuple([n * (den // x._den) for n in x._num])
                 for x in xs]


class FieldElement:
    """An element of K: integer pi-power numerators over one denominator.
    It has no __init__: _make builds it, and FieldSpec.element is the
    checked entry point."""

    __slots__ = ("spec", "_num", "_den")

    @property
    def coords(self) -> tuple:
        """The pi-power coordinates as Fractions in lowest terms. The JSON
        I/O boundary does not read it: serialize encodes from the integer
        numerators and denominator, one gcd per coordinate."""
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
        return _make(spec, spec._mulnum(a, b), self._den * other._den)

    __rmul__ = __mul__

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
        # an element first: isinstance against the Fraction ABC is slow
        if type(other) is not FieldElement:
            if isinstance(other, (int, Fraction)):
                other = self.spec.from_rational(other)
            elif not isinstance(other, FieldElement):
                return NotImplemented
        return (self._num == other._num and self._den == other._den
                and (self.spec is other.spec or self.spec == other.spec))

    def __hash__(self):
        # a rational element equals its rational value, so it hashes as one
        num = self._num
        if any(num[1:]):
            return hash((self.spec, num, self._den))
        return hash(num[0]) if self._den == 1 else hash(Fraction(num[0], self._den))

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element has nonzero higher coordinates")
        return Fraction(self._num[0], self._den)

    def invert(self) -> "FieldElement":
        """The inverse, by the field's compiled Cayley-Hamilton kernel.

        x = num/den has inverse den * num^-1, and the kernel gives r and
        c = (-1)^e N(num) with num * r = -c, so x^-1 = -den * r / c. The
        norm c is nonzero because E is Eisenstein, hence irreducible."""
        if self.is_zero():
            raise ZeroInversion("cannot invert zero")
        spec = self.spec
        r, c = spec._invnum(self._num)
        den = -self._den if c > 0 else self._den
        return _make(spec, tuple([den * v for v in r]), abs(c))

    def _ev(self, start: int = 0):
        """e * val on the coordinates i >= start, an int: num_ev of the
        numerators less e*v_p(den). None when those coordinates all
        vanish."""
        p, e = self.spec.p, self.spec.e
        best = num_ev(self._num, p, e, start)
        if best is None or self._den % p:
            return best
        return best - e * _vp_int(self._den, p)

    def val(self):
        """min over nonzero coordinates of v_p(a_i) + i/e, INF for zero.

        Exact because distinct i give distinct fractional parts i/e, so no
        two terms of the minimum can collide.
        """
        return from_ev(self._ev(), self.spec.e)

    def dist_to_integers(self):
        """sup over integers k of val(self - k).

        With a_0 the rational coordinate and m1 the min over i >= 1 of
        v_p(a_i) + i/e: the sup is min(v_p(a_0), m1) when v_p(a_0) < 0
        (no integer can repair a pole), and m1 otherwise (integers are
        dense in Z_p, so the a_0 part can be matched arbitrarily well).
        """
        p, e = self.spec.p, self.spec.e
        m1 = self._ev(1)
        if self._num[0]:
            v0 = _vp_int(self._num[0], p) - _vp_int(self._den, p)
            if v0 < 0 and (m1 is None or v0 * e < m1):
                m1 = v0 * e
        return from_ev(m1, e)

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"
