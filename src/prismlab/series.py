"""The truncated power series ring K[[T]]/T^m.

Dense exact coefficient vectors tagged with a uniformizer label. The label
is bookkeeping only; arithmetic never inspects it.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from operator import add
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import InputFormatError, NotAUnit, NotAUniformizer, RingMismatch
from .field import FieldElement, FieldSpec, _make

SCALARS = (int, Fraction, FieldElement)


class TruncSeries:
    def __init__(self, spec: FieldSpec, m: int, coeffs: Sequence, unif: str = "T"):
        if type(m) is not int or m < 1:
            raise InputFormatError(f"need an integer m >= 1, got {m!r}")
        self.spec = spec
        self.m = m
        self.unif = unif
        cs = [spec.scalar(c) for c in list(coeffs)[:m]]
        self.coeffs = tuple(cs) + (spec.zero(),) * (m - len(cs))

    @classmethod
    def _trusted(cls, spec: FieldSpec, m: int, coeffs: tuple, unif: str) -> "TruncSeries":
        """Trusted constructor: coeffs is a tuple of m elements of spec, as
        built by the operations below."""
        out = object.__new__(cls)
        out.spec, out.m, out.coeffs, out.unif = spec, m, coeffs, unif
        return out

    @classmethod
    def zero(cls, spec, m, unif="T"):
        return cls(spec, m, [], unif)

    @classmethod
    def one(cls, spec, m, unif="T"):
        return cls(spec, m, [1], unif)

    @classmethod
    def constant(cls, spec, m, c, unif="T"):
        return cls(spec, m, [c], unif)

    def with_unif(self, unif: str) -> "TruncSeries":
        return TruncSeries._trusted(self.spec, self.m, self.coeffs, unif)

    def _check_ring(self, other: "TruncSeries"):
        if other.m != self.m or (other.spec is not self.spec and other.spec != self.spec):
            raise RingMismatch("series over different rings K[[T]]/T^m")

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            self._check_ring(other)
            cs = tuple(map(add, self.coeffs, other.coeffs))
        elif isinstance(other, SCALARS):
            # a scalar touches the constant coefficient only
            cs = (self.coeffs[0] + other, *self.coeffs[1:])
        else:
            return NotImplemented
        return TruncSeries._trusted(self.spec, self.m, cs, self.unif)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._trusted(self.spec, self.m, tuple([-a for a in self.coeffs]),
                                    self.unif)

    def __sub__(self, other):
        if not isinstance(other, (TruncSeries, *SCALARS)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        spec, m = self.spec, self.m
        if isinstance(other, SCALARS):
            # a scalar scales each coefficient, coerced into K once
            c = spec.from_rational(other) if type(other) is Fraction else other
            return TruncSeries._trusted(spec, m, tuple([a * c for a in self.coeffs]), self.unif)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_ring(other)
        out = [spec.zero()] * m
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(m - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncSeries._trusted(spec, m, tuple(out), self.unif)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputFormatError(f"need a power n >= 0, got {n}")
        out = TruncSeries.one(self.spec, self.m, self.unif)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.spec == other.spec and self.m == other.m
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec, self.m, self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_unit(self) -> bool:
        return not self.coeffs[0].is_zero()

    def is_uniformizer(self) -> bool:
        return self.coeffs[0].is_zero() and self.m >= 2 and not self.coeffs[1].is_zero()

    def truncate(self, new_m: int) -> "TruncSeries":
        if not 1 <= new_m <= self.m:
            raise InputFormatError(f"need 1 <= new_m <= {self.m}, got {new_m}")
        return TruncSeries._trusted(self.spec, new_m, self.coeffs[:new_m], self.unif)

    def invert_unit(self) -> "TruncSeries":
        if not self.is_unit():
            raise NotAUnit("constant term vanishes")
        c0inv = self.coeffs[0].invert()
        out = [c0inv]
        for k in range(1, self.m):
            acc = self.spec.zero()
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out.append(-(c0inv * acc))
        return TruncSeries._trusted(self.spec, self.m, tuple(out), self.unif)

    def derivative(self) -> "TruncSeries":
        # only trustworthy through degree m - 2: the dropped T^m term
        # would contribute at degree m - 1
        out = [self.coeffs[k + 1] * (k + 1) for k in range(self.m - 1)]
        return TruncSeries._trusted(self.spec, self.m, (*out, self.spec.zero()), self.unif)

    def shift_down(self) -> "TruncSeries":
        """Divide by T; requires vanishing constant term. Top degree is lost."""
        if not self.coeffs[0].is_zero():
            raise NotAUniformizer("cannot divide by T: the constant term is nonzero")
        return TruncSeries._trusted(self.spec, self.m, (*self.coeffs[1:], self.spec.zero()),
                                    self.unif)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(T)), requiring inner(0) = 0 so truncation is stable."""
        self._check_ring(inner)
        if not inner.coeffs[0].is_zero():
            raise NotAUniformizer("inner series must vanish at T = 0")
        acc = TruncSeries._trusted(self.spec, self.m, (self.spec.zero(),) * self.m, inner.unif)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def reversion(self) -> "TruncSeries":
        """Compositional inverse g with self(g) = g(self) = T mod T^m.

        By Lagrange inversion, with h = (self/T)^(-1), the T^k coefficient
        of g is [T^(k-1)] h^k / k (R. P. Brent and H. T. Kung, J. ACM 25
        (1978)): read off h_powers through degree m - 2, and each built
        once, over the denominator of its pair times k.
        """
        if not self.is_uniformizer():
            raise NotAUniformizer("series must vanish to exact order one")
        spec, m = self.spec, self.m
        hs, top = h_powers(self, m - 1)
        leads = [hs[k][k - 1] for k in range(1, m - 1)] + [top]
        return TruncSeries._trusted(spec, m, (spec.zero(), *[
            _make(spec, num, den * k) for k, (num, den) in enumerate(leads, 1)]), self.unif)


Pair = Tuple[tuple, int]


def pair_dot(spec: FieldSpec, xs: Sequence[Pair], ys: Sequence[Pair]) -> Pair:
    """sum_i x_i y_i over the elements of K given as (numerator tuple,
    denominator) pairs, zipped to the shorter sequence: the sum of the
    compiled numerator products over den, the lcm of the nonzero terms'
    denominators, as the pair (num, den). A term with a zero factor is
    skipped. The pair is not reduced: field._make reduces it, once."""
    mul, num = spec._mulnum, None
    for (a, c), (b, d) in zip(xs, ys):
        if any(a) and any(b):
            t, cd = mul(a, b), c * d
            if num is None:
                num, den = t, cd
            elif cd == den:
                num = tuple(map(add, num, t))
            else:
                # over lcm(den, cd): the sum so far times s, the term times r
                g = gcd(den, cd)
                s, r = cd // g, den // g
                num = tuple([x * s + y * r for x, y in zip(num, t)])
                den *= s
    return (spec._zero._num, 1) if num is None else (num, den)


def _reduced(spec: FieldSpec, pair: Pair) -> Pair:
    """The pair of the element num/den, reduced by field._make."""
    x = _make(spec, *pair)
    return x._num, x._den


def h_powers(y: TruncSeries, n: int) -> Tuple[List[List[Pair]], Pair]:
    """(hs, top) for h = (y/T)^(-1) through degree n - 1, y a uniformizer
    and 1 <= n <= y.m: hs[k] the coefficients of h^k for k < n, and top =
    [T^(n-1)] h^n, all reduced (numerator tuple, denominator) pairs.
    Lagrange inversion reads [T^(k-1)] h^k off them, hs[k][k-1] and top.
    h is one unit inversion, and each coefficient of h^k one pair_dot of
    h^(k-1) with h, reduced once; y's degree-m term, which T^m drops, is
    read as 0.
    """
    spec = y.spec
    h = [(x._num, x._den) for x in y.shift_down().truncate(n).invert_unit().coeffs]
    rev = [h[i::-1] for i in range(n)]
    hs = [[(spec._one._num, 1)] + [(spec._zero._num, 1)] * (n - 1)]
    if n > 1:
        hs.append(h)
    while len(hs) < n:
        prev = hs[-1]
        hs.append([_reduced(spec, pair_dot(spec, prev, r)) for r in rev])
    return hs, _reduced(spec, pair_dot(spec, hs[-1], rev[-1]))


def rewrite_in_uniformizer(f: TruncSeries, y: TruncSeries) -> TruncSeries:
    """g with g(y(T)) = f(T) mod T^m, tagged with y's label."""
    if not y.is_uniformizer():
        raise NotAUniformizer("substitution target must vanish to exact order one")
    g = f.compose(y.reversion())
    return g.with_unif(y.unif)


def _pi_powers(spec: FieldSpec, exponents: Iterable[int]) -> Dict[int, tuple]:
    """{j: the numerator tuple of pi^j} over the exponents, built in
    ascending order: each power is the previous one times pi to the gap
    between them, that power by squaring. pi is integral, so every power
    is over 1."""
    mul, pi = spec._mulnum, spec._pi._num
    out, prev, acc = {}, 0, spec._one._num
    for j in sorted(set(exponents)):
        gap, base = j - prev, pi
        while gap:
            if gap & 1:
                acc = mul(acc, base)
            gap >>= 1
            if gap:
                base = mul(base, base)
        out[j], prev = acc, j
    return out


def lambda_approx(spec: FieldSpec, F: int, m: int) -> TruncSeries:
    """The finite product prod_{n=0}^{F} E(u^(p^n))/E(0) as a series in u - pi.

    A genuine uniformizer for every F >= 0: only the n = 0 factor vanishes
    at u = pi. Versus the infinite product, each omitted factor n > F
    differs from 1 by coefficients of valuation at least
    p^n/e - (m-1)/e - 1 through the retained degrees, so the coefficients
    of this approximation converge rapidly in F.

    In closed form, with u = pi + T and q = p^n, the T^k coefficient of
    E(u^q) = sum_i e_i (pi + T)^(iq) is sum_i e_i C(iq, k) pi^(iq-k): the
    factors are integer numerator tuples read off one table of pi powers,
    their product a pair_dot per coefficient over denominator 1, and each
    output coefficient one element, over E(0)^(F+1).
    """
    if type(F) is not int or F < 0:
        raise InputFormatError(f"need an integer F >= 0, got {F!r}")
    if type(m) is not int or m < 1:
        raise InputFormatError(f"need an integer m >= 1, got {m!r}")
    terms = [(i, c) for i, c in enumerate(spec.ecoeffs) if c]
    qs = [spec.p ** n for n in range(F + 1)]
    pows = _pi_powers(spec, (i * q - k for q in qs for i, _ in terms
                             for k in range(min(m, i * q + 1))))
    out = None
    for q in qs:
        factor = []
        for k in range(m):
            acc = spec._zero._num
            for i, c in terms:
                if i * q >= k:
                    w = c * comb(i * q, k)
                    acc = tuple([a + w * v for a, v in zip(acc, pows[i * q - k])])
            factor.append((acc, 1))
        out = factor if out is None else [pair_dot(spec, out, factor[k::-1]) for k in range(m)]
    # over E(0)^(F+1), its sign moved onto the numerators
    e0 = spec.ecoeffs[0] ** (F + 1)
    sign, den = (-1 if e0 < 0 else 1), abs(e0)
    return TruncSeries._trusted(spec, m, tuple([
        _make(spec, tuple([sign * v for v in num]), den) for num, _ in out]), f"lambda{F}")
