"""The truncated power series ring K[[T]]/T^m.

Dense exact coefficient vectors tagged with a uniformizer label. The label
is bookkeeping only; arithmetic never inspects it.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import Dict, Iterable, Sequence

from .errors import InputFormatError, NotAUnit, NotAUniformizer, RingMismatch
from .field import FieldElement, FieldSpec

SCALARS = (int, Fraction, FieldElement)


class TruncSeries:
    def __init__(self, spec: FieldSpec, m: int, coeffs: Sequence, unif: str = "T"):
        if m < 1:
            raise InputFormatError(f"need m >= 1, got {m}")
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
        of g is [T^(k-1)] h^k / k: one unit inversion and m - 2 products
        (R. P. Brent and H. T. Kung, J. ACM 25 (1978)).
        """
        if not self.is_uniformizer():
            raise NotAUniformizer("series must vanish to exact order one")
        spec, m = self.spec, self.m
        # [T^(k-1)] h^k for k < m reads h below degree m - 1 only
        h = self.shift_down().truncate(m - 1).invert_unit()
        out = [spec.zero(), h.coeffs[0]]
        hk = h
        for k in range(2, m):
            hk = hk * h
            out.append(hk.coeffs[k - 1] * spec.from_rational(Fraction(1, k)))
        return TruncSeries._trusted(spec, m, tuple(out), self.unif)


def rewrite_in_uniformizer(f: TruncSeries, y: TruncSeries) -> TruncSeries:
    """g with g(y(T)) = f(T) mod T^m, tagged with y's label."""
    if not y.is_uniformizer():
        raise NotAUniformizer("substitution target must vanish to exact order one")
    g = f.compose(y.reversion())
    return g.with_unif(y.unif)


def _pi_powers(spec: FieldSpec, exponents: Iterable[int]) -> Dict[int, FieldElement]:
    """{j: pi^j} over the exponents, built in ascending order: each power is
    the previous one times pi to the gap between them."""
    pi, out, prev, acc = spec.pi(), {}, 0, spec.one()
    for j in sorted(set(exponents)):
        gap = j - prev
        if gap:
            acc = acc * (pi if gap == 1 else pi ** gap)
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
    factors read one table of pi powers, and each factor after the first
    costs one series product.
    """
    if F < 0:
        raise InputFormatError(f"need F >= 0, got {F}")
    unif = f"lambda{F}"
    terms = [(i, c) for i, c in enumerate(spec.ecoeffs) if c]
    qs = [spec.p ** n for n in range(F + 1)]
    pows = _pi_powers(spec, (i * q - k for q in qs for i, _ in terms
                             for k in range(min(m, i * q + 1))))
    zero = spec.zero()
    out = None
    for q in qs:
        cs = []
        for k in range(m):
            acc = zero
            for i, c in terms:
                if i * q >= k:
                    acc = acc + pows[i * q - k] * (c * comb(i * q, k))
            cs.append(acc)
        factor = TruncSeries._trusted(spec, m, tuple(cs), unif)
        out = factor if out is None else out * factor
    return out * spec.from_rational(Fraction(1, spec.ecoeffs[0] ** (F + 1)))
