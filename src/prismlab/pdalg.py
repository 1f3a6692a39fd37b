"""Truncated divided-power algebras over K[[T]]/T^m in up to two variables.

Levels 0, 1, 2 of a cosimplicial ring: level n adjoins pd-variables
X_1..X_n, with divided powers truncated above total degree D and T-powers
truncated at m. Face maps twist T by the unit 1 + a*X_1 in slot zero and
reindex variables elsewhere; degeneracies kill or merge variables.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import Dict, Tuple

from .errors import DegreeMismatch, IndexOutOfRange
from .field import FieldElement, FieldSpec


class CosimpConfig:
    def __init__(self, spec: FieldSpec, a, D: int, m: int):
        assert D >= 0 and m >= 1
        self.spec = spec
        self.a = spec.scalar(a)
        self.D = D
        self.m = m

    def __eq__(self, other):
        if not isinstance(other, CosimpConfig):
            return NotImplemented
        return (self.spec == other.spec and self.a == other.a
                and self.D == other.D and self.m == other.m)

    def __repr__(self):
        return f"CosimpConfig(D={self.D}, m={self.m}, a={self.a})"


Key = Tuple[Tuple[int, ...], int]


class PDElement:
    """Element of level `degree`: sum of c * T^j * X_1^[k_1] ... X_n^[k_n]."""

    def __init__(self, config: CosimpConfig, degree: int, terms: Dict[Key, FieldElement] = None):
        assert degree in (0, 1, 2)
        self.config = config
        self.degree = degree
        clean: Dict[Key, FieldElement] = {}
        for (ks, j), c in (terms or {}).items():
            ks = tuple(ks)
            assert len(ks) == degree and all(k >= 0 for k in ks) and j >= 0
            if sum(ks) > config.D or j >= config.m or c.is_zero():
                continue
            clean[(ks, j)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, config: CosimpConfig, degree: int, terms: Dict[Key, FieldElement]):
        """Trusted constructor for results of the operations below: every key
        is in range already, so only vanishing coefficients are dropped."""
        out = object.__new__(cls)
        out.config = config
        out.degree = degree
        out.terms = {k: c for k, c in terms.items() if not c.is_zero()}
        return out

    @classmethod
    def zero(cls, config, degree):
        return cls(config, degree, {})

    @classmethod
    def one(cls, config, degree):
        return cls.monomial(config, degree, (0,) * degree, 0, 1)

    @classmethod
    def monomial(cls, config, degree, ks, j, c):
        return cls(config, degree, {(tuple(ks), j): config.spec.scalar(c)})

    @classmethod
    def variable(cls, config, degree, i):
        """X_i at the given level, i in 1..degree."""
        if not 1 <= i <= degree:
            raise IndexOutOfRange(f"no variable X_{i} at level {degree}")
        ks = tuple(1 if v == i else 0 for v in range(1, degree + 1))
        return cls.monomial(config, degree, ks, 0, 1)

    @classmethod
    def t(cls, config, degree):
        return cls.monomial(config, degree, (0,) * degree, 1, 1)

    def _check_compatible(self, other: "PDElement"):
        assert self.config == other.config
        if self.degree != other.degree:
            raise DegreeMismatch(f"levels {self.degree} and {other.degree}")

    def __add__(self, other):
        if not isinstance(other, PDElement):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return PDElement._trusted(self.config, self.degree, out)

    def __neg__(self):
        return PDElement._trusted(self.config, self.degree,
                                  {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PDElement):
            return NotImplemented
        return self + (-other)

    def scale(self, s) -> "PDElement":
        s = self.config.spec.scalar(s)
        return PDElement._trusted(self.config, self.degree,
                                  {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.scale(other)
        if not isinstance(other, PDElement):
            return NotImplemented
        self._check_compatible(other)
        m, D = self.config.m, self.config.D
        right = [(ks2, sum(ks2), j2, c2) for (ks2, j2), c2 in other.terms.items()]
        out: Dict[Key, FieldElement] = {}
        for (ks1, j1), c1 in self.terms.items():
            deg1 = sum(ks1)
            for ks2, deg2, j2, c2 in right:
                j = j1 + j2
                if j >= m or deg1 + deg2 > D:
                    continue
                # X^[a] X^[b] = C(a+b, a) X^[a+b]: scale by the integer directly
                mult = 1
                for a, b in zip(ks1, ks2):
                    mult *= comb(a + b, a)
                c = c1 * c2
                if mult != 1:
                    c = c * mult
                key = (tuple(map(add, ks1, ks2)), j)
                out[key] = out[key] + c if key in out else c
        return PDElement._trusted(self.config, self.degree, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        assert n >= 0
        out = PDElement.one(self.config, self.degree)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def gamma(self, n: int) -> "PDElement":
        """Divided power self^[n]; exact over a field of characteristic zero."""
        assert n >= 0
        out = PDElement.one(self.config, self.degree)
        for t in range(1, n + 1):
            out = (out * self).scale(Fraction(1, t))
        return out

    def __eq__(self, other):
        if not isinstance(other, PDElement):
            return NotImplemented
        return (self.config == other.config and self.degree == other.degree
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, ks, j=0) -> FieldElement:
        return self.terms.get((tuple(ks), j), self.config.spec.zero())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (ks, j), c in sorted(self.terms.items()):
            mono = [f"T^{j}"] if j else []
            mono += [f"X{i+1}^[{k}]" for i, k in enumerate(ks) if k]
            bits.append(f"({c})" + "".join("*" + s for s in mono))
        return " + ".join(bits)


def one_plus_a_x_pow(config: CosimpConfig, degree: int, var: int, exponent: int) -> PDElement:
    """(1 + a*X_var)^exponent for any integer exponent, expanded in divided
    powers: the X_var^[j] coefficient is a^j * exponent*(exponent-1)*...*(exponent-j+1)."""
    if not 1 <= var <= degree:
        raise IndexOutOfRange(f"no variable X_{var} at level {degree}")
    terms: Dict[Key, FieldElement] = {}
    falling = 1
    apow = config.spec.one()
    for j in range(config.D + 1):
        c = apow * falling
        ks = tuple(j if v == var else 0 for v in range(1, degree + 1))
        terms[(ks, 0)] = c
        falling *= exponent - j
        apow = apow * config.a
        if falling == 0:
            break
    return PDElement(config, degree, terms)


def inv_one_plus_a_x(config: CosimpConfig, degree: int, var: int) -> PDElement:
    return one_plus_a_x_pow(config, degree, var, -1)


def _apply_on_generators(x: PDElement, target_degree: int, var_images, t_image) -> PDElement:
    cfg = x.config
    tpow = [PDElement.one(cfg, target_degree)]
    for _ in range(1, cfg.m):
        tpow.append(tpow[-1] * t_image)
    gammas = []
    for im in var_images:
        gs = [PDElement.one(cfg, target_degree)]
        for k in range(1, cfg.D + 1):
            gs.append((gs[-1] * im).scale(Fraction(1, k)))
        gammas.append(gs)
    out = PDElement.zero(cfg, target_degree)
    for (ks, j), c in x.terms.items():
        term = tpow[j].scale(c)
        for v, k in enumerate(ks):
            if k:
                term = term * gammas[v][k]
        out = out + term
    return out


def face(i: int, x: PDElement) -> PDElement:
    """Coface from level n to level n+1, i in 0..n+1.

    Slot zero rescales T by 1 + a*X_1 and sends X_1 to
    (X_2 - X_1)/(1 + a*X_1); the other slots shift variable indices.
    """
    n = x.degree
    if n >= 2:
        raise IndexOutOfRange("no level above 2")
    if not 0 <= i <= n + 1:
        raise IndexOutOfRange(f"face index {i} at level {n}")
    cfg = x.config
    nt = n + 1
    if i == 0:
        t_image = PDElement.t(cfg, nt) * one_plus_a_x_pow(cfg, nt, 1, 1)
        if n == 0:
            var_images = []
        else:
            diff = PDElement.variable(cfg, nt, 2) - PDElement.variable(cfg, nt, 1)
            var_images = [diff * inv_one_plus_a_x(cfg, nt, 1)]
    else:
        t_image = PDElement.t(cfg, nt)
        var_images = [PDElement.variable(cfg, nt, v if v < i else v + 1)
                      for v in range(1, n + 1)]
    return _apply_on_generators(x, nt, var_images, t_image)


def degeneracy(i: int, x: PDElement) -> PDElement:
    """Codegeneracy from level n to level n-1, i in 0..n-1: X_j goes to
    X_j for j <= i and to X_{j-1} for j > i, where X_0 means zero."""
    n = x.degree
    if n == 0:
        raise IndexOutOfRange("no level below 0")
    if not 0 <= i <= n - 1:
        raise IndexOutOfRange(f"degeneracy index {i} at level {n}")
    cfg = x.config
    nt = n - 1
    t_image = PDElement.t(cfg, nt)
    var_images = []
    for v in range(1, n + 1):
        if v <= i:
            var_images.append(PDElement.variable(cfg, nt, v))
        elif v == 1:
            var_images.append(PDElement.zero(cfg, nt))
        else:
            var_images.append(PDElement.variable(cfg, nt, v - 1))
    return _apply_on_generators(x, nt, var_images, t_image)
