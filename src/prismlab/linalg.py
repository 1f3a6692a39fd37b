"""Exact linear algebra over K: dense matrices of field elements.

Products skip zero entries on both sides, so the block-triangular
operators of log connections cost what their nonzero entries cost. The
operator-family kernel instead works on integer numerator rows over one
denominator (lift, shifted_product, from_numerators): one packed integer
dot product per entry, and field elements built once per result.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add, mul, neg, sub
from typing import List, Sequence

from . import field
from .field import FieldElement, FieldSpec, _make


class Matrix:
    def __init__(self, spec: FieldSpec, rows):
        self.spec = spec
        self.rows = tuple(tuple(x if isinstance(x, FieldElement) else spec.from_rational(x)
                                for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("matrix rows must have equal length")

    @classmethod
    def _trusted(cls, spec: FieldSpec, rows) -> "Matrix":
        """Trusted constructor: rows is a tuple of equal-length tuples of
        elements of spec, as built by the operations below."""
        out = object.__new__(cls)
        out.spec = spec
        out.rows = rows
        out.nrows = len(rows)
        out.ncols = len(rows[0]) if rows else 0
        return out

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        zero, one = spec.zero(), spec.one()
        return cls._trusted(spec, tuple(tuple(one if i == j else zero for j in range(n))
                                        for i in range(n)))

    @classmethod
    def zero(cls, spec: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        row = (spec.zero(),) * ncols
        return cls._trusted(spec, (row,) * nrows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.spec == other.spec and self.rows == other.rows

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(f"shapes {self.nrows}x{self.ncols} and "
                             f"{other.nrows}x{other.ncols} differ")

    def __add__(self, other):
        self._check_shape(other)
        return Matrix._trusted(self.spec, tuple(tuple(map(add, r1, r2))
                                                for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other):
        self._check_shape(other)
        return Matrix._trusted(self.spec, tuple(tuple(map(sub, r1, r2))
                                                for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self):
        return Matrix._trusted(self.spec, tuple(tuple(map(neg, r)) for r in self.rows))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} "
                             f"by {other.nrows}x{other.ncols}")
        # row-sparse product: row i of the result sums a_ik * (row k of other)
        # over the nonzero a_ik, and each row k keeps only its nonzero entries
        sparse = [[(j, b) for j, b in enumerate(row) if not b.is_zero()]
                  for row in other.rows]
        blank = [self.spec.zero()] * other.ncols
        out = []
        for row in self.rows:
            acc = list(blank)
            for a, brow in zip(row, sparse):
                if brow and not a.is_zero():
                    for j, b in brow:
                        acc[j] = acc[j] + a * b
            out.append(tuple(acc))
        return Matrix._trusted(self.spec, tuple(out))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        if type(c) is not int and not isinstance(c, FieldElement):
            c = self.spec.from_rational(c)
        return Matrix._trusted(self.spec, tuple(tuple([a * c for a in r]) for r in self.rows))

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.spec, tuple(zip(*self.rows)))

    def apply(self, vec: Sequence[FieldElement]) -> List[FieldElement]:
        if len(vec) != self.ncols:
            raise ValueError(f"vector of length {len(vec)} for {self.ncols} columns")
        return [_dot(self.spec, r, vec) for r in self.rows]

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def trace(self) -> FieldElement:
        assert self.nrows == self.ncols
        t = self.spec.zero()
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def rref(self):
        """Row-reduced echelon form; returns (matrix, pivot column list)."""
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            pivot_row = None
            for i in range(pr, len(rows)):
                if not rows[i][pc].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            inv = rows[pr][pc].invert()
            rows[pr] = [a * inv for a in rows[pr]]
            for i in range(len(rows)):
                if i != pr and not rows[i][pc].is_zero():
                    f = rows[i][pc]
                    rows[i] = [a if b.is_zero() else a - f * b
                               for a, b in zip(rows[i], rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == len(rows):
                break
        return Matrix._trusted(self.spec, tuple(map(tuple, rows))), pivots

    def rank(self) -> int:
        _, pivots = self.rref()
        return len(pivots)

    def kernel_basis(self) -> List[List[FieldElement]]:
        """Basis of the null space, one vector per free column."""
        R, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for f in free:
            v = [self.spec.zero()] * self.ncols
            v[f] = self.spec.one()
            for r, pc in enumerate(pivots):
                v[pc] = -R.rows[r][f]
            basis.append(v)
        return basis

    def column_pivots(self) -> List[int]:
        """Leading coordinate indices of the column space (echelonized)."""
        _, pivots = self.transpose().rref()
        return pivots

    def charpoly(self) -> List[FieldElement]:
        """Coefficients of det(x*I - A), low-to-high, leading 1."""
        assert self.nrows == self.ncols
        n = self.nrows
        spec = self.spec
        coeffs = [spec.zero()] * n + [spec.one()]
        M = Matrix.identity(spec, n)
        for k in range(1, n + 1):
            M = self * M
            c = -(M.trace() * Fraction(1, k))
            coeffs[n - k] = c
            M = M + Matrix.identity(spec, n).scale(c)
        return coeffs

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def lift(M: Matrix, c: FieldElement):
    """M and c over one common denominator: (den, rows, c_num), with rows
    the numerator tuples of M's entries."""
    n = M.ncols
    den, nums = field.lift([c, *chain.from_iterable(M.rows)])
    return den, [nums[i:i + n] for i in range(1, len(nums), n)], nums[0]


def _bits(rows) -> int:
    """Bit length of the largest absolute numerator coordinate in rows."""
    return max(map(abs, chain.from_iterable(chain.from_iterable(rows))),
               default=0).bit_length()


def shifted_product(spec: FieldSpec, left, c: tuple, k: int, right) -> list:
    """Numerator rows of (left - k*c*I) * right.

    left and right are rows of numerator tuples, c a numerator tuple over
    left's denominator. Each entry is one C-level dot product of
    Kronecker-packed integers, unpacked and folded once mod E; the width
    holds the signed sum of the n*e coordinate products of a dot product.
    """
    n, z, pack, unpack = len(right), spec.zero()._num, field.pack, field.unpack
    width = (max(_bits(left), _bits([[c]]) + k.bit_length()) + 1 + _bits(right)
             + (n * spec.e).bit_length() + 1)
    shift = k * pack(c, width)
    packed = []
    for r, row in enumerate(left):
        p = [pack(x, width) for x in row]
        p[r] -= shift
        packed.append(p)
    cols = list(zip(*[[0 if x is z else pack(x, width) for x in row] for row in right]))
    # a zero entry is the shared zero numerator, which from_numerators skips
    return [[unpack(spec, s, width) if s else z
             for s in [sum(map(mul, row, col)) for col in cols]] for row in packed]


def from_numerators(spec: FieldSpec, den: int, rows):
    """(den, rows, matrix) for numerator rows over den, after one content
    gcd: den is then the least common denominator of the entries."""
    zero = spec.zero()
    z = zero._num
    g = gcd(den, *chain.from_iterable(chain.from_iterable(rows)))
    if g != 1:
        den //= g
        rows = [[x if x is z else tuple([v // g for v in x]) for x in row] for row in rows]
    return den, rows, Matrix._trusted(spec, tuple(
        tuple([zero if x is z else _make(spec, x, den) for x in row]) for row in rows))


def _dot(spec, xs, ys):
    acc = spec.zero()
    for x, y in zip(xs, ys):
        if not x.is_zero():
            acc = acc + x * y
    return acc


def eval_poly(coeffs: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    acc = x.spec.zero()
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_deflate(coeffs: Sequence[FieldElement], root: FieldElement):
    """Divide a monic polynomial by (x - root); returns monic quotient.

    Raises ValueError when root is not an exact root.
    """
    n = len(coeffs) - 1
    out = [None] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + acc * root
    if not acc.is_zero():
        raise ValueError("deflation by a value that is not a root")
    return out
