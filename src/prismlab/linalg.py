"""Exact linear algebra over K: dense matrices of field elements.

Products skip zero entries on both sides, so the block-triangular
operators of log connections cost what their nonzero entries cost. The
operator-family kernel (falling_levels) works on integers instead: it
writes multiplication by each entry of M and by c as e x e integer
matrices, the regular representation, and runs the recurrence on the
Kronecker-packed rows of one integer matrix. Each level is read either
as a matrix, one field element per entry (falling_powers), or on the
packed integers, building none: compared with a given matrix, or its
Gauss valuation taken.
"""
from __future__ import annotations

from itertools import chain
from math import gcd
from operator import add, lshift, mul, neg, sub
from typing import Iterator, List, Sequence

from . import field
from .field import FieldElement, FieldSpec, _make, _vp_int


class Matrix:
    def __init__(self, spec: FieldSpec, rows):
        self.spec = spec
        self.rows = tuple(tuple([spec.scalar(x) for x in row]) for row in rows)
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
        zeros, one = (spec.zero(),) * n, (spec.one(),)
        return cls._trusted(spec, tuple(zeros[:i] + one + zeros[i + 1:] for i in range(n)))

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

    def _check_square(self, what):
        if self.nrows != self.ncols:
            raise ValueError(f"cannot take the {what} of a {self.nrows}x{self.ncols} matrix")

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
            return NotImplemented
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

    def scale(self, c) -> "Matrix":
        if type(c) is not int:
            c = self.spec.scalar(c)
        return Matrix._trusted(self.spec, tuple(tuple([a * c for a in r]) for r in self.rows))

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.spec, tuple(zip(*self.rows)))

    def apply(self, vec: Sequence[FieldElement]) -> List[FieldElement]:
        if len(vec) != self.ncols:
            raise ValueError(f"vector of length {len(vec)} for {self.ncols} columns")
        return [_dot(self.spec, r, vec) for r in self.rows]

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def is_identity(self) -> bool:
        """Square with ones on the diagonal and zeros elsewhere: row by row,
        each one tuple comparison, so shared entries compare by identity."""
        n = self.nrows
        if n != self.ncols:
            return False
        zeros, one = (self.spec.zero(),) * n, (self.spec.one(),)
        return all(row == zeros[:i] + one + zeros[i + 1:] for i, row in enumerate(self.rows))

    def trace(self) -> FieldElement:
        self._check_square("trace")
        t = self.spec.zero()
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def reduce_rows(self):
        """The row-reduced echelon form in one pass over the rows in order:
        (R, pivots, independent).

        Each row is reduced against the rows kept so far, which stay in
        reduced echelon form; a row that stays nonzero is normalized and
        kept. R lists the nonzero rows of the rref, pivots their leading
        columns, and independent the indices of the rows that are no
        combination of earlier rows: the pivot columns of the transpose's
        rref, so no second elimination is needed for them.
        """
        basis = {}
        independent = []
        for i, row in enumerate(self.rows):
            for pc, b in basis.items():
                f = row[pc]
                if not f.is_zero():
                    row = [a if y.is_zero() else a - f * y for a, y in zip(row, b)]
            lead = next((j for j, a in enumerate(row) if not a.is_zero()), None)
            if lead is None:
                continue
            inv = row[lead].invert()
            row = [a * inv for a in row]
            for pc, b in basis.items():
                f = b[lead]
                if not f.is_zero():
                    basis[pc] = [a if y.is_zero() else a - f * y for a, y in zip(b, row)]
            basis[lead] = row
            independent.append(i)
        pivots = sorted(basis)
        return [basis[pc] for pc in pivots], pivots, independent

    def rref(self):
        """Row-reduced echelon form; returns (matrix, pivot column list)."""
        R, pivots, _ = self.reduce_rows()
        zero_row = (self.spec.zero(),) * self.ncols
        rows = tuple(map(tuple, R)) + (zero_row,) * (self.nrows - len(R))
        return Matrix._trusted(self.spec, rows), pivots

    def rank(self) -> int:
        return len(self.reduce_rows()[1])

    def kernel_basis(self) -> List[List[FieldElement]]:
        """Basis of the null space, one vector per free column."""
        R, pivots, _ = self.reduce_rows()
        return null_basis(self.spec, self.ncols, R, pivots)

    def column_pivots(self) -> List[int]:
        """Leading coordinate indices of the column space (echelonized)."""
        return self.reduce_rows()[2]

    def charpoly(self) -> List[FieldElement]:
        """Coefficients of det(x*I - A), low-to-high, leading spec.one(),
        from charpoly_numerators."""
        scale, f = self.charpoly_numerators()
        spec = self.spec
        return [_make(spec, x, scale) for x in f[:-1]] + [spec.one()]

    def charpoly_numerators(self):
        """(scale, f): the coefficients of det(x*I - A), low-to-high, as
        numerator tuples f_j over one scale > 0, which moves no root and no
        Newton polygon vertex, by Faddeev-LeVerrier (H. Cohen, GTM 138,
        2.2) on integers, building no field element.

        A is lifted once over the least common denominator den of its
        entries (field.lift), so X = den * A has entries in Z[pi], as
        numerator tuples multiplied by the field's compiled product. Then
        M_1 = X, d_(n-k) = -tr(M_k) / k and M_(k+1) = X (M_k + d_(n-k) I),
        of which the last step needs the trace alone. E is monic, so Z[pi]
        is free on 1, ..., pi^(e-1) and the charpoly of X lies in Z[pi][x]:
        each division by k is exact coordinate by coordinate. The
        coefficient of x^j is d_j / den^(n-j), so f_j = d_j * den^j over
        den^n. At size 1 that is -X over den, with no loop.
        """
        self._check_square("charpoly")
        n, spec = self.nrows, self.spec
        mul, zero = spec._mulnum, (0,) * spec.e
        # M_k row by row in one flat list, its diagonal every n + 1 entries
        den, M = field.lift([x for row in self.rows for x in row])
        scale = den ** n
        f = [None] * n + [(scale,) + zero[1:]]
        if n == 1:
            f[0] = tuple(map(neg, M[0]))
            return scale, f
        terms = M[::n + 1]
        for k in range(1, n + 1):
            # the terms of tr(M_k), each a numerator tuple
            d = f[n - k] = tuple([-t // k for t in map(sum, zip(zero, *terms))])
            if k == n:
                break
            if k == 1:
                # row i of X as its nonzero (column, numerator) pairs
                X = [[(l, x) for l, x in enumerate(M[i:i + n]) if any(x)]
                     for i in range(0, n * n, n)]
            for i in range(0, n * n, n + 1):
                M[i] = tuple(map(add, M[i], d))
            if k + 1 == n:
                # tr(X (M_k + d I)) needs no other entry of the product
                terms = [mul(x, M[l * n + i]) for i, xrow in enumerate(X) for l, x in xrow]
                continue
            # M_k + d I, each row its nonzero (column, numerator) pairs
            S = [[(j, y) for j, y in enumerate(M[i:i + n]) if any(y)]
                 for i in range(0, n * n, n)]
            M = []
            for xrow in X:
                acc = [zero] * n
                for l, x in xrow:
                    for j, y in S[l]:
                        acc[j] = tuple(map(add, acc[j], mul(x, y)))
                M += acc
            terms = M[::n + 1]
        if den != 1:
            f[1:n] = [tuple([x * den ** j for x in d]) for j, d in enumerate(f[1:n], 1)]
        return scale, f

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def null_basis(spec: FieldSpec, ncols: int, R: Sequence[Sequence[FieldElement]],
               pivots: Sequence[int]) -> List[List[FieldElement]]:
    """The null space of a matrix from its rref rows R and their pivot
    columns: one vector per free column."""
    pset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pset:
            continue
        v = [spec.zero()] * ncols
        v[f] = spec.one()
        for row, pc in zip(R, pivots):
            v[pc] = -row[f]
        basis.append(v)
    return basis


class _Packing:
    """The layout of a walk's packed rows: each of the n entries of a row is
    a signed digit of width bits, entry 0 lowest; adding offset, half in
    every field, makes each digit a plain width-bit field read by mask.
    joined, built on first comparison (PackedLevel.agrees), places digit t
    of entry (j, c) where it sits once the rows are joined in one integer,
    in row j * e + t, each row n * width bits above the one before."""

    __slots__ = ("spec", "n", "e", "width", "half", "mask", "offset", "shifts", "joined")

    def __init__(self, spec: FieldSpec, n: int, width: int):
        self.spec, self.n, self.e, self.width = spec, n, spec.e, width
        self.half, self.mask = 1 << (width - 1), (1 << width) - 1
        self.offset = self.half * ((1 << width * n) - 1) // self.mask
        self.shifts, self.joined = range(0, width * n, width), None


class PackedLevel:
    """P_k of falling_powers as the kernel holds it: den^k and the packed
    rows of den^k P_k, row (j, t) coordinate t of row j of P_k. matrix()
    builds P_k; agrees() compares it with a matrix and ev() reads its Gauss
    valuation, both on integers."""

    __slots__ = ("packing", "rows", "dk")

    def __init__(self, packing: _Packing, rows: List[int], dk: int):
        self.packing, self.rows, self.dk = packing, rows, dk

    def _digits(self) -> List[List[int]]:
        """The signed digits of each packed row, entry 0 first."""
        pk = self.packing
        half, mask, shifts = pk.half, pk.mask, pk.shifts
        return [[((y >> sh) & mask) - half for sh in shifts]
                for y in [x + pk.offset for x in self.rows]]

    def matrix(self) -> Matrix:
        """P_k, one field element per nonzero entry."""
        pk, dk = self.packing, self.dk
        spec, n, e = pk.spec, pk.n, pk.e
        zero, digits = spec.zero(), self._digits()
        return Matrix._trusted(spec, tuple(
            tuple([_make(spec, num, dk) if any(num) else zero
                   for num in zip(*digits[j:j + e])]) for j in range(0, n * e, e)))

    def ev(self):
        """e times the Gauss valuation of P_k, an int, or None when P_k is
        zero: _gauss_ev of matrix(), building no field element.

        An entry's coordinate t is worth e*v_p(digit) + t less e*v_p(den^k),
        and t fixes the residue mod e, so the least over the entries of
        coordinate t is read off g_t, the gcd of the digits of rows t::e."""
        pk = self.packing
        p, e = pk.spec.p, pk.e
        digits = self._digits()
        best = None
        for t in range(e):
            g = gcd(*chain.from_iterable(digits[t::e]))
            if g:
                ev = e * _vp_int(g, p) + t
                if best is None or ev < best:
                    best = ev
        return None if best is None else best - e * _vp_int(self.dk, p)

    def agrees(self, A: Matrix) -> bool:
        """Whether A equals P_k, decided on integers and building no field
        element.

        An entry of A equals one of P_k only if its denominator d divides
        den^k, and its numerators times den^k / d are then the digits to
        match. They pack into one integer, which is compared with the
        level's packed rows joined into one (_Packing.joined). A digit
        outside the width is unequal, since P_k's digits all fit: 2^width
        in one column and -1 in the next pack as zeros do."""
        pk, dk, rows = self.packing, self.dk, self.rows
        n, e, w = pk.n, pk.e, pk.width
        if A.spec is not pk.spec and A.spec != pk.spec or A.nrows != n or A.ncols != n:
            return False
        digits, zero = [], pk.spec.zero()
        for row in A.rows:
            for x in row:
                d = x._den
                # the shared zero, as matrix() builds it, has zero digits
                if d == dk or x is zero:
                    digits += x._num
                elif dk % d:
                    return False
                else:
                    q = dk // d
                    digits += [v * q for v in x._num]
        if pk.joined is None:
            pk.joined = [w * ((j * e + t) * n + c)
                         for j in range(n) for c in range(n) for t in range(e)]
        return (sum(map(lshift, rows, range(0, w * n * len(rows), w * n)))
                == sum(map(lshift, digits, pk.joined))
                and max(digits) < pk.half and min(digits) > -pk.half)


def falling_powers(M: Matrix, c: FieldElement, count: int) -> Iterator[Matrix]:
    """Yield P_0, ..., P_(count-1), P_k = M (M - c) ... (M - (k-1) c), each
    as it is asked for: P_0 = I, P_1 = M and P_(k+1) = (M - k c) P_k, from
    P_2 on the matrix of each step of falling_levels. A count below 1
    yields nothing."""
    yield from (Matrix.identity(M.spec, M.nrows), M)[:max(count, 0)]
    for level in falling_levels(M, c, count):
        yield level.matrix()


def falling_levels(M: Matrix, c: FieldElement, count: int) -> Iterator[PackedLevel]:
    """Yield P_2, ..., P_(count-1) of falling_powers(M, c, count), each as
    it is asked for, as the kernel holds it (PackedLevel). A count below 3
    yields nothing.

    M and c are lifted once over their least common denominator den
    (field.lift). B is the ne x ne integer matrix whose block (r, j) is
    the regular representation of the numerator of M[r][j], C that of c's
    numerator, so den^k P_k is a ne x n integer matrix X_k with
    X_(k+1) = (B - k I(x)C) X_k.
    Row (j, t) of X_k, coordinate t of row j of P_k, is one integer: its n
    entries Kronecker-packed at a width fixed before the loop (D. Harvey,
    J. Symb. Comp. 44 (2009)). The columns never interact, so each step is
    one integer dot product per row, with no fold mod E and no repacking;
    the width holds the bound |X_1| * prod_k (|B| + k |C|) in row-sum
    norms, plus a sign bit.
    """
    if count < 3:
        return
    spec, n, e = M.spec, M.nrows, M.spec.e
    den, nums = field.lift([c, *chain.from_iterable(M.rows)])
    rows, cnum = [nums[i:i + n] for i in range(1, len(nums), n)], nums[0]
    C = field.regular(spec, cnum)
    diag = [[(t, -col[s]) for t, col in enumerate(C) if col[s]] for s in range(e)]
    # row (r, s) of B - k I(x)C: the rows of X it reads, B's nonzero entries
    # there, and s, which picks the entries k * diag[s] on its diagonal block
    plan = []
    for r, row in enumerate(rows):
        cols = [(j * e + t, col) for j, x in enumerate(row) if any(x)
                for t, col in enumerate(field.regular(spec, x))]
        for s in range(e):
            plan.append(([i for i, col in cols if col[s]] + [r * e + t for t, _ in diag[s]],
                         [col[s] for _, col in cols if col[s]], s))
    bound = max(map(abs, chain.from_iterable(chain.from_iterable(rows))), default=0)
    nb = max(sum(map(abs, bs)) for _, bs, _ in plan)
    nc = max(sum(abs(ct) for _, ct in d) for d in diag)
    for k in range(1, count - 1):
        bound *= nb + k * nc
    width = bound.bit_length() + 1
    packing = _Packing(spec, n, width)
    X = []
    for row in rows:
        for t in range(e):
            x = 0
            for num in reversed(row):
                x = (x << width) + num[t]
            X.append(x)
    dk = den
    for k in range(1, count - 1):
        kc = [[k * ct for _, ct in d] for d in diag]
        X = [sum(map(mul, bs + kc[s], map(X.__getitem__, idx))) for idx, bs, s in plan]
        dk *= den
        yield PackedLevel(packing, X, dk)


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
