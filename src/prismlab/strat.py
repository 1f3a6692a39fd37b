"""Stratifications on free K[[T]]/T^m-modules and log connections.

A log connection is an l x l matrix N of truncated series: the operator
x -> T dx/dT + N x on column vectors. A stratification is the family
phi_0..phi_D of K-linear operators on the flattened K-basis
{T^k e_j : 0 <= k < m, 1 <= j <= l}; the two are equivalent via
phi_1 = a * nabla and the descending product family. A stratification
made from a connection holds phi_0 and phi_1 and makes the rest on the
first read of another index.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from itertools import islice
from math import comb
from typing import Iterator, List, Optional, Tuple

from .errors import InputFormatError, LeibnizViolation, NotAStratification, RingMismatch
from .field import FieldElement, FieldSpec
from .linalg import Matrix, PackedLevel, falling_levels, falling_powers
from .series import TruncSeries


class LogConnection:
    def __init__(self, spec: FieldSpec, unif: str, l: int, m: int, N: List[List[TruncSeries]]):
        """Every entry of the l x l matrix N lies over spec and has the
        header's m and unif. A parsed connection is checked here alone."""
        if type(l) is not int or type(m) is not int or l < 1 or m < 1:
            raise InputFormatError("connection needs integer l >= 1 and m >= 1")
        if type(unif) is not str:
            raise InputFormatError("connection unif must be a string")
        if len(N) != l or any(len(row) != l for row in N):
            raise InputFormatError("connection matrix must be l x l")
        for row in N:
            for s in row:
                if s.spec is not spec and s.spec != spec:
                    raise RingMismatch("matrix entry over a different ring")
                if s.m != m or s.unif != unif:
                    raise InputFormatError("matrix entry disagrees with connection header")
        self.spec = spec
        self.unif = unif
        self.l = l
        self.m = m
        self.N = [list(row) for row in N]

    @classmethod
    def trivial(cls, spec, l, m, unif="T"):
        z = TruncSeries.zero(spec, m, unif)
        return cls(spec, unif, l, m, [[z for _ in range(l)] for _ in range(l)])

    def size(self) -> int:
        return self.l * self.m

    def operator(self, a: Optional[FieldElement] = None) -> Matrix:
        """The l*m x l*m matrix of x -> T dx/dT + N x on the flattened basis,
        times a if given: the T-linear extension (_t_linear) of the
        generator columns a * N, one product a * N_(ij,d) per coefficient,
        plus a * t on the diagonal of T-degree t."""
        if a is None:
            gen = [[s.coeffs[d] for s in row] for d in range(self.m) for row in self.N]
        else:
            gen = [[a * s.coeffs[d] for s in row] for d in range(self.m) for row in self.N]
        return _t_linear(self.spec, self.l, gen, 1 if a is None else a)

    def residual_matrix(self) -> Matrix:
        """N mod T, the l x l matrix whose eigenvalues are the residual weights."""
        return Matrix._trusted(self.spec, tuple(tuple([s.coeffs[0] for s in row])
                                                for row in self.N))

    def __eq__(self, other):
        if not isinstance(other, LogConnection):
            return NotImplemented
        return (self.spec == other.spec and self.l == other.l and self.m == other.m
                and all(self.N[i][j] == other.N[i][j]
                        for i in range(self.l) for j in range(self.l)))

    def __repr__(self):
        return f"LogConnection(l={self.l}, m={self.m}, unif={self.unif!r})"


def _t_linear(spec: FieldSpec, l: int, gen: Sequence[Sequence[FieldElement]], a) -> Matrix:
    """Lin(gen) + a*diag(t): the T-linear operator with generator columns
    gen (l*m rows, l columns) plus a * t on the diagonal of T-degree t.
    T^s e_j goes to T^s times column j, so row (t, i) of Lin(gen) is row
    (t, i) of gen followed by row (t - 1, i) of Lin(gen), then zeros; no
    entry is multiplied. phi_1 obeys the twisted Leibniz law iff it is
    _t_linear of its generator columns and a."""
    n = len(gen)
    zeros, lin, rows = (spec.zero(),) * n, [], []
    twist = [a * t for t in range(1, n // l)]
    for r, row in enumerate(gen):
        x = tuple(row) + lin[r - l] if r >= l else tuple(row)
        lin.append(x)
        if r >= l:
            x = x[:r] + (x[r] + twist[r // l - 1],) + x[r + 1:]
        rows.append(x + zeros[len(x):])
    return Matrix._trusted(spec, tuple(rows))


def multiplication_by_t_power(spec: FieldSpec, l: int, m: int, d: int) -> Matrix:
    """The matrix of x -> T^d x on the flattened basis: _t_linear of the
    generator columns T^d e_j, with no twist.

    No test uses it as a reference any more: tests/ref.py sets T^d e_j
    entry by entry (t_power_by_shift). Only the benchmark's per-layer
    tracer's table keeps it, so its deletion waits for the benchmark
    change of ROADMAP item 1, step A.
    """
    one, zero = spec.one(), spec.zero()
    return _t_linear(spec, l, [[one if r == d * l + j else zero for j in range(l)]
                               for r in range(l * m)], 0)


def operator_family(phi1: Matrix, a, count: int) -> List[Matrix]:
    """[phi_0, ..., phi_{count-1}] with phi_{n+1} = (phi_1 - n*a) o phi_n."""
    return list(falling_powers(phi1, phi1.spec.scalar(a), count))


def _off_levels(phi: Sequence[Matrix], psi1: Matrix, a) -> Iterator[Tuple[int, PackedLevel]]:
    """(n, psi_n) for each n >= 2 with phi_n unequal to psi_n, psi =
    falling_powers(psi1, a, len(phi)), in order and as asked for: one walk
    of the kernel (falling_levels), each level compared with phi_n on its
    packed integers (PackedLevel.agrees) and built as no matrix."""
    return ((n, level) for n, level in enumerate(falling_levels(psi1, a, len(phi)), 2)
            if not level.agrees(phi[n]))


def first_off_recurrence(phi: Sequence[Matrix], a) -> Optional[int]:
    """The least n >= 2 with phi_n unequal to P_n of falling_powers(phi_1,
    a), or None when phi_2..phi_D all follow phi_(n+1) = (phi_1 - n*a)
    phi_n. The kernel walks only up to the first mismatch (_off_levels), so
    no level's matrix is built."""
    if len(phi) < 3:
        return None
    return next((n for n, _ in _off_levels(phi, phi[1], a)), None)


class Family(Sequence):
    """The operators phi_0..phi_D = falling_powers(phi_1, a, D + 1) of a
    stratification made from a connection, a read-only sequence in two
    states; a is the scalar it was generated at. It holds phi_0 and phi_1
    and the suspended generator, which holds no kernel state yet. Any
    slice, even phi[:2], and any index past 1 (a negative one too) makes
    the family whole: phi_2..phi_D in one walk, after which the generator
    is dropped and every read is a list read.
    So a reader that needs only phi_0 and phi_1 reads them by index.
    Indexing, slicing (to a list), iteration and == against a list or a
    family behave as on a list of the operators.
    """
    __slots__ = ("_ops", "_rest", "_len", "a")

    def __init__(self, phi1: Matrix, a: FieldElement, D: int):
        self.a = a
        self._rest = falling_powers(phi1, a, D + 1)
        self._ops = list(islice(self._rest, 2))
        self._len = D + 1

    def __len__(self):
        return self._len

    def __getitem__(self, n):
        if self._rest is not None and n not in (0, 1):
            self._ops += self._rest
            self._rest = None
        return self._ops[n]

    def __eq__(self, other):
        if not isinstance(other, (Family, list)):
            return NotImplemented
        return len(self) == len(other) and self[:] == other[:]

    def __repr__(self):
        return f"Family(D={self._len - 1}, computed={len(self._ops)})"


class Stratification:
    def __init__(self, spec: FieldSpec, l: int, m: int, D: int, a: FieldElement,
                 phi: Sequence[Matrix]):
        """phi is a Family, or phi_0..phi_D, kept as a list. A family's
        operators all have the shape and field of its phi_1 (of phi_0 = I
        at D = 0), so only that one is checked, and reading it takes no
        kernel step. A parsed stratification is checked here alone, and a
        fault of shape, type or range raises InputFormatError."""
        if (type(l) is not int or type(m) is not int or type(D) is not int
                or l < 1 or m < 1 or D < 0):
            raise InputFormatError("stratification needs integers l,m >= 1 and D >= 0")
        explicit = not isinstance(phi, Family)
        phi = list(phi) if explicit else phi
        if len(phi) != D + 1:
            raise InputFormatError("stratification needs operators up to pd-degree D")
        n = l * m
        for op in phi if explicit else (phi[min(D, 1)],):
            if op.nrows != n:
                raise InputFormatError(f"expected {n} rows, got {op.nrows}")
            if op.ncols != n:
                raise InputFormatError(f"expected {n} columns, got {op.ncols}")
            if op.spec is not spec and op.spec != spec:
                raise RingMismatch("operator over a different field")
        self.spec = spec
        self.l = l
        self.m = m
        self.D = D
        self.a = spec.scalar(a)
        self.phi = phi

    def __eq__(self, other):
        if not isinstance(other, Stratification):
            return NotImplemented
        return (self.spec == other.spec and self.l == other.l and self.m == other.m
                and self.D == other.D and self.a == other.a and self.phi == other.phi)

    def perturbed(self, n: int, delta: Matrix) -> "Stratification":
        phi = list(self.phi)
        phi[n] = phi[n] + delta
        return Stratification(self.spec, self.l, self.m, self.D, self.a, phi)


def from_connection(conn: LogConnection, a, D: int) -> Stratification:
    """The stratification phi_0..phi_D of conn at a, with phi_1 =
    conn.operator(a) = a * (T d/dT + N); phi_2..phi_D are generated on the
    first read past phi_1 (Family). D is checked before anything is built,
    with the Stratification constructor's message."""
    if type(D) is not int or D < 0:
        raise InputFormatError("stratification needs integers l,m >= 1 and D >= 0")
    a = conn.spec.scalar(a)
    return Stratification(conn.spec, conn.l, conn.m, D, a,
                          Family(conn.operator(a), a, D))


def check_leibniz(strat: Stratification) -> dict:
    """phi_1(T^d x) = T^d phi_1(x) + a*d*T^d x for d = 0..m-1, as matrices.

    Only d = 1 needs a test. d = 0 holds for every phi_1, and if
    phi_1 T = T phi_1 + a T then, by induction on d,
    phi_1 T^(d+1) = (T^d phi_1 + a d T^d) T = T^(d+1) phi_1 + a (d+1) T^(d+1).
    Multiplication by T maps flat index r to r + l, so the gap
    phi_1 T - T phi_1 - a T is the index shift
    gap[r][c] = phi1[r][c+l] - phi1[r-l][c] - a*[r == c+l], entries out
    of range reading zero. The first nonzero gap entry in row-major order
    is the witness, at power 1.
    """
    l, a = strat.l, strat.a
    if strat.D < 1:
        return {"ok": True, "witness": None}
    phi1 = strat.phi[1]
    rows, zeros = phi1.rows, [strat.spec.zero()] * phi1.ncols
    for r, row in enumerate(rows):
        shifted, below = [*row[l:], *zeros[:l]], zeros
        if r >= l:
            below = list(rows[r - l])
            shifted[r - l] = shifted[r - l] - a
        # one list comparison; the column is looked for only when it fails
        if shifted != below:
            c = next(c for c, (x, y) in enumerate(zip(shifted, below)) if x != y)
            return {"ok": False, "witness": {"power": 1, "entry": (r, c)}}
    return {"ok": True, "witness": None}


def to_connection(strat: Stratification) -> LogConnection:
    """The log connection of a stratification, read from phi_0 and phi_1.

    phi_0 must be I, D at least 1, phi_1 must obey the twisted Leibniz
    law and a must be nonzero; phi_2..phi_D are not read (check_cocycle
    tests them). Entry (i, j) of N has T^k coefficient
    phi_1[(k, i), (0, j)] / a, so only the l*m*l entries of the generator
    columns are multiplied by a^-1. The uniformizer label is "T".
    """
    spec, l, m = strat.spec, strat.l, strat.m
    if not strat.phi[0].is_identity():
        raise NotAStratification("operator of pd-degree zero is not the identity")
    if strat.D < 1:
        raise NotAStratification("a stratification of pd-degree 0 has no phi_1 to read N from")
    leib = check_leibniz(strat)
    if not leib["ok"]:
        raise LeibnizViolation(f"twisted Leibniz law fails at T^{leib['witness']['power']}")
    if strat.a.is_zero():
        raise NotAStratification("a = 0: N cannot be read from phi_1 = a N")
    inv = strat.a.invert()
    rows = strat.phi[1].rows
    N = [[TruncSeries._trusted(spec, m, tuple([rows[r][j] * inv
                                               for r in range(i, l * m, l)]), "T")
          for j in range(l)] for i in range(l)]
    return LogConnection(spec, "T", l, m, N)


def _first_off_family(phi: Sequence[Matrix], psi1: Matrix,
                      a) -> Optional[Tuple[int, int, int]]:
    """(x0, n0, r) against psi = falling_powers(psi1, a, len(phi)): x0 is the
    least column on which some phi_n (n >= 1) differs from psi_n, n0 the
    least such n for that column, and r the least row on which phi_n0 and
    psi_n0 differ there. None when every phi_n equals psi_n.

    One walk of the kernel (_off_levels): only a level that differs from
    phi_n is built as a matrix, and its columns before the least one found
    so far are scanned for the column and the row.
    """
    found, bound = None, psi1.ncols

    def locate(n, psi):
        nonlocal found, bound
        for r, (x, y) in enumerate(zip(phi[n].rows, psi.rows)):
            if x[:bound] != y[:bound]:
                bound = next(c for c in range(bound) if x[c] != y[c])
                found = (bound, n, r)

    if phi[1].rows != psi1.rows:
        locate(1, psi1)
    if bound:
        for n, level in _off_levels(phi, psi1, a):
            locate(n, level.matrix())
            if bound == 0:
                break
    return found


def _falling(x: int, r: int) -> int:
    out = 1
    for k in range(r):
        out *= x - k
    return out


def _cocycle_witness(strat: Stratification, first: int) -> dict:
    """The witness when the least column off psi is the generator first:
    the least (k1 + k2, k1, t, i), over generators x0 <= first, where the
    two composites differ at X1^[k1] X2^[k2] T^t e_i, from closed forms.

    For k1 >= 1 that difference is column x0 of
      Delta(k1, k2) = sum_mm C(k1, mm) Lin(phi_mm) B(k1 - mm, k2),
      B(j, k2) = sum_s (-1)^s C(j, s) a^(j-s) F(j-s, k2+s) phi_(k2+s),
    F(r, n) scaling row (t, i) by (t-n)(t-n-1)...(t-n-r+1); for k1 = 0 it
    vanishes once phi_0 = I. Column first of Lin(phi_mm) is off psi, so
    the generators before it may fail too, and each one is expanded
    degree by degree.
    """
    spec, l, D, a = strat.spec, strat.l, strat.D, strat.a
    n = l * strat.m
    zero = spec.zero()
    apow = [spec.one()]
    for _ in range(D):
        apow.append(apow[-1] * a)

    @cache
    def lin(mm):
        return _t_linear(spec, l, [row[:l] for row in strat.phi[mm].rows], 0)

    for x0 in range(first + 1):
        cols = [[row[x0] for row in op.rows] for op in strat.phi]

        @cache
        def b(j, k2):
            v = [zero] * n
            for s in range(j + 1):
                for r, x in enumerate(cols[k2 + s]):
                    f = (-1) ** s * comb(j, s) * _falling(r // l - k2 - s, j - s)
                    if f and not x.is_zero():
                        v[r] = v[r] + x * apow[j - s] * f
            return v

        for deg in range(1, D + 1):
            keys = []
            for k1 in range(1, deg + 1):
                delta = [zero] * n
                for mm in range(k1 + 1):
                    part = b(k1 - mm, deg - k1)
                    part = lin(mm).apply(part) if mm else part  # Lin(phi_0) = I
                    delta = [d + y * comb(k1, mm) for d, y in zip(delta, part)]
                keys += [(k1, r) for r, d in enumerate(delta) if not d.is_zero()]
            if keys:
                k1, r = min(keys)
                return {"generator": x0, "component": r % l,
                        "monomial": {"x1": k1, "x2": deg - k1, "t": r // l}}


def check_cocycle(strat: Stratification) -> dict:
    """The cocycle identity of the gluing datum, decided on matrices from
    one walk of the operator family.

    phi_0..phi_D is a stratification iff phi_0 = I and, for D >= 1, phi_1
    obeys the twisted Leibniz law and phi_(n+1) = (phi_1 - n*a) phi_n. Let
    psi_1 = Lin(phi_1) + a*diag(t), _t_linear of phi_1's generator columns,
    which is phi_1 itself exactly when the Leibniz law holds, and
    psi = falling_powers(psi_1, a, D + 1). The check walks psi
    once against phi (_first_off_family), each level compared on the
    kernel's packed integers and built as a matrix only where it differs;
    it passes iff no phi_n is off psi. Otherwise let x0 be the least
    column off psi, n0 the least level at which column x0 is off, and r
    the least row off there. The witness is where the level-2 expansions
    of both composites first differ.

    If x0 >= l the witness is X1^[1] X2^[n0 - 1] T^(r div l) e_(r mod l) at
    generator x0, in closed form. Every generator column of every phi_n
    follows psi, so Lin(phi_mm) = Lin(psi_mm) in the differences
    Delta(k1, k2) of _cocycle_witness. Below total degree n0 the columns x0
    that they read are psi's, so both composites equal psi's, which agree.
    At degree n0 the only new term is (-1)^k1 (phi_n0 - psi_n0) e_x0, which
    is nonzero already at k1 = 1, first at row r. If x0 < l, Lin(phi_mm)
    itself is off psi, and _cocycle_witness expands the generators up to x0.
    """
    l, D, a = strat.l, strat.D, strat.a
    if not strat.phi[0].is_identity():
        return {"ok": False, "degeneracy_ok": False, "witness": None}
    if D == 0:
        return {"ok": True, "degeneracy_ok": True, "witness": None}
    psi1 = strat.phi[1] if check_leibniz(strat)["ok"] else _t_linear(
        strat.spec, l, [row[:l] for row in strat.phi[1].rows], a)
    off = _first_off_family(strat.phi, psi1, a)
    if off is None:
        return {"ok": True, "degeneracy_ok": True, "witness": None}
    x0, n0, r = off
    if x0 >= l:
        witness = {"generator": x0, "component": r % l,
                   "monomial": {"x1": 1, "x2": n0 - 1, "t": r // l}}
    else:
        witness = _cocycle_witness(strat, x0)
    return {"ok": False, "degeneracy_ok": True, "witness": witness}


def verify_key_lemma(phi: List[Matrix], a: FieldElement, n_max: int, D: int) -> dict:
    """Check the one-variable expansion identity for the operator family.

    For each n <= n_max, the double sum over (i, mm) of
    phi_i o phi_{mm+n} * (1+aX)^(-mm-n) * (-1)^mm * C(i+mm, i) * X^[i+mm]
    must reduce to the constant phi_n, coefficient by coefficient in X^[k]
    for k <= D. Requires the family up to index n_max + D.

    The X^[k] coefficient of a term is a scalar in closed form: in divided
    powers X^[j] X^[q] = C(j+q, j) X^[j+q] and (1+aX)^r = sum_q
    r(r-1)...(r-q+1) a^q X^[q], so with j = i + mm and q = k - j it is
    (-1)^mm C(j, i) C(k, j) falling(-(mm+n), q) a^q.

    This checks the identity, not the recurrence phi_(n+1) = (phi_1 - n*a)
    phi_n: at n = 0 the terms phi_k phi_0 and phi_0 phi_k of an odd k
    cancel, so a phi_3 off the family passes at n_max = 0, D = 3.
    check_cocycle and first_off_recurrence check the recurrence.
    """
    if len(phi) < n_max + D + 1:
        raise InputFormatError("operator family too short for this check")
    spec = phi[0].spec
    size = len(phi[0].rows)
    apow = [spec.one()]
    for _ in range(D):
        apow.append(apow[-1] * a)

    @cache
    def pp(i, k):
        return phi[i] * phi[k]

    zero = Matrix.zero(spec, size, size)
    for k in range(D + 1):
        for n in range(n_max + 1):
            acc = zero
            for i in range(k + 1):
                for mm in range(k + 1 - i):
                    j = i + mm
                    c = apow[k - j] * ((-1) ** mm * comb(j, i) * comb(k, j)
                                       * _falling(-(mm + n), k - j))
                    if not c.is_zero():
                        acc = acc + pp(i, mm + n).scale(c)
            target = phi[n] if k == 0 else zero
            if not acc == target:
                gap = acc - target
                where = next((r, cc) for r in range(size) for cc in range(size)
                             if not gap[r, cc].is_zero())
                return {"ok": False,
                        "witness": {"n": n, "pd_degree": k, "entry": where}}
    return {"ok": True, "witness": None}
