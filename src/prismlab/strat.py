"""Stratifications on free K[[T]]/T^m-modules and log connections.

A log connection is an l x l matrix N of truncated series: the operator
x -> T dx/dT + N x on column vectors. A stratification is the family
phi_0..phi_D of K-linear operators on the flattened K-basis
{T^k e_j : 0 <= k < m, 1 <= j <= l}; the two are equivalent via
phi_1 = a * nabla and the descending product family.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import List, Optional

from .errors import (LeibnizViolation, NotAStratification, RingMismatch)
from .field import FieldElement, FieldSpec
from .linalg import Matrix, from_numerators, lift, shifted_product
from .pdalg import CosimpConfig, PDElement, one_plus_a_x_pow
from .series import TruncSeries


def flat_index(k: int, j: int, l: int) -> int:
    """Position of T^k e_j in the flattened basis, T-degree major."""
    return k * l + j


class LogConnection:
    def __init__(self, spec: FieldSpec, unif: str, l: int, m: int, N: List[List[TruncSeries]]):
        assert l >= 1 and m >= 1
        self.spec = spec
        self.unif = unif
        self.l = l
        self.m = m
        if len(N) != l or any(len(row) != l for row in N):
            raise RingMismatch(f"matrix must be {l}x{l}")
        for row in N:
            for s in row:
                if s.spec != spec or s.m != m:
                    raise RingMismatch("matrix entry over a different ring")
        self.N = [list(row) for row in N]

    @classmethod
    def trivial(cls, spec, l, m, unif="T"):
        z = TruncSeries.zero(spec, m, unif)
        return cls(spec, unif, l, m, [[z for _ in range(l)] for _ in range(l)])

    @classmethod
    def from_constant(cls, spec, m, c, unif="T"):
        """Rank 1 with constant matrix entry c."""
        return cls(spec, unif, 1, m, [[TruncSeries.constant(spec, m, c, unif)]])

    def size(self) -> int:
        return self.l * self.m

    def operator(self) -> Matrix:
        """The l*m x l*m matrix of x -> T dx/dT + N x on the flattened basis."""
        n = self.size()
        rows = [[self.spec.zero() for _ in range(n)] for _ in range(n)]
        for k in range(self.m):
            for j in range(self.l):
                col = flat_index(k, j, self.l)
                rows[col][col] = rows[col][col] + k
                for i in range(self.l):
                    s = self.N[i][j]
                    for d in range(self.m - k):
                        c = s.coeffs[d]
                        if not c.is_zero():
                            row = flat_index(k + d, i, self.l)
                            rows[row][col] = rows[row][col] + c
        return Matrix(self.spec, rows)

    def residual_matrix(self) -> Matrix:
        """N mod T, the l x l matrix whose eigenvalues are the residual weights."""
        return Matrix(self.spec, [[self.N[i][j].coeffs[0] for j in range(self.l)]
                                  for i in range(self.l)])

    def __eq__(self, other):
        if not isinstance(other, LogConnection):
            return NotImplemented
        return (self.spec == other.spec and self.l == other.l and self.m == other.m
                and all(self.N[i][j] == other.N[i][j]
                        for i in range(self.l) for j in range(self.l)))

    def __repr__(self):
        return f"LogConnection(l={self.l}, m={self.m}, unif={self.unif!r})"


def multiplication_by_t_power(spec: FieldSpec, l: int, m: int, d: int) -> Matrix:
    """The matrix of x -> T^d x on the flattened basis.

    Only tests use it, as the every-power reference for check_leibniz. The
    benchmark's per-layer tracer still names it, so its deletion waits for
    the benchmark change of ROADMAP item 1, step A.
    """
    n = l * m
    rows = [[spec.zero() for _ in range(n)] for _ in range(n)]
    for k in range(m - d):
        for j in range(l):
            rows[flat_index(k + d, j, l)][flat_index(k, j, l)] = spec.one()
    return Matrix(spec, rows)


def operator_family(phi1: Matrix, a, count: int) -> List[Matrix]:
    """[phi_0, ..., phi_{count-1}] with phi_{n+1} = (phi_1 - n*a) o phi_n.

    One integer kernel: phi_1 and a are lifted once over a common
    denominator, phi_n stays (den, numerator rows) between steps, and each
    step is one packed product with the -n*a shift on the diagonal
    (linalg.shifted_product) and one content gcd (linalg.from_numerators).
    """
    spec = phi1.spec
    if not isinstance(a, FieldElement):
        a = spec.from_rational(a)
    out = [Matrix.identity(spec, phi1.nrows), phi1][:max(count, 1)]
    den, rows, c = lift(phi1, a)
    cur_den, cur = den, rows
    for k in range(1, count - 1):
        cur_den, cur, phi = from_numerators(spec, cur_den * den,
                                            shifted_product(spec, rows, c, k, cur))
        out.append(phi)
    return out


def first_off_recurrence(phi: List[Matrix], a) -> Optional[int]:
    """The least n >= 2 with phi_n unequal to operator_family(phi_1, a)[n],
    or None when phi_2..phi_D all follow phi_(n+1) = (phi_1 - n*a) phi_n."""
    if len(phi) < 3:
        return None
    family = operator_family(phi[1], a, len(phi))
    return next((n for n in range(2, len(phi)) if phi[n] != family[n]), None)


class Stratification:
    def __init__(self, spec: FieldSpec, l: int, m: int, D: int, a: FieldElement,
                 phi: List[Matrix]):
        assert D >= 0
        if len(phi) != D + 1:
            raise NotAStratification(f"need operators up to pd-degree {D}")
        n = l * m
        for op in phi:
            if len(op.rows) != n:
                raise NotAStratification(f"operators must be {n}x{n}")
        self.spec = spec
        self.l = l
        self.m = m
        self.D = D
        self.a = a if isinstance(a, FieldElement) else spec.from_rational(Fraction(a))
        self.phi = list(phi)

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
    if not isinstance(a, FieldElement):
        a = conn.spec.from_rational(Fraction(a))
    phi1 = conn.operator().scale(a)
    phi = operator_family(phi1, a, D + 1)
    return Stratification(conn.spec, conn.l, conn.m, D, a, phi)


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
    rows = strat.phi[1].rows
    zeros = (strat.spec.zero(),) * len(rows)
    for r, row in enumerate(rows):
        shifted, below = list(row[l:] + zeros[:l]), zeros
        if r >= l:
            below = rows[r - l]
            shifted[r - l] = shifted[r - l] - a
        c = next((c for c, (x, y) in enumerate(zip(shifted, below)) if x != y), None)
        if c is not None:
            return {"ok": False, "witness": {"power": 1, "entry": (r, c)}}
    return {"ok": True, "witness": None}


def to_connection(strat: Stratification, unif: str = "T") -> LogConnection:
    """The log connection of a stratification, read from phi_0 and phi_1.

    phi_0 must be I and phi_1 must obey the twisted Leibniz law; phi_2..phi_D
    are not read (check_cocycle tests them). Entry (i, j) of N has T^k
    coefficient phi_1[(k, i), (0, j)] / a, so only the l*m*l entries of the
    generator columns are multiplied by a^-1.
    """
    spec, l, m = strat.spec, strat.l, strat.m
    if not strat.phi[0] == Matrix.identity(spec, l * m):
        raise NotAStratification("operator of pd-degree zero is not the identity")
    leib = check_leibniz(strat)
    if not leib["ok"]:
        raise LeibnizViolation(f"twisted Leibniz law fails at T^{leib['witness']['power']}")
    if strat.D < 1:
        return LogConnection.trivial(spec, l, m, unif)
    inv = strat.a.invert()
    rows = strat.phi[1].rows
    N = [[TruncSeries(spec, m, [rows[flat_index(k, i, l)][j] * inv for k in range(m)], unif)
          for j in range(l)] for i in range(l)]
    return LogConnection(spec, unif, l, m, N)


def _t_linear(phi: Matrix, l: int) -> Matrix:
    """Lin(phi), the T-linear extension of phi from the generators: column
    (t, i) is column i shifted down t T-blocks, past T^(m-1) dropped."""
    zero = phi.spec.zero()
    return Matrix._trusted(phi.spec, tuple(
        tuple(phi.rows[r - c + c % l][c % l] if r >= c - c % l else zero
              for c in range(phi.ncols)) for r in range(phi.nrows)))


def _falling(x: int, r: int) -> int:
    out = 1
    for k in range(r):
        out *= x - k
    return out


def _cocycle_witness(strat: Stratification) -> dict:
    """The first generator x0, then the least (k1 + k2, k1, t, i), where the
    two composites differ at X1^[k1] X2^[k2] T^t e_i, from closed forms.

    For k1 >= 1 that difference is column x0 of
      Delta(k1, k2) = sum_mm C(k1, mm) Lin(phi_mm) B(k1 - mm, k2),
      B(j, k2) = sum_s (-1)^s C(j, s) a^(j-s) F(j-s, k2+s) phi_(k2+s),
    F(r, n) scaling row (t, i) by (t-n)(t-n-1)...(t-n-r+1); for k1 = 0 it
    vanishes once phi_0 = I. Delta(1, n) = (psi_1 - n*a) phi_n - phi_(n+1)
    with psi_1 = Lin(phi_1) + a*diag(t), so a column off psi =
    operator_family(psi_1) fails. Once the generator columns follow psi,
    Lin(phi_mm) = Lin(psi_mm) and every column on psi passes: only the first
    column off psi, or else the generator columns up to it, are expanded.
    """
    spec, l, D, a = strat.spec, strat.l, strat.D, strat.a
    n = l * strat.m
    zero = spec.zero()
    lin = [_t_linear(p, l) for p in strat.phi]
    apow = [a ** r for r in range(D + 1)]
    tilt = Matrix._trusted(spec, tuple(tuple(a * (r // l) if r == c else zero
                                             for c in range(n)) for r in range(n)))
    psi = operator_family(lin[1] + tilt, a, D + 1)
    first = next(x0 for x0 in range(n) if any(
        p[r, x0] != q[r, x0] for p, q in zip(strat.phi, psi) for r in range(n)))
    for x0 in (range(first + 1) if first < l else (first,)):
        cols = [[p[r, x0] for r in range(n)] for p in strat.phi]
        B = {}

        def b(j, k2):
            if (j, k2) not in B:
                v = [zero] * n
                for s in range(j + 1):
                    for r, x in enumerate(cols[k2 + s]):
                        f = (-1) ** s * comb(j, s) * _falling(r // l - k2 - s, j - s)
                        if f and not x.is_zero():
                            v[r] = v[r] + x * apow[j - s] * f
                B[j, k2] = v
            return B[j, k2]

        for deg in range(1, D + 1):
            keys = []
            for k1 in range(1, deg + 1):
                delta = [zero] * n
                for mm in range(k1 + 1):
                    part = lin[mm].apply(b(k1 - mm, deg - k1))
                    delta = [d + y * comb(k1, mm) for d, y in zip(delta, part)]
                keys += [(k1, r) for r, d in enumerate(delta) if not d.is_zero()]
            if keys:
                k1, r = min(keys)
                return {"generator": x0, "component": r % l,
                        "monomial": {"x1": k1, "x2": deg - k1, "t": r // l}}


def check_cocycle(strat: Stratification) -> dict:
    """The cocycle identity of the gluing datum, decided on matrices.

    phi_0..phi_D is a stratification iff phi_0 = I and, for D >= 1, phi_1
    obeys the twisted Leibniz law and phi_(n+1) = (phi_1 - n*a) phi_n. A
    failure after phi_0 = I reports where the level-2 expansions of both
    composites first differ (_cocycle_witness).
    """
    spec, l, m, D = strat.spec, strat.l, strat.m, strat.D
    if not strat.phi[0] == Matrix.identity(spec, l * m):
        return {"ok": False, "degeneracy_ok": False, "witness": None}
    if D == 0 or (check_leibniz(strat)["ok"]
                  and first_off_recurrence(strat.phi, strat.a) is None):
        return {"ok": True, "degeneracy_ok": True, "witness": None}
    return {"ok": False, "degeneracy_ok": True, "witness": _cocycle_witness(strat)}


def verify_key_lemma(phi: List[Matrix], a: FieldElement, n_max: int, D: int) -> dict:
    """Check the one-variable expansion identity for the operator family.

    For each n <= n_max, the double sum over (i, mm) of
    phi_i o phi_{mm+n} * (1+aX)^(-mm-n) * (-1)^mm * C(i+mm, i) * X^[i+mm]
    must reduce to the constant phi_n, coefficient by coefficient in X^[k]
    for k <= D. Requires the family up to index n_max + D.
    """
    if len(phi) < n_max + D + 1:
        raise ValueError("operator family too short for this check")
    spec = phi[0].spec
    size = len(phi[0].rows)
    cfg = CosimpConfig(spec, a, D, 1)
    prod_cache = {}

    def pp(i, k):
        if (i, k) not in prod_cache:
            prod_cache[(i, k)] = phi[i] * phi[k]
        return prod_cache[(i, k)]

    scal = {}
    for n in range(n_max + 1):
        for i in range(D + 1):
            for mm in range(D + 1 - i):
                s = one_plus_a_x_pow(cfg, 1, 1, -(mm + n))
                sign = -1 if mm % 2 else 1
                coef = sign * comb(i + mm, i)
                scal[(n, i, mm)] = (PDElement.monomial(cfg, 1, (i + mm,), 0, coef) * s)

    zero = Matrix.zero(spec, size, size)
    for k in range(D + 1):
        for n in range(n_max + 1):
            acc = zero
            for i in range(k + 1):
                for mm in range(k + 1 - i):
                    c = scal[(n, i, mm)].coeff((k,))
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
