"""Algebra of log connections: tensor, dual, twists, change of uniformizer,
residual weight analysis, nilpotency tests, cohomology, reduction sequences.
"""
from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Dict, List, Optional, Sequence

from .errors import BadTruncationIndex, NotAUniformizer, RingMismatch
from .field import INF, FieldElement, FieldSpec, _make, from_ev, num_ev
from .linalg import Matrix, eval_poly, null_basis, poly_deflate
from .series import TruncSeries, _reduced, h_powers, lambda_approx, pair_dot
from .strat import LogConnection


def _require_same_ring(M1: LogConnection, M2: LogConnection):
    if M1.spec != M2.spec:
        raise RingMismatch("different base fields")
    if M1.unif != M2.unif:
        raise RingMismatch(f"different uniformizers: {M1.unif!r} vs {M2.unif!r}")
    if M1.m != M2.m:
        raise RingMismatch("different truncation moduli")


def tensor(M1: LogConnection, M2: LogConnection) -> LogConnection:
    """Tensor product connection, matrix N1 (x) I + I (x) N2."""
    _require_same_ring(M1, M2)
    spec, m = M1.spec, M1.m
    l1, l2 = M1.l, M2.l
    zero = TruncSeries.zero(spec, m, M1.unif)
    N = [[zero for _ in range(l1 * l2)] for _ in range(l1 * l2)]
    for i1 in range(l1):
        for j1 in range(l1):
            for i2 in range(l2):
                for j2 in range(l2):
                    s = zero
                    if i2 == j2:
                        s = s + M1.N[i1][j1]
                    if i1 == j1:
                        s = s + M2.N[i2][j2]
                    N[i1 * l2 + i2][j1 * l2 + j2] = s
    return LogConnection(spec, M1.unif, l1 * l2, m, N)


def dual(M: LogConnection) -> LogConnection:
    N = [[-M.N[j][i] for j in range(M.l)] for i in range(M.l)]
    return LogConnection(M.spec, M.unif, M.l, M.m, N)


def bk_twist(M: LogConnection, n) -> LogConnection:
    """Twist by the rank-1 module with connection shift n: matrix N + n*id."""
    shift = TruncSeries.constant(M.spec, M.m, n, M.unif)
    N = [[M.N[i][j] + shift if i == j else M.N[i][j] for j in range(M.l)]
         for i in range(M.l)]
    return LogConnection(M.spec, M.unif, M.l, M.m, N)


def change_uniformizer(M: LogConnection, y: TruncSeries) -> LogConnection:
    """Transport the connection to the coordinate y; matrix c*N rewritten in y,
    where c = (y/T) / y' and T d/dT = c * y d/dy.

    Rewriting in y is composing with the reversion g of y, a ring map, so
    entry (c N_ij)(g) is sum_k N_ij,k * c(g) g^k. By Lagrange-Burmann
    (Stanley, EC2, Thm 5.4.2), [T^j] c(g) g^k = [T^(j-k)] h^j with
    h = (y/T)^(-1): the table is series.h_powers, the one table that
    TruncSeries.reversion reads too, so no reversion is taken. Each output
    coefficient of an entry is one pair_dot of the entry's coefficients
    with a row of the table, reduced once: no series product, and no
    element product outside the one unit inversion.

    The top coefficient of c needs y's dropped degree-m term and is a free
    gauge: entry (m-1, 0) gains r y_1 (1-m)/2, r = [T^m] g, which puts half
    a naive round trip's defect 1 + (m-1) r y_1^m T^(m-1) on each leg, so
    round trips along y and back along g are exact.
    """
    if y.spec != M.spec or y.m != M.m:
        raise RingMismatch("substitution series lives over a different ring")
    spec, m = M.spec, M.m
    if m == 1 and y.coeffs[0].is_zero():
        # nothing to transport at modulus 1: constants, multiplier 1
        return LogConnection(spec, y.unif, M.l, 1,
                             [[s.with_unif(y.unif) for s in row] for row in M.N])
    if not y.is_uniformizer():
        raise NotAUniformizer("substitution series must vanish to exact order one")
    hs, top = h_powers(y, m)
    # output coefficient j of an entry s is sum_k s_k [T^j] c(g) g^k,
    # a pair_dot of s with rows[j] = [T^(j-k)] h^j for k = j, ..., 0
    rows = [hs[j][j::-1] for j in range(m)]
    # the gauge entry gains r y_1 (1-m)/2 = top * y_1 (1-m)/(2m), from
    # top = [T^(m-1)] h^m = m r by Lagrange inversion
    y1 = y.coeffs[1]
    gauge = (tuple([v * (1 - m) for v in y1._num]), 2 * m * y1._den)
    one = (spec.one()._num, 1)
    rows[-1][0] = _reduced(spec, pair_dot(spec, (rows[-1][0], top), (one, gauge)))

    def rewrite(s: TruncSeries) -> TruncSeries:
        cs = [(x._num, x._den) for x in s.coeffs]
        return TruncSeries._trusted(spec, m, tuple([_make(spec, *pair_dot(spec, cs, row))
                                                    for row in rows]), y.unif)

    return LogConnection(spec, y.unif, M.l, m, [[rewrite(s) for s in row] for row in M.N])


def kummer_sen_operator(M: LogConnection, F: int) -> LogConnection:
    """Express the connection in the cyclotomic-free coordinate lambda_F.

    Requires the module to be presented in the coordinate u - pi.
    """
    if M.unif != "u-pi":
        raise RingMismatch("module must be presented in the coordinate u-pi")
    return change_uniformizer(M, lambda_approx(M.spec, F, M.m))


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out or [1]


def _root_candidates(spec: FieldSpec, chi: Sequence[FieldElement]) -> List[FieldElement]:
    cands: List[FieldElement] = []
    seen = set()

    def push(x: FieldElement):
        if x not in seen:
            seen.add(x)
            cands.append(x)

    for n in range(0, 11):
        push(spec.from_rational(Fraction(n)))
        push(spec.from_rational(Fraction(-n)))
    # every elementary symmetric function of the roots shows up in chi, so
    # harvest numerator/denominator divisors from all coefficients
    nums, dens = set(), set()
    for coef in chi[:-1]:
        for c in coef.coords:
            if c != 0:
                nums.update(_divisors(c.numerator))
                dens.update(_divisors(c.denominator))
    if not nums:
        nums, dens = {1}, {1}
    dens.add(1)
    for num in sorted(nums):
        for den in sorted(dens):
            f = Fraction(num, den)
            for j in range(spec.e):
                scaled = spec.from_rational(f) * spec.pi() ** j
                for shift in range(-2, 3):
                    push(scaled + shift)
                    push(-scaled + shift)
    return cands


def split_eigenvalues(mat: Matrix):
    """(charpoly, eigenvalues with multiplicity) - eigenvalues None if the
    polynomial does not fully split over the candidate search."""
    spec = mat.spec
    chi = mat.charpoly()
    roots: List[FieldElement] = []
    work = list(chi)
    cands = _root_candidates(spec, chi)
    progress = True
    while len(work) > 1 and progress:
        progress = False
        for r in cands:
            if eval_poly(work, r).is_zero():
                roots.append(r)
                work = poly_deflate(work, r)
                progress = True
                break
    return chi, (roots if len(roots) == len(mat.rows) else None)


def residual_sen(M: LogConnection) -> dict:
    """Residual weight report: exact charpoly of N(0) and exact roots in K.

    Roots are searched by trial evaluation over a deterministic candidate
    list (small integers and divisor-scaled pi-power shifts read off the
    coefficients) with synthetic deflation; the split flag is set only when
    all l roots are found, with multiplicity.
    """
    spec = M.spec
    chi, weights = split_eigenvalues(M.residual_matrix())
    split = weights is not None
    report = {"chi": chi, "split": split,
              "weights": weights if split else None, "per_weight": None}
    if split:
        vp = spec.a_prism().val()
        vl = spec.a_log().val()
        per = []
        for w in weights:
            d = w.dist_to_integers()
            per.append({"weight": w, "dist": d,
                        "margin_prism": vp + d, "margin_log": vl + d,
                        "nearest_integer_certificate": _nearest_integer(w)})
        report["per_weight"] = per
    return report


def _nearest_integer(w: FieldElement) -> Optional[int]:
    """An integer witnessing the distance to Z when that distance is finite.

    If the rational coordinate has a pole (negative p-adic valuation) no
    integer can improve on 0. Otherwise the distance is carried by the
    higher coordinates and is realized by matching the rational coordinate
    modulo a sufficiently high power of p.
    """
    d = w.dist_to_integers()
    if d is INF:
        return None
    p = w.spec.p
    a0 = w.coords[0]
    if a0 == 0 or a0.denominator % p == 0:
        return 0
    t = max(1, int(d) + 2)
    mod = p ** t
    return (a0.numerator * pow(a0.denominator, -1, mod)) % mod


def _gauss_ev(mat: Matrix):
    """e times the least valuation of an entry, an int; None when every
    entry is zero."""
    return min([ev for row in mat.rows for x in row if (ev := x._ev()) is not None],
               default=None)


def matrix_gauss_val(mat: Matrix):
    """The least valuation of an entry: one integer minimum of e*val."""
    return from_ev(_gauss_ev(mat), mat.spec.e)


def probe_nilpotency(M: LogConnection, a, n_max: int = 200) -> dict:
    """{"trace": t}: t[n] is the Gauss valuation of
    a^n * (residual - 0)...(residual - n + 1) for n <= n_max, ending at INF
    when the product vanishes. It gives no verdict: check_nilpotent
    decides a-nilpotency exactly."""
    spec = M.spec
    a = spec.scalar(a)
    res = M.residual_matrix()
    va = a.val()
    P = Matrix.identity(spec, M.l)
    trace = [matrix_gauss_val(P)]
    for n in range(1, n_max + 1):
        P = (res - Matrix.identity(spec, M.l).scale(n - 1)) * P
        if P.is_zero() or va is INF:
            trace.append(INF)
            break
        trace.append(n * va + matrix_gauss_val(P))
    return {"trace": trace}


def _coefficient_evs(spec: FieldSpec, f: Sequence[tuple]) -> list:
    """ev_j = field.num_ev(f_j) of each numerator tuple f_j."""
    return [num_ev(x, spec.p, spec.e) for x in f]


def _least_minimiser(evs: Sequence, num: int, den: int) -> int:
    """The least j minimising ev_j * den + j * num over the ev_j not None."""
    return min((ev * den + j * num, j) for j, ev in enumerate(evs) if ev is not None)[1]


def _roots_above(spec: FieldSpec, f: Sequence[tuple], c: Fraction) -> int:
    """Roots of valuation > c, with multiplicity, of the polynomial whose
    coefficients are a positive multiple of the numerator tuples f: by its
    Newton polygon, the smallest j minimising v(f_j) + j*c over the nonzero
    coefficients (a zero root leaves f_0 = 0 out). Compared on integers:
    e * den(c) times each term is ev_j * den(c) + j * e * num(c)."""
    return _least_minimiser(_coefficient_evs(spec, f), c.numerator * spec.e, c.denominator)


def _taylor_shift(f: Sequence[tuple], s: int) -> List[tuple]:
    """f(x + s) for an integer s, by the O(l^2) Horner-scheme shift on the
    numerator tuples of the coefficients."""
    out = list(f)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] = tuple([a + b * s for a, b in zip(out[j], out[j + 1])])
    return out


def _near_integer_roots(spec: FieldSpec, f: Sequence[tuple], c: Fraction) -> Dict[int, int]:
    """Roots w of a monic chi with v(w - k) > c for some integer k, as
    {k: count with multiplicity} over the discs that hold one, from f, the
    numerator tuples of chi's coefficients over one positive scale
    (Matrix.charpoly_numerators): a positive scale moves no root and no
    minimising j of a Newton polygon, so the descent runs on integers alone.

    For c < 0 that is the one disc v(x) > c, keyed 0. For c >= 0 the disc
    v(x - k) > c depends only on k mod p^n, n = floor(c) + 1: level t keeps
    each k mod p^t whose disc v(x - k) > t - 1 (> c at t = n) holds a root
    of chi(x + k), shifted from its parent disc's chi(x + r) by the integer
    k - r. Such discs are disjoint: at most l survive a level."""
    if c < 0:
        near = _roots_above(spec, f, c)
        return {0: near} if near else {}
    p, n = spec.p, floor(c) + 1
    live, step = {0: (len(f) - 1, f)}, 1
    for t in range(1, n + 1):
        if not live:
            break
        bound = c if t == n else t - 1
        children = {}
        for r, (_, g) in live.items():
            for d in range(p):
                if d:
                    g = _taylor_shift(g, step)
                if cnt := _roots_above(spec, g, bound):
                    children[r + d * step] = (cnt, g)
        live, step = children, step * p
    return {k: cnt for k, (cnt, _) in live.items()}


def _near_weights(spec: FieldSpec, f: Sequence[tuple], evs: Sequence,
                  a: FieldElement) -> int:
    """Roots w, with multiplicity, with val(a) + dist(w, Z) > 0, of the
    charpoly with numerator tuples f and their _coefficient_evs evs: those
    within more than -val(a) = -ev/e of an integer. At ev > 0 that is the
    one disc v(x) > -ev/e, counted as _roots_above does, on integers."""
    ev = a._ev()
    if ev is None:
        return len(f) - 1
    if ev > 0:
        return _least_minimiser(evs, -ev, 1)
    return sum(_near_integer_roots(spec, f, Fraction(-ev, spec.e)).values())


def check_nilpotent(M: LogConnection, a) -> dict:
    """Decide a-nilpotency exactly, val(a) + dist(w, Z) > 0 for every
    residual weight w, from the residual charpoly alone: no weight is
    searched for. An a from another field is refused before any work."""
    spec = M.spec
    a = spec.scalar(a)
    f = M.residual_matrix().charpoly_numerators()[1]
    near = _near_weights(spec, f, _coefficient_evs(spec, f), a)
    return {"status": "ProvenNilpotent" if near == M.l else "ProvenNotNilpotent",
            "evidence": {"near_weights": near}}


def classify_ndR(M: LogConnection) -> dict:
    """Nearly and log-nearly de Rham flags: nilpotency at the two canonical
    scalars a_prism and a_log, both read off the numerators of one residual
    charpoly and one table of their valuations."""
    spec = M.spec
    f = M.residual_matrix().charpoly_numerators()[1]
    evs = _coefficient_evs(spec, f)
    near, log_near = (_near_weights(spec, f, evs, a) == M.l
                      for a in (spec.a_prism(), spec.a_log()))
    return {"status": "proven", "nearly_dR": near, "log_nearly_dR": log_near}


def cohomology(M: LogConnection) -> dict:
    """Kernel and cokernel of the connection operator on the flattened basis.

    h1 representatives follow the echelon convention: standard basis
    vectors at the non-pivot coordinates of the column space. One pass of
    elimination over the operator's rows gives both: its final basis is
    the rref that the kernel is read from, and the rows that stay nonzero
    are the column space's pivot coordinates.
    """
    op = M.operator()
    n = M.size()
    R, pivots, independent = op.reduce_rows()
    ker = null_basis(M.spec, n, R, pivots)
    reps = sorted(set(range(n)).difference(independent))
    return {"h0": len(ker), "h1": n - len(independent),
            "h0_basis": ker, "h1_representatives": reps}


def reduction_ses(M: LogConnection, k: int) -> dict:
    """The exact sequence 0 -> (M mod T^(m-k), grade shift k) -> M -> M mod T^k -> 0.

    The inclusion is multiplication by T^k; it intertwines the sub
    connection (shifted by k) with the ambient one. Exactness is verified
    by an exact rank count.
    """
    if not 0 < k < M.m:
        raise BadTruncationIndex(f"need 0 < k < {M.m}, got {k}")
    spec, l, m = M.spec, M.l, M.m
    msub = m - k
    sub_N = [[M.N[i][j].truncate(msub) + (k if i == j else 0) for j in range(l)]
             for i in range(l)]
    sub = LogConnection(spec, M.unif, l, msub, sub_N)
    quot_N = [[M.N[i][j].truncate(k) for j in range(l)] for i in range(l)]
    quotient = LogConnection(spec, M.unif, l, k, quot_N)
    # inclusion T^j e_i -> T^(j+k) e_i, projection = truncation
    incl = Matrix(spec, [[1 if r == c + l * k else 0 for c in range(l * msub)]
                         for r in range(l * m)])
    proj = Matrix(spec, [[1 if r == c else 0 for c in range(l * m)]
                         for r in range(l * k)])
    intertwines = (M.operator() * incl) == (incl * sub.operator())
    composes_to_zero = (proj * incl).is_zero()
    # l*msub + l*k = l*m, so the two ranks also add up to the ambient rank
    exact = incl.rank() == l * msub and proj.rank() == l * k and composes_to_zero
    return {"sub": sub, "quotient": quotient, "inclusion": incl,
            "projection": proj, "intertwines": intertwines, "exact": exact}
