"""The independent references that the tests compare the library with.

Each reference computes what a product path computes, by another route:
a plainer algorithm, an older version kept as it was, or the paper's
literal definition. It is worth something only while it shares no code
with the path it checks, so a reference may use FieldElement, Matrix and
TruncSeries arithmetic, Fraction and sympy (and pdalg's PDElement
expansions until pdalg itself moves here). It imports and calls none of
the product's kernels:
- field.lift, regular, _vp_int, num_ev and _mulnum;
- falling_levels, falling_powers and PackedLevel;
- Matrix.charpoly, reduce_rows, rref, rank, kernel_basis, column_pivots
  and null_basis;
- _t_linear, operator_family, Family and the walks;
- the descent (_near_integer_roots, _roots_above, _taylor_shift) and
  _gauss_ev;
- no name that ROADMAP item 1B deletes: where a test needs one of those
  paths, the reference keeps its own copy here (compose_by_horner,
  derivative_by_coefficients, t_power_by_shift, gauss_val_by_entries).

A reference is named *_by_*, ref_* or *_oracle, and no other module of
the tests defines a function of such a name. tests/test_source_rules.py
checks all of this, and that every definition here has a test that
reaches it.
"""
import math
from fractions import Fraction
from math import comb

import sympy

from prismlab.field import INF, _make
from prismlab.linalg import Matrix
from prismlab.pdalg import CosimpConfig, PDElement, face, one_plus_a_x_pow
from prismlab.series import TruncSeries


# --- the field K -------------------------------------------------------------

def ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def ref_neg(x):
    return tuple(-a for a in x)


def ref_mul(spec, x, y):
    """The schoolbook product of two coordinate tuples of Fractions, folded
    by pi^e = -(c_0 + ... + c_{e-1} pi^(e-1))."""
    e = spec.e
    prod = [Fraction(0)] * (2 * e - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        prod[k] = Fraction(0)
        for i in range(e):
            prod[k - e + i] -= c * spec.ecoeffs[i]
    return tuple(prod[:e])


def ref_one(spec):
    return (Fraction(1),) + (Fraction(0),) * (spec.e - 1)


def _trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _divmod(a, b):
    q, r = [Fraction(0)] * max(0, len(a) - len(b) + 1), list(a)
    while len(r) >= len(b):
        f, shift = r[-1] / b[-1], len(r) - len(b)
        q[shift] = f
        for i, bc in enumerate(b):
            r[shift + i] -= f * bc
        r = _trim(r)
    return _trim(q), r


def _sub_mul(s0, q, s1):
    """s0 - q * s1 for polynomials over Q."""
    out = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
    for i, x in enumerate(q):
        for j, y in enumerate(s1):
            out[i + j] -= x * y
    return _trim(out)


def invert_by_euclid(x):
    """Reference inverse by the extended Euclidean algorithm over Q[u]: the
    s with s * num = g mod E for a constant g != 0 gives x^-1 = den * s / g."""
    spec = x.spec
    epoly = [Fraction(c) for c in spec.ecoeffs]
    r0, r1 = _trim([Fraction(n) for n in x._num]), epoly
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, _sub_mul(s0, q, s1)
    assert len(r0) == 1
    _, rem = _divmod([c * x._den / r0[0] for c in s0], epoly)
    return spec.element(rem)


def vp_by_single_factors(n, p):
    """The valuation by stripping one factor of p per turn, the reference
    for the squaring ladder of _vp_int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _vp_rational(c, p):
    """v_p of a nonzero Fraction."""
    return vp_by_single_factors(c.numerator, p) - vp_by_single_factors(c.denominator, p)


def deriv_by_products(spec):
    """E'(pi) as FieldSpec built it before its closed form: the sum of
    i c_i times successive products of pi."""
    acc, pw = spec.zero(), spec.one()
    for i, c in enumerate(spec.ecoeffs[1:], 1):
        acc = acc + pw * (i * c)
        pw = pw * spec.pi()
    return acc


def val_by_terms(x, start=0):
    """The minimum valuation kernel as it was: v_p(c_i) + i/e as a Fraction
    for each nonzero coordinate c_i, i >= start; None when there is none."""
    p, e = x.spec.p, x.spec.e
    terms = [_vp_rational(c, p) + Fraction(i, e)
             for i, c in enumerate(x.coords) if i >= start and c]
    return min(terms) if terms else None


def dist_by_terms(x):
    """dist_to_integers as it was, on val_by_terms."""
    m1 = val_by_terms(x, 1)
    c0 = x.coords[0]
    if c0:
        v0 = _vp_rational(c0, x.spec.p)
        if v0 < 0:
            return Fraction(v0 if m1 is None or v0 < m1 else m1)
    return INF if m1 is None else m1


def window_dist_oracle(alpha, window=200):
    """Independent lower-bound oracle: max of val(alpha - k) over a window."""
    best = None
    for k in range(-window, window + 1):
        v = (alpha - k).val()
        if best is None or best < v:
            best = v
    return best


# --- matrices ----------------------------------------------------------------

def product_by_dot_products(A, B):
    """Every scalar product of every row with every column, zeros included."""
    spec = A.spec
    out = []
    for row in A.rows:
        out_row = []
        for col in zip(*B.rows):
            acc = spec.zero()
            for x, y in zip(row, col):
                acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return Matrix(spec, out)


def rref_by_columns(A):
    """Reference: Gauss-Jordan elimination column by column, as rref ran
    before it was built on reduce_rows. Returns (rows, pivot columns)."""
    rows = [list(r) for r in A.rows]
    pivots = []
    pr = 0
    for pc in range(A.ncols):
        pivot_row = next((i for i in range(pr, len(rows)) if not rows[i][pc].is_zero()), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = rows[pr][pc].invert()
        rows[pr] = [a * inv for a in rows[pr]]
        for i in range(len(rows)):
            if i != pr and not rows[i][pc].is_zero():
                f = rows[i][pc]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots


def charpoly_by_identity_products(A):
    """Matrix.charpoly as it was: Faddeev-LeVerrier with M_k = A M_(k-1)
    from M_0 = I, and M_k + c I formed through Matrix.identity and scale."""
    n, spec = A.nrows, A.spec
    coeffs = [spec.zero()] * n + [spec.one()]
    M = Matrix.identity(spec, n)
    for k in range(1, n + 1):
        M = A * M
        c = -(M.trace() * Fraction(1, k))
        coeffs[n - k] = c
        M = M + Matrix.identity(spec, n).scale(c)
    return coeffs


def charpoly_by_elements(A):
    """Matrix.charpoly before it ran on integers: Faddeev-LeVerrier on
    field elements, M_1 = A and M_(k+1) = A (M_k + c_(n-k) I)."""
    n, spec = A.nrows, A.spec
    coeffs = [spec.zero()] * n + [spec.one()]
    M = A
    for k in range(1, n + 1):
        t = M.trace()
        c = _make(spec, tuple([-x for x in t._num]), t._den * k)
        coeffs[n - k] = c
        if k < n:
            M = A * Matrix._trusted(spec, tuple(
                row[:i] + (row[i] + c,) + row[i + 1:] for i, row in enumerate(M.rows)))
    return coeffs


def rank_oracle(op: Matrix) -> int:
    """Rank over K through the rational regular representation.

    Each coordinate vector becomes an e x e block of exact rationals
    (multiplication by the element in the power basis); plain fraction
    Gaussian elimination then gives e * rank_K. A different algorithm and
    data layout than linalg.rref.
    """
    spec = op.spec
    e = spec.e
    ec = spec.ecoeffs

    def mult_block(x):
        cols = []
        cur = list(x.coords)
        for _ in range(e):
            cols.append(list(cur))
            nxt = [Fraction(0)] * (e + 1)
            for i, c in enumerate(cur):
                nxt[i + 1] += c
            lead = nxt[e]
            cur = [nxt[i] - lead * ec[i] for i in range(e)]
        return cols  # cols[j][i] = coord i of x * pi^j

    big = []
    for r in range(op.nrows):
        rows_block = [[Fraction(0)] * (op.ncols * e) for _ in range(e)]
        for c in range(op.ncols):
            blk = mult_block(op[r, c])
            for j in range(e):
                for i in range(e):
                    rows_block[i][c * e + j] = blk[j][i]
        big.extend(rows_block)
    # fraction gaussian elimination
    rank = 0
    rows = big
    ncols = op.ncols * e
    pr = 0
    for pc in range(ncols):
        piv = None
        for i in range(pr, len(rows)):
            if rows[i][pc] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = Fraction(1) / rows[pr][pc]
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
        pr += 1
        rank += 1
        if pr == len(rows):
            break
    assert rank % e == 0
    return rank // e


def gauss_val_by_entries(A):
    """The least valuation of an entry, val() of each; INF for zero."""
    return min((x.val() for row in A.rows for x in row), default=INF)


# --- series ------------------------------------------------------------------

def compose_by_horner(f, g):
    """f(g(T)) by Horner's scheme in g, tagged with g's label; g(0) = 0."""
    acc = TruncSeries.zero(g.spec, g.m, g.unif)
    for c in reversed(f.coeffs):
        acc = acc * g + c
    return acc


def derivative_by_coefficients(f):
    """df/dT coefficient by coefficient; its top coefficient, which would
    need the dropped T^m term of f, is 0."""
    return TruncSeries(f.spec, f.m, [f.coeffs[k + 1] * (k + 1) for k in range(f.m - 1)],
                       f.unif)


def reversion_by_composition(y):
    """The reversion of y one coefficient at a time: the T^k coefficient of
    y(d) for the partial inverse d through degree k - 1 is the error that
    the next coefficient cancels. m - 2 full compositions."""
    spec, m = y.spec, y.m
    c1inv = y.coeffs[1].invert()
    d = [spec.zero(), c1inv]
    for k in range(2, m):
        err = compose_by_horner(y, TruncSeries(spec, m, d, y.unif)).coeffs[k]
        d.append(-(err * c1inv))
    return TruncSeries(spec, m, d, y.unif)


def rewrite_by_composition(f, y):
    """g with g(y(T)) = f(T): f composed with the reversion of y, tagged
    with y's label."""
    return compose_by_horner(f, y.reversion()).with_unif(y.unif)


def lambda_by_powers(spec, F, m):
    """prod_n E(u^(p^n))/E(0) by Horner's scheme in the series u^(p^n),
    each power the p-th power of the one before by p - 1 products."""
    unif = f"lambda{F}"
    upow = TruncSeries(spec, m, [spec.pi(), spec.one()], unif)
    out = TruncSeries.one(spec, m, unif)
    for n in range(F + 1):
        if n:
            base = upow
            for _ in range(spec.p - 1):
                upow = upow * base
        acc = TruncSeries.zero(spec, m, unif)
        for c in reversed(spec.ecoeffs):
            acc = acc * upow + c
        out = out * (acc * Fraction(1, spec.ecoeffs[0]))
    return out


def taylor_coeff_oracle(spec, F, m):
    """Expand prod E(u^(p^n))/E(0) around u = pi by symbolic differentiation."""
    u = sympy.symbols("u")
    epoly = sum(sympy.Rational(c) * u**i for i, c in enumerate(spec.ecoeffs))
    prod = sympy.prod([epoly.subs(u, u ** (spec.p**n)) for n in range(F + 1)])
    prod = sympy.expand(prod / sympy.Rational(spec.ecoeffs[0]) ** (F + 1))
    pi = spec.pi()
    out = []
    for k in range(m):
        poly = sympy.Poly(prod.diff(u, k) / sympy.factorial(k), u)
        acc = spec.zero()
        for (j,), c in poly.terms():
            acc = acc + Fraction(int(sympy.numer(c)), int(sympy.denom(c))) * pi**j
        out.append(acc)
    return out


def multiplier_by_quotient(y):
    """The transport multiplier c = (y/T) / y' with its round-trip gauge, as
    change_uniformizer built it before its table came from the powers of
    (y/T)^(-1).

    The quotient only determines c below its top coefficient, because the
    T^(m-1) coefficient of y' would need the dropped degree-m term of y.
    Composing the naive forward and backward multipliers yields
    1 + (m-1) r y1^m T^(m-1), where r is the degree-m coefficient of the
    reversion of y, so a factor 1 + ((1-m)/2) r y1^m T^(m-1) on each leg
    makes a round trip the identity.
    """
    spec, m = y.spec, y.m
    c = y.shift_down() * derivative_by_coefficients(y).invert_unit()
    rev = TruncSeries._trusted(spec, m + 1, y.coeffs + (spec.zero(),), y.unif).reversion()
    r = rev.coeffs[m]
    if not r.is_zero():
        top = r * y.coeffs[1] ** m * Fraction(1 - m, 2)
        c = TruncSeries._trusted(spec, m, c.coeffs[:-1] + (c.coeffs[-1] + c.coeffs[0] * top,),
                                 c.unif)
    return c


# --- weights and verdicts ----------------------------------------------------

def near_weight_count_by_polygons(M, a):
    """The number of residual weights w, with multiplicity, with
    dist(w, Z) > c = -val(a), read off Newton polygons.

    For c >= 0 and K = floor(c) + 1, such a w lies within more than c of
    exactly one k in range(p^K): any k' = k mod p^K is as close, and two
    residues mod p^K differ by valuation at most K - 1 <= c. For c < 0,
    dist(w, Z) > c iff val(w) > c (a pole cannot be repaired by an
    integer), so k = 0 alone is tried. The roots of f = chi(x + k) of
    valuation > c number the least j minimizing v(f_j) + j*c (Koblitz,
    GTM 58, ch. IV).
    """
    chi = charpoly_by_elements(M.residual_matrix())
    c = -a.val()
    total = 0
    for k in range(M.spec.p ** max(0, math.floor(c) + 1)):
        f = [sum((chi[j] * (math.comb(j, i) * k ** (j - i)) for j in range(i, len(chi))),
                 M.spec.zero()) for i in range(len(chi))]
        terms = [(x.val() + j * c, j) for j, x in enumerate(f) if not x.is_zero()]
        low = min(t for t, _ in terms)
        total += min(j for t, j in terms if t == low)
    return total


def roots_above_by_elements(chi, c):
    """connops._roots_above before the integer descent: the Newton polygon
    of the field-element coefficients, compared on integers."""
    e = chi[0].spec.e
    num, den = c.numerator * e, c.denominator
    return min((ev * den + j * num, j) for j, ev in enumerate(x._ev() for x in chi)
               if ev is not None)[1]


def taylor_shift_by_elements(chi, s):
    """connops._taylor_shift before the integer descent: chi(x + s) on
    field elements, two elements built per step."""
    out = list(chi)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] = out[j] + out[j + 1] * s
    return out


def near_integer_roots_by_elements(chi, c):
    """connops._near_integer_roots before the integer descent: the same
    disc descent on the field-element charpoly."""
    if c < 0:
        near = roots_above_by_elements(chi, c)
        return {0: near} if near else {}
    p, n = chi[0].spec.p, math.floor(c) + 1
    live, step = {0: (len(chi) - 1, chi)}, 1
    for t in range(1, n + 1):
        if not live:
            break
        bound = c if t == n else t - 1
        children = {}
        for r, (_, f) in live.items():
            for d in range(p):
                if d:
                    f = taylor_shift_by_elements(f, step)
                if cnt := roots_above_by_elements(f, bound):
                    children[r + d * step] = (cnt, f)
        live, step = children, step * p
    return {k: cnt for k, (cnt, _) in live.items()}


def roots_above_by_fractions(chi, c):
    """connops._roots_above as it was: the Newton polygon compared on
    Fraction valuations, one val() per coefficient."""
    return min((coef.val() + j * c, j) for j, coef in enumerate(chi)
               if not coef.is_zero())[1]


# --- convergence -------------------------------------------------------------

def falling_by_products(x, k):
    """x (x - 1) ... (x - k + 1) as a Fraction."""
    out = Fraction(1)
    for i in range(k):
        out *= x - i
    return out


def _vp_factorial(n, p):
    """v_p(n!) by Legendre's sum of n // p^i."""
    v, q = 0, p
    while q <= n:
        v, q = v + n // q, q * p
    return v


def trace_growth_by_products(op, sigma, p, K):
    """t(p^K) - t(p^(K-1)) for t(n) = GaussVal(op(op-1)...(op-n+1))
    + n*sigma - v_p(n!), the valuation of term n at sigma = val(a) + v0;
    None when the product vanishes by n = p^K."""
    one = Matrix.identity(op.spec, op.nrows)
    P, t = one, {}
    for n in range(1, p ** K + 1):
        P = (op - one.scale(n - 1)) * P
        if P.is_zero():
            return None
        if n in (p ** (K - 1), p ** K):
            t[n] = gauss_val_by_entries(P) + n * sigma - _vp_factorial(n, p)
    return t[p ** K] - t[p ** (K - 1)]


def slope_threshold_by_loop(sigma, p):
    """_slope_threshold with q found one step at a time, the reference for
    its ladder: the least q >= 0 with sigma (p-1) p^(q+1) >= 1."""
    if sigma >= Fraction(1, p - 1):
        return Fraction(1, p - 1) - sigma
    q = 0
    while sigma * (p - 1) * p ** (q + 1) < 1:
        q += 1
    return q + Fraction(p, p - 1) - sigma * p ** (q + 1)


# --- stratifications ---------------------------------------------------------

def t_power_by_shift(spec, l, m, d):
    """The matrix of x -> T^d x on the flattened basis, entry by entry:
    T^k e_j, at flat index k*l + j, goes to T^(k+d) e_j, or to 0 once
    k + d >= m."""
    n = l * m
    return Matrix(spec, [[1 if r == c + d * l else 0 for c in range(n)] for r in range(n)])


def leibniz_by_every_power(strat):
    """The Leibniz test over every d = 0..m-1, kept as the reference for
    check_leibniz, which tests d in {0, 1} only."""
    spec, l, m, a = strat.spec, strat.l, strat.m, strat.a
    if strat.D < 1:
        return {"ok": True, "witness": None}
    phi1 = strat.phi[1]
    for d in range(m):
        md = t_power_by_shift(spec, l, m, d)
        gap = phi1 * md - md * phi1 - md.scale(a * d)
        if not gap.is_zero():
            where = next((r, c) for r in range(l * m) for c in range(l * m)
                         if not gap[r, c].is_zero())
            return {"ok": False, "witness": {"power": d, "entry": where}}
    return {"ok": True, "witness": None}


def family_by_products(phi1, a, count):
    """phi_(n+1) = (phi_1 - n*a) phi_n by plain Matrix products, the
    reference for the integer kernel of operator_family."""
    n = phi1.nrows
    out = [Matrix.identity(phi1.spec, n)]
    for k in range(count - 1):
        out.append((phi1 - Matrix.identity(phi1.spec, n).scale(a * k)) * out[-1])
    return out


def cocycle_sides_by_triple_sums(strat):
    """Both sides of the gluing identity by direct triple-sum expansion.

    Only valid on modules with m = 1, where no T-rescaling enters.
    Serves as an independent cross-check of check_cocycle's staged
    composite: returns ([[lhs]], [[rhs]]) indexed [component][generator].
    """
    assert strat.m == 1
    spec, l, D, a = strat.spec, strat.l, strat.D, strat.a
    cfg = CosimpConfig(spec, a, D, 1)
    lhs = [[PDElement.zero(cfg, 2) for _ in range(l)] for _ in range(l)]
    rhs = [[PDElement.zero(cfg, 2) for _ in range(l)] for _ in range(l)]
    for l2 in range(D + 1):
        for mm in range(D + 1 - l2):
            for n in range(D + 1 - l2 - mm):
                mat = strat.phi[l2] * strat.phi[mm + n]
                sign = -1 if mm % 2 else 1
                mono = PDElement.monomial(cfg, 2, (l2 + mm, n), 0,
                                          sign * comb(l2 + mm, l2))
                w = mono * one_plus_a_x_pow(cfg, 2, 1, -(mm + n))
                for i2 in range(l):
                    for j0 in range(l):
                        c = mat[i2, j0]
                        if not c.is_zero():
                            lhs[i2][j0] = lhs[i2][j0] + w.scale(c)
    for n in range(D + 1):
        x2n = PDElement.monomial(cfg, 2, (0, n), 0, 1)
        for i2 in range(l):
            for j0 in range(l):
                c = strat.phi[n][i2, j0]
                if not c.is_zero():
                    rhs[i2][j0] = rhs[i2][j0] + x2n.scale(c)
    return lhs, rhs


def cocycle_by_expansion(strat):
    """Compare both composites of the gluing datum on the level-2 ring.

    The paper's literal definition, kept as the reference for check_cocycle.
    For each flattened basis vector T^k e_j, the inner-then-outer composite
    is expanded through the twisted face maps and compared against the
    direct outer expansion, coefficient by coefficient on monomials
    X1^[k1] X2^[k2] T^j. Running over the whole flattened basis (not just
    the T^0 generators) makes the check sensitive to every matrix entry of
    the family.
    """
    spec, l, m, D, a = strat.spec, strat.l, strat.m, strat.D, strat.a
    cfg = CosimpConfig(spec, a, D, m)
    report = {"ok": True, "degeneracy_ok": True, "witness": None}
    if not strat.phi[0] == Matrix.identity(spec, l * m):
        report["ok"] = False
        report["degeneracy_ok"] = False
        return report

    q = face(0, PDElement.variable(cfg, 1, 1))
    gam_q = [q.gamma(n) for n in range(D + 1)]
    tw_pow = [one_plus_a_x_pow(cfg, 2, 1, k) for k in range(m)]
    t_mono = [PDElement.monomial(cfg, 2, (0, 0), k, 1) for k in range(m)]

    def embed_plain(f: TruncSeries) -> PDElement:
        out = PDElement.zero(cfg, 2)
        for k, c in enumerate(f.coeffs):
            if not c.is_zero():
                out = out + t_mono[k].scale(c)
        return out

    def embed_twisted(f: TruncSeries) -> PDElement:
        out = PDElement.zero(cfg, 2)
        for k, c in enumerate(f.coeffs):
            if not c.is_zero():
                out = out + (t_mono[k] * tw_pow[k]).scale(c)
        return out

    cols = {}

    def phi_col(n, c):
        # column c of phi_n as an l-vector of truncated series; the module
        # generators occupy columns 0..l-1 (flat index of T^k e_j is k*l + j)
        if (n, c) not in cols:
            mat = strat.phi[n]
            cols[(n, c)] = [TruncSeries(spec, m, [mat[k * l + j, c] for k in range(m)])
                            for j in range(l)]
        return cols[(n, c)]

    x1 = [PDElement.monomial(cfg, 2, (mm, 0), 0, 1) for mm in range(D + 1)]
    x2 = [PDElement.monomial(cfg, 2, (0, n), 0, 1) for n in range(D + 1)]

    for x0 in range(l * m):
        inner = [PDElement.zero(cfg, 2) for _ in range(l)]
        for n in range(D + 1):
            v = phi_col(n, x0)
            for i in range(l):
                if not v[i].is_zero():
                    inner[i] = inner[i] + embed_twisted(v[i]) * gam_q[n]
        lhs = [PDElement.zero(cfg, 2) for _ in range(l)]
        for i in range(l):
            if inner[i].is_zero():
                continue
            for mm in range(D + 1):
                w = phi_col(mm, i)
                factor = x1[mm] * inner[i]
                for i2 in range(l):
                    if not w[i2].is_zero():
                        lhs[i2] = lhs[i2] + embed_plain(w[i2]) * factor
        rhs = [PDElement.zero(cfg, 2) for _ in range(l)]
        for n in range(D + 1):
            v = phi_col(n, x0)
            for i2 in range(l):
                if not v[i2].is_zero():
                    rhs[i2] = rhs[i2] + embed_plain(v[i2]) * x2[n]
        best = None
        for i2 in range(l):
            diff = lhs[i2] - rhs[i2]
            for (ks, j) in diff.terms:
                key = (ks[0] + ks[1], ks[0], j, i2)
                if best is None or key < best[0]:
                    best = (key, i2, ks, j)
        if best is not None:
            _, i2, (k1, k2), j = best
            report["ok"] = False
            report["witness"] = {"generator": x0, "component": i2,
                                 "monomial": {"x1": k1, "x2": k2, "t": j}}
            return report
    return report


def key_lemma_by_expansion(phi, a, n_max, D):
    """The key lemma's scalars read off PDElement expansions: the X^[k]
    coefficient of (-1)^mm C(i+mm, i) X^[i+mm] (1+aX)^(-(mm+n)) in the
    level-1 divided-power ring, the same product cache, loop order and
    witness search as verify_key_lemma. The literal reference for it."""
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


# --- the operator-family walks -----------------------------------------------

def first_off_recurrence_by_matrices(phi, a):
    """first_off_recurrence with every level built by Matrix products
    (family_by_products) and compared by ==."""
    if len(phi) < 3:
        return None
    psi = family_by_products(phi[1], a, len(phi))
    return next((n for n in range(2, len(phi)) if phi[n] != psi[n]), None)


def first_off_family_by_matrices(phi, psi1, a):
    """strat._first_off_family with every level built by Matrix products
    (family_by_products) and compared by rows."""
    found, bound = None, psi1.ncols
    for n, psi in enumerate(family_by_products(psi1, a, len(phi))):
        if n == 0:
            continue
        rows = phi[n].rows
        if found is None and rows == psi.rows:
            continue
        for r, (x, y) in enumerate(zip(rows, psi.rows)):
            if x[:bound] != y[:bound]:
                bound = next(c for c in range(bound) if x[c] != y[c])
                found = (bound, n, r)
        if bound == 0:
            break
    return found
