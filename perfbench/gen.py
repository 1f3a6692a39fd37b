"""Seeded inputs for the benchmark jobs, each with the answer its oracle expects.

Plain Python over ``fractions.Fraction``: nothing here imports prismlab. An
input and its expected answer are fixed by the seed and by how the input was
built; the code under test never computes an expected answer.

Data shapes used throughout:

* a field element is a tuple of ``e`` Fractions (coordinates in the pi-basis);
* a series is a tuple of ``m`` field elements;
* a connection is a ``Conn`` whose ``N[i][j]`` is a series;
* a weight is a ``Weight``: its coordinates and ``dist``, the distance
  ``sup_k v(w - k)`` to the integers, with ``None`` for +infinity.
"""
from __future__ import annotations

import json
import random
from collections import namedtuple
from fractions import Fraction as Q

FIELD_TABLE = ((3, (-3, 1)), (3, (-3, 0, 1)), (2, (-2, 0, 1)), (3, (3, 3, 0, 1)))

Conn = namedtuple("Conn", "field unif l m N")
Weight = namedtuple("Weight", "coords dist")


def vp(r, p):
    """p-adic valuation of a nonzero rational."""
    r = Q(r)
    v, num, den = 0, r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class Field:
    """K = Q_p[u]/(E) with the valuations of the two canonical scalars.

    v(E'(pi)) is the minimum of v_p(i c_i) + (i-1)/e over the terms of E';
    the (i-1)/e are distinct modulo 1, so no two terms tie and the minimum is
    exact. a_prism = -E'(pi) and a_log = pi * a_prism.
    """

    def __init__(self, p, E):
        self.p, self.E, self.e = p, tuple(E), len(E) - 1
        self.v_prism = min(vp(i * c, p) + Q(i - 1, self.e)
                           for i, c in enumerate(E) if i and c)
        self.v_log = self.v_prism + Q(1, self.e)
        self.index = FIELD_TABLE.index((p, self.E))

    def v_scalar(self, name):
        return self.v_prism if name == "prism" else self.v_log

    def json(self):
        return {"E": list(self.E), "p": self.p}


FIELDS = tuple(Field(p, E) for p, E in FIELD_TABLE)


# --- field elements and series as plain coordinates -----------------------

def const(f, r):
    return (Q(r),) + (Q(0),) * (f.e - 1)


def elem_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def elem_scale(x, r):
    return tuple(a * r for a in x)


def series_const(f, m, x):
    return (x,) + (const(f, 0),) * (m - 1)


def rand_rational(rng, span=4):
    return Q(rng.randint(-span, span), rng.choice((1, 1, 1, 2, 3, 4, 9)))


def rand_element(rng, f, span=4):
    return tuple(rand_rational(rng, span) for _ in range(f.e))


def rand_series(rng, f, m, head=None):
    """Random series; ``head`` fixes the constant term."""
    tail = [rand_element(rng, f) for _ in range(m)]
    if head is not None:
        tail[0] = head
    return tuple(tail)


def random_conn(rng, f, l, m, unif="T"):
    return Conn(f, unif, l, m, tuple(tuple(rand_series(rng, f, m) for _ in range(l))
                                     for _ in range(l)))


# --- conjugation by a constant rational matrix ------------------------------

def mat_inverse(P):
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(P)
    rows = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
            for i, row in enumerate(P)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                fac = rows[r][c]
                rows[r] = [a - fac * b for a, b in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def rand_unimodular(rng, l):
    """Integer matrix of determinant 1: upper times lower unitriangular."""
    U = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(l)]
         for i in range(l)]
    L = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(l)]
         for i in range(l)]
    return [[sum(U[i][k] * L[k][j] for k in range(l)) for j in range(l)] for i in range(l)]


def conjugated_diagonal(rng, f, diag, unif="T"):
    """Connection with matrix P diag(f_1..f_l) P^-1 for a random constant P.

    Conjugation by a constant matrix commutes with T d/dT, so the operator,
    its cohomology and the residual weights (constant terms of the f_j) are
    those of the diagonal connection.
    """
    l, m = len(diag), len(diag[0])
    P = rand_unimodular(rng, l)
    Pinv = mat_inverse(P)
    N = []
    for r in range(l):
        row = []
        for s in range(l):
            coeffs = []
            for k in range(m):
                acc = const(f, 0)
                for j in range(l):
                    acc = elem_add(acc, elem_scale(diag[j][k], P[r][j] * Pinv[j][s]))
                coeffs.append(acc)
            row.append(tuple(coeffs))
        N.append(tuple(row))
    return Conn(f, unif, l, m, tuple(N))


# --- residual weights with known distance to the integers -------------------

def _unit(rng, p, hi=7):
    while True:
        s = rng.randint(-hi, hi)
        if s and s % p:
            return s


def w_int(rng, f, lo=-4, hi=6):
    return Weight(const(f, rng.randint(lo, hi)), None)


def w_unit_rat(rng, f):
    """A p-integral non-integer rational: integers approach it p-adically."""
    den = rng.choice([d for d in (2, 4, 5, 7) if d % f.p])
    num = rng.choice([n for n in range(-9, 10) if n % den])
    return Weight(const(f, Q(num, den)), None)


def w_p_rat(rng, f, k):
    """s / (d p^k) with p not dividing s d: distance -k."""
    return Weight(const(f, Q(_unit(rng, f.p, 9), f.p ** k * _unit(rng, f.p, 2) ** 2)), -k)


def w_pi_at(f, n, s, j, k):
    """The weight n + s pi^j / p^k of w_pi, with every value given."""
    coords = [Q(0)] * f.e
    coords[0] = Q(n)
    coords[j] = Q(s, f.p ** k)
    return Weight(tuple(coords), Q(j, f.e) - k)


NEAR = (-2, -1, 0, 1, 2)
FAR = (-3, 3)


def w_pi(rng, f, k, ns=NEAR):
    """n + s pi^j / p^k with n in ``ns``, 0 < j < e and s a p-adic unit:
    distance j/e - k.

    The pi^j term has valuation j/e - k, which is not an integer, so no
    integer can cancel it. The candidate search shifts its guesses by at
    most 2, so it finds such a root alone iff |n| <= 2: n in FAR is missed.
    The cell, not the seed, picks ``ns``, so the seed does not decide
    which inputs answer Unknown.
    """
    j = rng.randint(1, f.e - 1)
    n = rng.choice(ns)
    return w_pi_at(f, n, _unit(rng, f.p, 5), j, k)


def w_small(rng, f, kind, ns=NEAR):
    if kind == "int":
        return w_int(rng, f)
    if kind == "unit":
        return w_unit_rat(rng, f)
    if kind == "prat":
        return w_p_rat(rng, f, rng.randint(1, 2))
    if kind == "pi0":
        return w_pi(rng, f, 0, ns) if f.e > 1 else w_unit_rat(rng, f)
    return w_pi(rng, f, 1, ns) if f.e > 1 else w_p_rat(rng, f, 1)


# Pairs of pi-multiples by field index (e > 1): the first pair's roots are
# among the candidate search's guesses, the second's are not. A pair's
# charpoly, and so whether the search finds its roots, does not depend on
# the conjugation, so the seed does not change how many answer Unknown.
PI_PAIRS = {f.index: tuple([w_pi_at(f, *a), w_pi_at(f, *b)] for a, b in pairs)
            for f, pairs in (
                (FIELDS[1], (((-1, -1, 1, 0), (-1, 2, 1, 1)), ((-1, 2, 1, 0), (1, -5, 1, 1)))),
                (FIELDS[2], (((-1, -1, 1, 0), (-2, -1, 1, 1)), ((-1, 3, 1, 0), (1, 1, 1, 1)))),
                (FIELDS[3], (((-1, 4, 1, 0), (1, 2, 1, 1)), ((-2, 4, 2, 0), (3, -1, 1, 1)))))}

SMALL_KINDS = ("int", "unit", "prat", "pi0", "pi1")
# Paired with an integer weight, these always split over the candidate
# search's guesses, so such inputs take the exact path whatever the seed.
RATIONAL_KINDS = ("int", "unit", "prat")


def w_big(f, n):
    """The integer weight ``n`` (in the hundreds): the root search enumerates
    the divisors of the charpoly coefficients, so its cost grows with them
    and swings with their factorisation. The cell fixes ``n``, so the seed
    does not change the work; it draws the conjugation and the tails."""
    return Weight(const(f, n), None)


# Pairs of big weights, one per cell of verdict_blocks (by c % 4).
BIG_WEIGHTS = ((213, -306), (-318, 301), (427, -322), (-509, 311))


def margin_ok(v_a, weights):
    """val(a) + dist(w, Z) > 0 for every weight (the paper's nilpotency margin)."""
    return all(w.dist is None or v_a + w.dist > 0 for w in weights)


def weight_conn(rng, f, weights, m, unif="T"):
    diag = [rand_series(rng, f, m, head=w.coords) for w in weights]
    return conjugated_diagonal(rng, f, diag, unif)


def nonsplit_conn(rng, f, k, m):
    """Companion matrix of x^2 - c, c a non-square unit over p^(2k).

    The roots +-sqrt(c) lie outside K: K is totally ramified, so its residue
    field is F_p, where c is not a square. sqrt(c) has valuation -k, and for
    k = 0 its residue lies outside F_p, so every integer is at distance 0.
    Either way dist = -k.
    """
    c = rng.choice([c for c in range(-8, 9)
                    if c % f.p and pow(c % f.p, (f.p - 1) // 2, f.p) == f.p - 1])
    cq = Q(c, f.p ** (2 * k))
    z = const(f, 0)
    res = ((z, const(f, cq)), (const(f, 1), z))
    N = tuple(tuple(rand_series(rng, f, m, head=res[i][j]) for j in range(2))
              for i in range(2))
    roots = [Weight(None, Q(-k)), Weight(None, Q(-k))]
    return Conn(f, "T", 2, m, N), roots


# --- convergence verdicts ----------------------------------------------------

def digit_sum(n, p):
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def factorial_val(n, p):
    return (n - digit_sum(n, p)) // (p - 1)


def weight_verdict(f, w, v_a, v0):
    """Convergence at v0 of the eigen-series for eigenvalue w.

    Nonnegative integer: the falling factorials vanish (Convergent).
    dist = +inf (w in Z_p): prod(w - i) has valuation >= v_p(n!), so the
    terms have valuation >= n (val(a) + v0) and converge.
    dist = d < 0: every factor has valuation exactly d, so the terms have
    valuation n (val(a) + d + v0) - v_p(n!); v_p(n!) = n/(p-1) - s_p(n)/(p-1),
    so the series converges iff the slope val(a) + d + v0 - 1/(p-1) > 0.
    """
    if w.dist is None:
        return "Convergent"
    slope = v_a + w.dist + v0 - Q(1, f.p - 1)
    return "Convergent" if slope > 0 else "Divergent"


def series_verdict(f, weights, v_a, v0):
    verdicts = [weight_verdict(f, w, v_a, v0) for w in weights]
    return "Divergent" if "Divergent" in verdicts else "Convergent"


def shifted_weights(f, weights, m):
    """Eigenvalues of T d/dT + N on the flattened basis: w + k, 0 <= k < m.

    The operator is block lower-triangular in T-degree with diagonal blocks
    N(0) + k; shifting by an integer keeps the distance to the integers.
    """
    out = []
    for w in weights:
        for k in range(m):
            out.append(Weight(elem_add(w.coords, const(f, k)), w.dist))
    return out


def rank1_trace(f, alpha, v_a, v0, D):
    """Exact valuation trace of the rank-1, m = 1 kernel with rational weight
    alpha: A_n = a^n alpha (alpha - 1) ... (alpha - n + 1), and term n is
    worth val(A_n) + n v0 - v_p(n!)."""
    trace = [Q(0)]
    acc = Q(0)
    for n in range(1, D + 1):
        factor = alpha - (n - 1)
        if factor == 0 or trace[-1] is None:
            trace.append(None)
            continue
        acc += vp(factor, f.p)
        trace.append(n * v_a + acc + n * v0 - factorial_val(n, f.p))
    return trace


# --- canonical JSON, written independently of prismlab.serialize ----------

def enc_rat(r):
    r = Q(r)
    return r.numerator if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def enc_elem(x):
    return [enc_rat(c) for c in x]


def enc_conn(c):
    return {"N": [[{"coeffs": [enc_elem(x) for x in s], "m": c.m, "unif": c.unif}
                   for s in row] for row in c.N],
            "field": c.field.json(), "l": c.l, "m": c.m, "unif": c.unif}


def canon(obj):
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def shorthand(c):
    """The CLI's lenient connection form: no unif, constant cells as bare
    rationals, other cells as short coefficient lists with trailing zeros
    dropped and rational coefficients written bare."""
    def cell(s):
        coeffs = list(s)
        while len(coeffs) > 1 and not any(coeffs[-1]):
            coeffs.pop()
        bare = [enc_rat(x[0]) if not any(x[1:]) else enc_elem(x) for x in coeffs]
        if len(bare) == 1 and not isinstance(bare[0], list):
            return bare[0]
        return bare
    return json.dumps({"field": {"p": c.field.p, "E": list(c.field.E)}, "l": c.l,
                       "m": c.m, "N": [[cell(s) for s in row] for row in c.N]}, indent=1)


def conn_dual(c):
    N = tuple(tuple(tuple(elem_scale(x, -1) for x in c.N[j][i]) for j in range(c.l))
              for i in range(c.l))
    return c._replace(N=N)


def conn_twist(c, n):
    def shift(s):
        return (elem_add(s[0], const(c.field, n)),) + s[1:]
    N = tuple(tuple(shift(c.N[i][j]) if i == j else c.N[i][j] for j in range(c.l))
              for i in range(c.l))
    return c._replace(N=N)


def conn_tensor(c1, c2):
    """N1 (x) I + I (x) N2, indices (i1, i2) -> i1 * l2 + i2."""
    f, m, l2 = c1.field, c1.m, c2.l
    zero = (const(f, 0),) * m
    l = c1.l * l2
    N = [[zero] * l for _ in range(l)]
    for i1 in range(c1.l):
        for j1 in range(c1.l):
            for i2 in range(l2):
                for j2 in range(l2):
                    s = zero
                    if i2 == j2:
                        s = tuple(map(elem_add, s, c1.N[i1][j1]))
                    if i1 == j1:
                        s = tuple(map(elem_add, s, c2.N[i2][j2]))
                    N[i1 * l2 + i2][j1 * l2 + j2] = s
    return Conn(f, c1.unif, l, m, tuple(map(tuple, N)))


def a_prism_coords(f):
    """-E'(pi) in the pi-basis: E' has degree e - 1, so no reduction."""
    return tuple(Q(-i * f.E[i]) for i in range(1, f.e + 1))


# --- workload job lists ------------------------------------------------------
#
# Each workload is a list of blocks. A block holds one job per cell of the
# workload's grid, so any run of whole blocks has the same mix of sizes, and
# the seed moves only the coefficients inside the cells.

ROUNDTRIP_SIZES = ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                   (2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
ROUNDTRIP_SCALARS = ("prism", "log", Q(1), Q(2, 3))


def roundtrip_blocks(seed, nblocks):
    rng = random.Random(f"roundtrip:{seed}")
    blocks = []
    for b in range(nblocks):
        block = []
        for i, f in enumerate(FIELDS):
            for k, (l, m) in enumerate(ROUNDTRIP_SIZES):
                a = ROUNDTRIP_SCALARS[(b + i + k) % 4]
                block.append({"kind": "roundtrip", "conn": random_conn(rng, f, l, m),
                              "a": a, "D": 2 * m + 2})
        rng.shuffle(block)
        blocks.append(block)
    return blocks


COCYCLE_CELLS = ((0, 1, 2, 4), (1, 1, 2, 4), (2, 1, 2, 4), (3, 1, 2, 4),
                 (0, 2, 2, 4), (1, 1, 3, 4), (0, 1, 2, 6), (2, 1, 3, 4))


def cocycle_blocks(seed, nblocks):
    """Half genuine stratifications, half with one phi_2 entry perturbed.

    The perturbation sits in a column c >= l. Generators before c never read
    column c, so the check first differs at generator c. There the
    X1^[0] parts of both composites agree identically, and the only change
    in total pd-degree 2 is -delta at X1^[1] X2^[1], row r of phi_2 being
    component r mod l at T-degree r div l. That is the witness.
    """
    rng = random.Random(f"cocycle:{seed}")
    blocks = []
    for b in range(nblocks):
        block = []
        for fi, l, m, D in COCYCLE_CELLS:
            f = FIELDS[fi]
            conn = random_conn(rng, f, l, m)
            block.append({"kind": "cocycle", "conn": conn, "D": D, "perturb": None,
                          "witness": None})
            # the column sets how far the check runs before failing: fixed
            # by the cell, so the seed does not change the work
            r, c = rng.randrange(l * m), l + b % (l * m - l)
            block.append({"kind": "cocycle", "conn": conn, "D": D,
                          "perturb": (r, c, rng.choice((Q(1), Q(-1), Q(2), Q(1, 2)))),
                          "witness": {"generator": c, "component": r % l,
                                      "monomial": {"x1": 1, "x2": 1, "t": r // l}}})
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _classify_job(f, conn, weights, split):
    return {"kind": "classify", "conn": conn, "split": split,
            "expect": (margin_ok(f.v_prism, weights), margin_ok(f.v_log, weights))}


def _nilpotent_job(f, conn, weights, scalar, split):
    return {"kind": "nilpotent", "conn": conn, "scalar": scalar, "split": split,
            "expect": margin_ok(f.v_scalar(scalar), weights)}


# Blocks of verdict_blocks that also hold the slow cells (root search on
# weights in the hundreds, non-split residuals). Later blocks hold only the
# fast cells, so a run has many jobs around the median at little cost.
VERDICT_SLOW_BLOCKS = 5


def verdict_blocks(seed, nblocks):
    """Every cell fixes its job kind, weight kinds and sizes from its place
    in the block; the seed draws only the values."""
    rng = random.Random(f"verdicts:{seed}")
    blocks = []
    for b in range(nblocks):
        block = []
        slow = b < VERDICT_SLOW_BLOCKS
        for i, f in enumerate(FIELDS):
            c = b + i
            ws = [w_small(rng, f, SMALL_KINDS[c % len(SMALL_KINDS)],
                          (NEAR, FAR)[b % 2])]
            block.append(_classify_job(f, weight_conn(rng, f, ws, 1 + c % 2), ws, True))
            ws = [w_small(rng, f, "int"), w_small(rng, f, RATIONAL_KINDS[c % 3])]
            block.append(_classify_job(f, weight_conn(rng, f, ws, 2 - c % 2), ws, True))
            if i == 1 + b % 3:
                # two pi-multiples (e > 1): the candidate search misses the
                # roots of some of these, and the probes answer Unknown
                ws = PI_PAIRS[i][b // 3 % 2]
                block.append(_classify_job(f, weight_conn(rng, f, ws, 1), ws, True))
            if slow:
                ws = [w_big(f, n) for n in BIG_WEIGHTS[c % 4]]
                block.append(_classify_job(f, weight_conn(rng, f, ws, 1), ws, True))
            ws = [w_small(rng, f, "int"), w_small(rng, f, RATIONAL_KINDS[(c + 1) % 3])]
            block.append(_nilpotent_job(f, weight_conn(rng, f, ws, 1 + c % 2), ws,
                                        "prism", True))
            if f.p != 2:
                if slow:
                    conn, roots = nonsplit_conn(rng, f, c % 2, 1 + b % 2)
                    block.append(_nilpotent_job(f, conn, roots, ("prism", "log")[b % 2],
                                                False))
                    conn, roots = nonsplit_conn(rng, f, 1 - c % 2, 1)
                    block.append(_classify_job(f, conn, roots, False))
            else:
                ws = [w_small(rng, f, "int"), w_small(rng, f, RATIONAL_KINDS[(c + 2) % 3])]
                block.append(_nilpotent_job(f, weight_conn(rng, f, ws, 2), ws, "log", True))
            # cohomology: h0 = h1 = number of integer weights w with 0 <= -w < m
            l, m = 1 + c % 3, 2 + (c + 1) % 3
            ws = [w_int(rng, f, -m, 1) if (j + b) % 3 != 2 else w_unit_rat(rng, f)
                  for j in range(l)]
            h = sum(1 for w in ws if w.dist is None and not any(w.coords[1:])
                    and w.coords[0].denominator == 1 and 0 <= -w.coords[0] < m)
            block.append({"kind": "cohomology", "conn": weight_conn(rng, f, ws, m),
                          "expect": h})
            # convergence of the action-kernel series at valuation v0; at most
            # two eigenvalues, as the root search grows with the charpoly
            l, m = ((1, 1), (1, 2), (2, 1))[c % 3]
            kinds = ("int", "unit", "prat", "pi1")
            # n + k for 0 <= k < m must stay within the search's shifts
            ws = [w_small(rng, f, kinds[(c + j) % 4], NEAR[:4]) for j in range(l)]
            v0 = (Q(1, 4), Q(1, 3), Q(1, 2), Q(1), Q(3, 2))[c % 5]
            block.append({"kind": "converges", "conn": weight_conn(rng, f, ws, m),
                          "D": (4, 6, 8)[c % 3], "v0": v0,
                          "expect": series_verdict(f, shifted_weights(f, ws, m),
                                                   f.v_prism, v0)})
            # uniformizer change to lambda_F and back
            block.append({"kind": "kummer",
                          "conn": random_conn(rng, f, 1 + c % 2, 2 + (c + 1) % 2, "u-pi"),
                          "F": c % 3})
        rng.shuffle(block)
        blocks.append(block)
    return blocks


MALFORMED = ("bad_json", "missing_key", "non_eisenstein", "strat_D", "bk_m0", "kernel_D")


def cli_blocks(seed, nblocks):
    """README pipelines at small sizes; job k may read job j's stdout (j < k).

    A job is {"argv", "stdin": ("text", str) | ("job", j), "expect", ...}.
    Expectations: ("bytes", b) exact stdout; ("reject",) exit 2 with empty
    stdout and one stderr line; ("strat", f, D, l, m) and ("kernel", D)
    structural checks of an intermediate; ("verdict", name, answer) for
    classify and converges (exact stdout) and nilpotent (whether the
    connection is nilpotent). Every other job must exit 0.
    """
    rng = random.Random(f"cli:{seed}")
    blocks = []
    for b in range(nblocks):
        f = FIELDS[b % len(FIELDS)]
        field_text = json.dumps({"p": f.p, "E": list(f.E)}, indent=1)
        # sizes and kinds are fixed by the block; the seed draws the values
        c = random_conn(rng, f, 1 + b % 2, 1 + b // 2 % 2)
        c2 = random_conn(rng, f, 1 + b // 4 % 2, c.m)
        twist_n, bk_n, bk_m = rng.randint(-3, 3), rng.randint(-4, 2), rng.randint(1, 4)
        D = 2 + b % 3
        alpha = w_small(rng, f, ("int", "unit", "prat")[b % 3])
        v0 = (Q(1, 4), Q(1, 2), Q(1), Q(3, 2))[b % 4]
        Dk = (4, 6, 8)[b % 3]
        kconn = Conn(f, "T", 1, 1, ((series_const(f, 1, alpha.coords),),))
        alpha_q = alpha.coords[0]
        trace = rank1_trace(f, alpha_q, f.v_prism, v0, Dk)
        conv = {"status": weight_verdict(f, alpha, f.v_prism, v0),
                "trace": ["inf" if t is None else enc_rat(t) for t in trace]}
        if alpha_q.denominator == 1 and alpha_q >= 0:
            conv["status"] = "Convergent"
        ws = [w_small(rng, f, "int"), w_small(rng, f, RATIONAL_KINDS[b % 3])]
        wconn = weight_conn(rng, f, ws, 1 + b % 2)
        scalar = ("prism", "log")[b // 2 % 2]
        h = 1 if 0 <= -bk_n < bk_m else 0
        bk = Conn(f, "T", 1, bk_m, ((series_const(f, bk_m, const(f, bk_n)),),))
        jobs = [
            {"argv": ["field", "check", "-"], "stdin": ("text", field_text),
             "expect": ("bytes", canon(f.json()))},
            {"argv": ["conn", "new", "-"], "stdin": ("text", shorthand(c)),
             "expect": ("bytes", canon(enc_conn(c)))},
            {"argv": ["conn", "dual", "-"], "stdin": ("job", 1),
             "expect": ("bytes", canon(enc_conn(conn_dual(c))))},
            {"argv": ["conn", "twist", "--n", str(twist_n), "-"], "stdin": ("job", 1),
             "expect": ("bytes", canon(enc_conn(conn_twist(c, twist_n))))},
            {"argv": ["conn", "tensor", None], "file": canon(enc_conn(c2)),
             "stdin": ("job", 1), "expect": ("bytes", canon(enc_conn(conn_tensor(c, c2))))},
            {"argv": ["examples", "bk-twist", "--n", str(bk_n), "--m", str(bk_m),
                      "--field", "-"], "stdin": ("text", field_text),
             "expect": ("bytes", canon(enc_conn(bk)))},
            {"argv": ["conn", "cohomology", "-"], "stdin": ("job", 5),
             "expect": ("bytes", canon({"h0": h, "h1": h}))},
            {"argv": ["conn", "strat", "--D", str(D), "-"], "stdin": ("job", 1),
             "expect": ("strat", f, D, c.l, c.m)},
            {"argv": ["strat", "to-conn", "-"], "stdin": ("job", 7),
             "expect": ("bytes", canon(enc_conn(c)))},
            {"argv": ["strat", "check-cocycle", "-"], "stdin": ("job", 7),
             "expect": ("bytes", canon({"status": "pass"}))},
            {"argv": ["conn", "galois-kernel", "--D", str(Dk), "-"],
             "stdin": ("text", shorthand(kconn)), "expect": ("kernel", Dk)},
            {"argv": ["conn", "converges", "--v0", str(enc_rat(v0)), "-"],
             "stdin": ("job", 10), "expect": ("verdict", "converges", canon(conv))},
            {"argv": ["conn", "classify", "-"], "stdin": ("text", shorthand(wconn)),
             "expect": ("verdict", "classify",
                        canon({"log_nearly_dR": margin_ok(f.v_log, ws),
                               "nearly_dR": margin_ok(f.v_prism, ws)}))},
            {"argv": ["conn", "nilpotent", "--a", scalar, "-"],
             "stdin": ("text", shorthand(wconn)),
             "expect": ("verdict", "nilpotent", margin_ok(f.v_scalar(scalar), ws))},
        ]
        for kind in (MALFORMED[(2 * b) % 6], MALFORMED[(2 * b + 1) % 6]):
            jobs.append(_malformed(rng, kind, f, c, field_text))
        blocks.append(jobs)
    return blocks


def _malformed(rng, kind, f, c, field_text):
    reject = ("reject",)
    if kind == "bad_json":
        text = shorthand(c)
        return {"argv": ["conn", "new", "-"], "stdin": ("text", text[:len(text) // 2]),
                "expect": reject, "malformed": kind}
    if kind == "missing_key":
        obj = json.loads(shorthand(c))
        del obj[rng.choice(("N", "l", "m", "field"))]
        return {"argv": ["conn", "new", "-"], "stdin": ("text", json.dumps(obj)),
                "expect": reject, "malformed": kind}
    if kind == "non_eisenstein":
        E = list(f.E)
        E[0] *= f.p
        return {"argv": ["field", "check", "-"],
                "stdin": ("text", json.dumps({"p": f.p, "E": E})),
                "expect": reject, "malformed": kind}
    if kind == "strat_D":
        return {"argv": ["conn", "strat", "--D", "-1", "-"], "stdin": ("job", 1),
                "expect": reject, "malformed": kind}
    if kind == "bk_m0":
        return {"argv": ["examples", "bk-twist", "--n", "1", "--m", "0", "--field", "-"],
                "stdin": ("text", field_text), "expect": reject, "malformed": kind}
    return {"argv": ["conn", "galois-kernel", "--D", "-2", "-"], "stdin": ("job", 1),
            "expect": reject, "malformed": kind}
