"""Action-kernel series of a log connection along divided powers, the
comparison series H, and p-adic convergence verdicts at valuation data."""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from .connops import _gauss_ev, _near_integer_roots
from .errors import InputFormatError, InvalidValuation, RingMismatch
from .field import INF, FieldElement, _exact, _vp_int
from .linalg import Matrix, falling_levels
from .strat import (Family, LogConnection, first_off_recurrence, from_connection,
                    operator_family)


def digit_sum(n: int, p: int) -> int:
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def digit_count(n: int, p: int) -> int:
    """The number of base-p digits of n >= 0, 0 for n = 0: the least K
    with p^K > n, with p^K kept as a running product."""
    K, pk = 0, 1
    while pk <= n:
        K, pk = K + 1, pk * p
    return K


def factorial_val(n: int, p: int) -> int:
    """v_p(n!), by the digit sum formula."""
    return (n - digit_sum(n, p)) // (p - 1)


class GaloisKernel:
    """Operators A_0..A_D of the series x -> sum_n A_n(x) X^[n]: A_0 = I,
    A_(n+1) = (A_1 - n*a) A_n, and c = p^i or 2 p^i when given. spec, D
    and tag = kernel_tag(spec, a) are read off A and a. A Family shares the
    shape and field of its A_1 (A_0 at D = 0) and follows the recurrence at
    its own a, so only that operator and that a are checked and no walk is
    taken: another a moves A_2 by (a - A.a) A_1, which is refused as in a
    list when D >= 2 and A_1 != 0."""

    def __init__(self, A: Sequence[Matrix], a, c: Optional[int] = None):
        explicit = not isinstance(A, Family)
        A = list(A) if explicit else A
        if not A:
            raise InputFormatError("kernel needs operators A_0..A_D")
        spec, size = A[0].spec, A[0].nrows
        for op in A if explicit else (A[min(len(A) - 1, 1)],):
            if op.spec is not spec and op.spec != spec:
                raise RingMismatch("operator over a different field")
            if op.nrows != size or op.ncols != size:
                raise InputFormatError("kernel operators must share one square size")
        a = spec.scalar(a)
        # c = p^i or 2 p^i: its p-free part is 1 or 2
        if c is not None and (type(c) is not int or c < 1
                              or c // spec.p ** _vp_int(c, spec.p) not in (1, 2)):
            raise InputFormatError("kernel c must be p^i or 2 p^i")
        if explicit and not A[0].is_identity():
            raise InputFormatError("kernel slot 0 must be the identity")
        # converges_at decides from A_1 alone, so the rest must follow from it
        bad = (first_off_recurrence(A, a) if explicit
               else 2 if len(A) > 2 and A.a != a and not A[1].is_zero() else None)
        if bad is not None:
            raise InputFormatError(f"kernel operator A_{bad} breaks A_(n+1) = (A_1 - n*a) A_n")
        self.spec, self.D, self.A, self.a, self.c = spec, len(A) - 1, A, a, c
        self.tag = kernel_tag(spec, a)


class GaloisElementData:
    """The valuation-level data of a group element: v0, the p-adic
    valuation of the evaluation point of the series, a Fraction or INF."""

    def __init__(self, v0):
        self.v0 = v0 if v0 is INF else _exact(v0)


def kernel_tag(spec, a: FieldElement) -> str:
    """The tag that names a kernel's a: "prismatic" iff a = a_prism, "log"
    iff a = a_log, else "custom"."""
    if a == spec.a_prism():
        return "prismatic"
    return "log" if a == spec.a_log() else "custom"


def action_kernel(M: LogConnection, a, D: int) -> GaloisKernel:
    """The operator family driving the group action on the module.

    Same recurrence and code path as the stratification built from M: A_1
    is a times the connection operator and A_(n+1) = (A_1 - n*a) A_n. The
    tag names a (kernel_tag).
    """
    strat = from_connection(M, a, D)
    return GaloisKernel(strat.phi, strat.a)


def h_series(M: LogConnection, a, D: int) -> List[Matrix]:
    """Coefficients of H(op, X) = sum_{n>=1} a^(n-1) (op-1)...(op-(n-1)) X^[n].

    Returned as a list indexed by divided-power degree; slot 0 is zero so
    that H[n] is the X^[n] coefficient.
    """
    spec = M.spec
    a = spec.scalar(a)
    op = M.operator()
    size = op.nrows
    # operator_family(op - I, 1, D)[n] = (op - 1)...(op - n)
    family = operator_family(op - Matrix.identity(spec, size), 1, D)
    return [Matrix.zero(spec, size, size)] + [P.scale(a ** n)
                                              for n, P in enumerate(family)]


def d0_check(M: LogConnection, a, D: int = 6) -> dict:
    """Verify eps(x) - x = H(op, X) applied to a*op(x), degreewise up to D.

    The left side comes from the stratification recurrence, the right from
    the explicit product formula, so agreement cross-checks the two.
    """
    strat = from_connection(M, a, D)
    H = h_series(M, a, D)
    nabla_a = M.operator(strat.a)
    for n in range(1, D + 1):
        if not (strat.phi[n] - H[n] * nabla_a).is_zero():
            return {"ok": False, "witness": {"n": n}}
    return {"ok": True, "witness": None}


def _slope_threshold(sigma: Fraction, p: int) -> Fraction:
    """The distance d* with h(d*) = -sigma, for sigma > 0.

    A weight w at distance d from Z drives terms of slope sigma + h(d), where
    h(d) = d - 1/(p-1) for d < 0 and h(q + f) = -p^-q/(p-1) + f p^-(q+1)
    for an integer q >= 0 and 0 <= f < 1. For d >= 0 the factor w - i has
    valuation min(v_p(i - k), d), k the integer nearest w; at n = p^K,
    K > q, these sum to n (sum_(1 <= j <= q) p^-j + f p^-(q+1)), and with
    v_p(n!) = (n-1)/(p-1) the term is worth n (sigma + h(d)) + 1/(p-1).
    h is continuous and strictly increasing, and slope 0 diverges, so the
    weight converges iff d > d*.
    """
    if sigma >= Fraction(1, p - 1):
        return Fraction(1, p - 1) - sigma
    # q is the least with sigma (p-1) p^(q+1) >= 1, that is the greatest
    # with p^q < ceil(1 / (sigma (p-1))): up a ladder of p^(2^i) past that
    # bound, then down it, most significant bit first
    bound = -(-sigma.denominator // (sigma.numerator * (p - 1)))
    ladder = [p]
    while ladder[-1] < bound:
        ladder.append(ladder[-1] * ladder[-1])
    q, pq = 0, 1
    for i in range(len(ladder) - 1, -1, -1):
        if pq * ladder[i] < bound:
            pq *= ladder[i]
            q += 1 << i
    return q + Fraction(p, p - 1) - sigma * pq * p


def _converges(op: Matrix, sigma: Fraction) -> bool:
    """Whether sum_n a^n op(op-1)...(op-n+1) X^[n] converges at valuation
    v0, sigma = val(a) + v0, decided from the charpoly of op.

    sigma > 0: every weight of op must lie farther than _slope_threshold
    from Z. sigma <= 0: each term keeps valuation at most n*sigma
    infinitely often unless the family vanishes, that is op is
    diagonalizable with weights in {0, ..., t}, t = tr(op). Those are
    their own residues mod p^K > t, so the product of op - k*I over the
    residues k the descent keeps is 0 exactly then.
    """
    spec, size = op.spec, op.nrows
    if sigma > 0:
        near = _near_integer_roots(spec, op.charpoly_numerators()[1],
                                   _slope_threshold(sigma, spec.p))
        return sum(near.values()) == size
    t = op.trace()
    t = t.rational_value() if t.is_rational() else None
    if t is None or t.denominator != 1 or t < 0:
        return False
    ident = Matrix.identity(spec, size)
    prod = ident
    f = op.charpoly_numerators()[1]
    for k in _near_integer_roots(spec, f, Fraction(digit_count(t.numerator, spec.p) - 1)):
        prod = (op - ident.scale(k)) * prod
    return prod.is_zero()


def converges_at(kernel: GaloisKernel, g: GaloisElementData) -> dict:
    """Convergence verdict for the series evaluated at a point of valuation
    v0: term n is worth GaussVal(A_n) + n*v0 - v_p(n!).

    Exact and always decided: A_n = a^n op(op-1)...(op-n+1) with
    op = A_1/a, and _converges reads the verdict off the charpoly of op
    and its integer Taylor shifts. The trace is reported, not consulted.
    Its integer minima of e*val are taken on the matrices of A_0 and A_1
    and of every operator of a kernel given as a list; a generated kernel
    (a Family) reads those of A_2..A_D off the packed levels of one
    falling_levels walk (PackedLevel.ev), so it builds no matrix past A_1.
    At v0 = INF every term past n = 0 is INF, so only A_0 is read.
    """
    v0 = g.v0
    if v0 <= 0:
        raise InvalidValuation(f"need v0 > 0, got {v0}")
    p, e = kernel.spec.p, kernel.spec.e
    vn, vd = (0, 1) if v0 is INF else (v0.numerator, v0.denominator)
    A = kernel.A
    if v0 is INF:
        evs = [_gauss_ev(A[0])] + [None] * kernel.D
    elif isinstance(A, Family):
        # by index, since a slice makes the family whole; at D = 0 head is
        # [A_0] alone, and a walk of count 1 yields no level
        head = [A[n] for n in range(min(len(A), 2))]
        evs = [*map(_gauss_ev, head),
               *(level.ev() for level in falling_levels(head[-1], kernel.a, len(A)))]
    else:
        evs = map(_gauss_ev, A)
    trace = []
    for n, ev in enumerate(evs):
        if ev is None:
            trace.append(INF)
        else:
            # e * den(v0) times the term, on integers
            trace.append(Fraction((ev - e * factorial_val(n, p)) * vd + n * e * vn, e * vd))
    va = kernel.a.val()
    if (va is INF or v0 is INF or kernel.D == 0
            or _converges(kernel.A[1].scale(kernel.a.invert()), va + v0)):
        status = "Convergent"
    else:
        status = "Divergent"
    return {"status": status, "trace": trace}


def tau_power_kernel(M: LogConnection, i: int, variant: str, a=None,
                     D: int = 6) -> GaloisKernel:
    """Kernel specialized to the i-th power-of-p topological generator.

    Operators are identical to action_kernel; only the specialization
    constant c (p^i in the plain case, 2p^i over the first Kummer layer)
    is recorded, as kernel.c.
    """
    if i < 0:
        raise InvalidValuation("need i >= 0")
    if variant not in ("K", "Kpi1"):
        raise InputFormatError(f"unknown variant {variant!r}, expected K or Kpi1")
    c = (2 if variant == "Kpi1" else 1) * M.spec.p ** i
    strat = from_connection(M, M.spec.a_prism() if a is None else a, D)
    return GaloisKernel(strat.phi, strat.a, c)
