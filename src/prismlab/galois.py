"""Action-kernel series of a log connection along divided powers, the
comparison series H, and p-adic convergence verdicts at valuation data."""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .connops import _near_integer_roots, matrix_gauss_val
from .errors import InvalidValuation
from .field import FieldElement, Valuation
from .linalg import Matrix
from .strat import LogConnection, from_connection, operator_family


def digit_sum(n: int, p: int) -> int:
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def factorial_val(n: int, p: int) -> int:
    """v_p(n!), by the digit sum formula."""
    return (n - digit_sum(n, p)) // (p - 1)


class GaloisKernel:
    """Operators A_0..A_D of the series x -> sum_n A_n(x) X^[n]."""

    def __init__(self, spec, D: int, A: List[Matrix], a: FieldElement,
                 tag: str, c: Optional[int] = None):
        if len(A) != D + 1:
            raise ValueError(f"kernel needs operators A_0..A_{D}, got {len(A)}")
        if A[0] != Matrix.identity(spec, len(A[0].rows)):
            raise ValueError("kernel slot 0 must be the identity")
        self.spec = spec
        self.D = D
        self.A = list(A)
        self.a = a
        self.tag = tag
        self.c = c


class GaloisElementData:
    """Valuation-level data of a group element: v0, the p-adic valuation of
    the evaluation point of the series."""

    def __init__(self, v0):
        if not isinstance(v0, Valuation):
            v0 = Valuation(Fraction(v0))
        self.v0 = v0


def action_kernel(M: LogConnection, a, D: int,
                  tag: Optional[str] = None) -> GaloisKernel:
    """The operator family driving the group action on the module.

    Same recurrence and code path as the stratification built from M: A_1
    is a times the connection operator and A_(n+1) = (A_1 - n*a) A_n.
    """
    spec = M.spec
    if not isinstance(a, FieldElement):
        a = spec.from_rational(Fraction(a))
    if tag is None:
        if a == spec.a_prism():
            tag = "prismatic"
        elif a == spec.a_log():
            tag = "log"
        else:
            tag = "custom"
    return GaloisKernel(spec, D, from_connection(M, a, D).phi, a, tag)


def h_series(M: LogConnection, a, D: int) -> List[Matrix]:
    """Coefficients of H(op, X) = sum_{n>=1} a^(n-1) (op-1)...(op-(n-1)) X^[n].

    Returned as a list indexed by divided-power degree; slot 0 is zero so
    that H[n] is the X^[n] coefficient.
    """
    spec = M.spec
    if not isinstance(a, FieldElement):
        a = spec.from_rational(Fraction(a))
    op = M.operator()
    size = op.nrows
    # operator_family(op - I, 1, D)[n] = (op - 1)...(op - n)
    family = operator_family(op - Matrix.identity(spec, size), 1, D)
    return [Matrix.zero(spec, size, size)] + [P.scale(a ** n)
                                              for n, P in enumerate(family[:D])]


def d0_check(M: LogConnection, a, D: int = 6) -> dict:
    """Verify eps(x) - x = H(op, X) applied to a*op(x), degreewise up to D.

    The left side comes from the stratification recurrence, the right from
    the explicit product formula, so agreement cross-checks the two.
    """
    strat = from_connection(M, a, D)
    H = h_series(M, a, D)
    nabla_a = M.operator().scale(strat.a)
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
    q = 0
    while sigma * (p - 1) * p ** (q + 1) < 1:
        q += 1
    return q + Fraction(p, p - 1) - sigma * p ** (q + 1)


def _converges(op: Matrix, sigma: Fraction) -> bool:
    """Whether sum_n a^n op(op-1)...(op-n+1) X^[n] converges at valuation
    v0, sigma = val(a) + v0, decided from charpolys alone.

    sigma > 0: every weight of op must lie farther than _slope_threshold
    from Z. sigma <= 0: each term keeps valuation at most n*sigma
    infinitely often unless the family vanishes, that is op is
    diagonalizable with weights in {0, ..., t}, t = tr(op). Those are
    their own residues mod p^K > t, so the product of op - k*I over the
    residues k the descent keeps is 0 exactly then.
    """
    spec, size = op.spec, op.nrows
    if sigma > 0:
        near = _near_integer_roots(op, _slope_threshold(sigma, spec.p))
        return sum(near.values()) == size
    t = op.trace()
    t = t.rational_value() if t.is_rational() else None
    if t is None or t.denominator != 1 or t < 0:
        return False
    K = 0
    while spec.p ** K <= t:
        K += 1
    ident = Matrix.identity(spec, size)
    prod = ident
    for k in _near_integer_roots(op, Fraction(K - 1)):
        prod = (op - ident.scale(k)) * prod
    return prod.is_zero()


def converges_at(kernel: GaloisKernel, g: GaloisElementData) -> dict:
    """Convergence verdict for the series evaluated at a point of valuation
    v0: term n is worth GaussVal(A_n) + n*v0 - v_p(n!).

    Exact and always decided: A_n = a^n op(op-1)...(op-n+1) with
    op = A_1/a, and _converges reads the verdict off the charpolys of op
    and its integer shifts. The trace is reported, not consulted.
    """
    v0 = g.v0
    if not v0.is_infinite and v0.value <= 0:
        raise InvalidValuation(f"need v0 > 0, got {v0.value}")
    spec = kernel.spec
    p = spec.p
    trace: List[Valuation] = []
    for n, A in enumerate(kernel.A):
        gv = matrix_gauss_val(A)
        if gv.is_infinite or (v0.is_infinite and n > 0):
            trace.append(Valuation.infinity())
        elif n == 0:
            trace.append(gv)
        else:
            trace.append(Valuation(gv.value + n * v0.value - factorial_val(n, p)))
    va = kernel.a.val()
    if (va.is_infinite or v0.is_infinite or kernel.D == 0
            or _converges(kernel.A[1].scale(kernel.a.invert()), va.value + v0.value)):
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
    spec = M.spec
    p = spec.p
    if variant == "K":
        c = p ** i
    elif variant == "Kpi1":
        c = 2 * p ** i
    else:
        raise ValueError(f"unknown variant {variant!r}, expected K or Kpi1")
    if a is None:
        a = spec.a_prism()
    kernel = action_kernel(M, a, D)
    kernel.c = c
    return kernel
