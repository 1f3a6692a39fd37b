"""Action-kernel series of a log connection along divided powers, the
comparison series H, and p-adic convergence verdicts at valuation data."""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .connops import matrix_gauss_val, split_eigenvalues, trace_tail_verdict
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
    A = operator_family(M.operator().scale(a), a, D + 1)
    return GaloisKernel(spec, D, A, a, tag)


def h_series(M: LogConnection, a, D: int) -> List[Matrix]:
    """Coefficients of H(op, X) = sum_{n>=1} a^(n-1) (op-1)...(op-(n-1)) X^[n].

    Returned as a list indexed by divided-power degree; slot 0 is zero so
    that H[n] is the X^[n] coefficient.
    """
    spec = M.spec
    if not isinstance(a, FieldElement):
        a = spec.from_rational(Fraction(a))
    op = M.operator()
    size = len(op.rows)
    out = [Matrix.zero(spec, size, size)]
    cur = Matrix.identity(spec, size)
    apow = spec.one()
    for n in range(1, D + 1):
        out.append(cur.scale(apow))
        cur = (op - Matrix.identity(spec, size).scale(n)) * cur
        apow = apow * a
    return out


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


def _weight_verdict(alpha: FieldElement, va: Valuation, v0: Valuation,
                    p: int) -> str:
    if alpha.is_rational():
        r = alpha.rational_value()
        if r.denominator == 1 and r >= 0:
            # the falling factorials hit zero: a polynomial eigen-series
            return "Convergent"
    d = alpha.dist_to_integers()
    if d.is_infinite:
        # any other weight in Z_p: prod(alpha - i) has valuation at least
        # v_p(n!) (alpha choose n is integral), leaving slope val(a) + v0
        return "Convergent" if (va + v0) > 0 else "Unknown"
    if d.value < 0:
        # below-integer distance is shift-invariant, so every factor has
        # valuation exactly d: t_n = n(val(a)+d+v0) - v_p(n!) with the
        # factorial term pinned between n/(p-1) and n/(p-1) - digit sums
        slope = va.value + d.value + v0.value - Fraction(1, p - 1)
        if slope > 0:
            return "Convergent"
        # slope 0 still fails: t_(p^k) stays bounded
        return "Divergent"
    return "Unknown"


def converges_at(kernel: GaloisKernel, g: GaloisElementData) -> dict:
    """Convergence verdict for the series evaluated at a point of valuation
    v0: term n is worth GaussVal(A_n) + n*v0 - v_p(n!).

    Exact when the connection operator's eigenvalues split over K (per
    eigenvalue, through the distance of the weight to the integers);
    otherwise the finite valuation trace is inspected with the nilpotency
    probe's tail rule, connops.trace_tail_verdict.
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
    status = None
    weights = None
    if va.is_infinite or v0.is_infinite or kernel.D == 0:
        status = "Convergent"
    else:
        op = kernel.A[1].scale(kernel.a.invert())
        _, weights = split_eigenvalues(op)
        if weights is not None:
            verdicts = [_weight_verdict(w, va, v0, p) for w in weights]
            if any(v == "Divergent" for v in verdicts):
                status = "Divergent"
            elif all(v == "Convergent" for v in verdicts):
                status = "Convergent"
    if status is None:
        status = trace_tail_verdict(trace)
    return {"status": status, "trace": trace, "weights": weights}


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
