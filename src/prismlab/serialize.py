"""Canonical JSON forms for the library objects.

Byte-stable output: sorted keys, compact separators, rationals in lowest
terms with a positive denominator. Integral rationals are emitted as bare
JSON integers, everything else as "num/den" strings.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Tuple

from .errors import InputFormatError
from .field import INF, FieldElement, FieldSpec, _make
from .galois import GaloisKernel
from .linalg import Matrix
from .series import TruncSeries
from .strat import LogConnection, Stratification


def canonical_json(obj: Any) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except ValueError as exc:
        raise _too_many_digits() from exc


def _too_many_digits() -> InputFormatError:
    """The error for an output integer with more digits than Python
    converts to text (sys.get_int_max_str_digits)."""
    return InputFormatError(f"an output integer has more than "
                            f"{sys.get_int_max_str_digits()} digits")


def encode_rational(r) -> Any:
    r = Fraction(r)
    if r.denominator == 1:
        return int(r)
    return f"{r.numerator}/{r.denominator}"


def _rational_pair(x) -> Tuple[int, int]:
    """The JSON coordinate x as (num, den) with den > 0, not reduced: an
    int, or a string "n" or "n/d" with a signed d, as int() reads n and d."""
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        try:
            n, d = int(num.strip()), (int(den.strip()) if slash else 1)
        except ValueError:
            d = 0
        if d > 0:
            return n, d
        if d:
            return -n, -d
        raise InputFormatError(f"bad rational {x!r}")
    if isinstance(x, bool):
        raise InputFormatError(f"expected a rational, got {x!r}")
    raise InputFormatError(f"expected a rational, got {type(x).__name__}")


def _require_keys(obj, what: str, keys) -> None:
    """Refuse obj unless it is a JSON object holding every one of keys."""
    if not isinstance(obj, dict):
        raise InputFormatError(f"{what} must be an object")
    for key in keys:
        if key not in obj:
            raise InputFormatError(f"{what} needs key {key}")


def parse_rational(x) -> Fraction:
    return Fraction(*_rational_pair(x))


def encode_field(spec: FieldSpec) -> dict:
    return {"p": spec.p, "E": [int(c) for c in spec.ecoeffs]}


def parse_field(obj) -> FieldSpec:
    """The field of a JSON object; FieldSpec checks p and E. An integral
    coefficient is passed as an int, any other as the JSON gave it."""
    if not isinstance(obj, dict) or "p" not in obj or "E" not in obj:
        raise InputFormatError("field spec needs keys p and E")
    if not isinstance(obj["E"], list):
        raise InputFormatError("field spec: p must be an integer, E a list")
    coeffs = []
    for c in obj["E"]:
        n, d = _rational_pair(c)
        coeffs.append(c if n % d else n // d)
    return FieldSpec(obj["p"], coeffs)


def encode_element(x: FieldElement) -> list:
    """The coordinates of x, each a bare int or "num/den" in lowest terms."""
    den = x._den
    if den == 1:
        return list(x._num)
    out = []
    try:
        for n in x._num:
            g = gcd(n, den)
            out.append(n // g if g == den else f"{n // g}/{den // g}")
    except ValueError as exc:
        raise _too_many_digits() from exc
    return out


def parse_element(spec: FieldSpec, arr) -> FieldElement:
    if not isinstance(arr, list):
        raise InputFormatError("field element must be a coordinate array")
    if len(arr) != spec.e:
        raise InputFormatError(f"expected {spec.e} coordinates, got {len(arr)}")
    pairs = [_rational_pair(c) for c in arr]
    den = lcm(*[d for _, d in pairs])
    num = tuple([n * (den // d) for n, d in pairs])
    # zero is the field's shared element: a padded cell builds no new one
    return _make(spec, num, den) if any(num) else spec.zero()


def encode_valuation(v) -> Any:
    return "inf" if v is INF else encode_rational(v)


def parse_valuation(x):
    return INF if x == "inf" else parse_rational(x)


def encode_series(s: TruncSeries) -> dict:
    return {"unif": s.unif, "m": s.m,
            "coeffs": [encode_element(c) for c in s.coeffs]}


def parse_series(spec: FieldSpec, obj) -> TruncSeries:
    _require_keys(obj, "series", ("unif", "m", "coeffs"))
    m, coeffs = obj["m"], obj["coeffs"]
    if type(m) is not int or m < 1:
        raise InputFormatError("series modulus must be a positive integer")
    if not isinstance(obj["unif"], str):
        raise InputFormatError("series unif must be a string")
    if not isinstance(coeffs, list) or len(coeffs) != m:
        raise InputFormatError("series needs exactly m coefficients")
    return TruncSeries._trusted(spec, m, tuple([parse_element(spec, c) for c in coeffs]),
                                obj["unif"])


def encode_matrix(mat: Matrix) -> list:
    return [[encode_element(x) for x in row] for row in mat.rows]


def parse_matrix(spec: FieldSpec, obj) -> Matrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputFormatError("matrix must be a nonempty list of rows")
    if any(len(r) != len(obj[0]) for r in obj):
        raise InputFormatError("matrix rows must have equal length")
    return Matrix._trusted(spec, tuple(tuple([parse_element(spec, x) for x in row])
                                       for row in obj))


def encode_connection(M: LogConnection) -> dict:
    return {"field": encode_field(M.spec), "unif": M.unif, "m": M.m, "l": M.l,
            "N": [[encode_series(s) for s in row] for row in M.N]}


def parse_connection(obj) -> LogConnection:
    _require_keys(obj, "connection", ("field", "unif", "m", "l", "N"))
    spec, N = parse_field(obj["field"]), obj["N"]
    if not isinstance(N, list) or not all(isinstance(row, list) for row in N):
        raise InputFormatError("connection matrix must be l x l")
    return LogConnection(spec, obj["unif"], obj["l"], obj["m"],
                         [[parse_series(spec, cell) for cell in row] for row in N])


def encode_stratification(strat: Stratification) -> dict:
    return {"field": encode_field(strat.spec), "l": strat.l, "m": strat.m,
            "D": strat.D, "a": encode_element(strat.a),
            "phi": [encode_matrix(op) for op in strat.phi]}


def parse_stratification(obj) -> Stratification:
    _require_keys(obj, "stratification", ("field", "l", "m", "D", "a", "phi"))
    spec, phi = parse_field(obj["field"]), obj["phi"]
    if not isinstance(phi, list):
        raise InputFormatError("stratification needs operators up to pd-degree D")
    ops = [parse_matrix(spec, op) for op in phi]
    return Stratification(spec, obj["l"], obj["m"], obj["D"], parse_element(spec, obj["a"]),
                          ops)


def encode_kernel(k: GaloisKernel) -> dict:
    out = {"field": encode_field(k.spec), "a": encode_element(k.a), "D": k.D,
           "A": [encode_matrix(A) for A in k.A], "tag": k.tag}
    if k.c is not None:
        out["c"] = k.c
    return out


def parse_kernel(obj) -> GaloisKernel:
    _require_keys(obj, "kernel", ("field", "a", "D", "A", "tag"))
    spec = parse_field(obj["field"])
    D, A, tag, c = obj["D"], obj["A"], obj["tag"], obj.get("c")
    if type(D) is not int or D < 0:
        raise InputFormatError("kernel needs integer D >= 0")
    if not isinstance(tag, str):
        raise InputFormatError("kernel tag must be a string")
    # an absent c is None to GaloisKernel, so only JSON can give c = null
    if "c" in obj and c is None:
        raise InputFormatError("kernel c must be a positive integer")
    if not isinstance(A, list) or len(A) != D + 1:
        raise InputFormatError("kernel needs operators A_0..A_D")
    kernel = GaloisKernel([parse_matrix(spec, m) for m in A], parse_element(spec, obj["a"]), c)
    if tag != kernel.tag:
        raise InputFormatError(f"kernel tag must be {kernel.tag!r} at this a")
    return kernel


def encode_valuation_list(vs: list) -> list:
    return [encode_valuation(v) for v in vs]


def encode_verdict(rep: dict) -> dict:
    return {"status": rep["status"],
            "trace": encode_valuation_list(rep["trace"])}
