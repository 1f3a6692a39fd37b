"""Canonical JSON forms for the library objects.

Byte-stable output: sorted keys, compact separators, rationals in lowest
terms with a positive denominator. Integral rationals are emitted as bare
JSON integers, everything else as "num/den" strings.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, List, Optional

from .errors import InputFormatError
from .field import FieldElement, FieldSpec, Valuation
from .galois import GaloisKernel
from .linalg import Matrix
from .series import TruncSeries
from .strat import LogConnection, Stratification, first_off_recurrence


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_rational(r) -> Any:
    r = Fraction(r)
    if r.denominator == 1:
        return int(r)
    return f"{r.numerator}/{r.denominator}"


def parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise InputFormatError(f"expected a rational, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        # accept a signed denominator, which Fraction's parser does not
        try:
            if "/" in x:
                num, den = x.split("/", 1)
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(x.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad rational {x!r}") from exc
    raise InputFormatError(f"expected a rational, got {type(x).__name__}")


def encode_field(spec: FieldSpec) -> dict:
    return {"p": spec.p, "E": [int(c) for c in spec.ecoeffs]}


def parse_field(obj) -> FieldSpec:
    if not isinstance(obj, dict) or "p" not in obj or "E" not in obj:
        raise InputFormatError("field spec needs keys p and E")
    p, E = obj["p"], obj["E"]
    if not isinstance(p, int) or not isinstance(E, list):
        raise InputFormatError("field spec: p must be an integer, E a list")
    coeffs = []
    for c in E:
        r = parse_rational(c)
        if r.denominator != 1:
            raise InputFormatError("E coefficients must be integers")
        coeffs.append(int(r))
    try:
        return FieldSpec(p, coeffs)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def encode_element(x: FieldElement) -> list:
    return [encode_rational(c) for c in x.coords]


def parse_element(spec: FieldSpec, arr) -> FieldElement:
    if not isinstance(arr, list):
        raise InputFormatError("field element must be a coordinate array")
    if len(arr) != spec.e:
        raise InputFormatError(f"expected {spec.e} coordinates, got {len(arr)}")
    return spec.element([parse_rational(c) for c in arr])


def encode_valuation(v: Valuation) -> Any:
    if v.is_infinite:
        return "inf"
    return encode_rational(v.value)


def parse_valuation(x) -> Valuation:
    if x == "inf":
        return Valuation.infinity()
    return Valuation(parse_rational(x))


def encode_series(s: TruncSeries) -> dict:
    return {"unif": s.unif, "m": s.m,
            "coeffs": [encode_element(c) for c in s.coeffs]}


def parse_series(spec: FieldSpec, obj) -> TruncSeries:
    if not isinstance(obj, dict):
        raise InputFormatError("series must be an object")
    for key in ("unif", "m", "coeffs"):
        if key not in obj:
            raise InputFormatError(f"series needs key {key}")
    m, coeffs = obj["m"], obj["coeffs"]
    if type(m) is not int or m < 1:
        raise InputFormatError("series modulus must be a positive integer")
    if not isinstance(obj["unif"], str):
        raise InputFormatError("series unif must be a string")
    if not isinstance(coeffs, list) or len(coeffs) != m:
        raise InputFormatError("series needs exactly m coefficients")
    return TruncSeries(spec, m, [parse_element(spec, c) for c in coeffs],
                       obj["unif"])


def encode_matrix(mat: Matrix) -> list:
    return [[encode_element(x) for x in row] for row in mat.rows]


def parse_matrix(spec: FieldSpec, obj, nrows: Optional[int] = None,
                 ncols: Optional[int] = None) -> Matrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputFormatError("matrix must be a nonempty list of rows")
    if any(len(r) != len(obj[0]) for r in obj):
        raise InputFormatError("matrix rows must have equal length")
    if nrows is not None and len(obj) != nrows:
        raise InputFormatError(f"expected {nrows} rows, got {len(obj)}")
    if ncols is not None and len(obj[0]) != ncols:
        raise InputFormatError(f"expected {ncols} columns, got {len(obj[0])}")
    return Matrix(spec, [[parse_element(spec, x) for x in row] for row in obj])


def encode_connection(M: LogConnection) -> dict:
    return {"field": encode_field(M.spec), "unif": M.unif, "m": M.m, "l": M.l,
            "N": [[encode_series(s) for s in row] for row in M.N]}


def parse_connection(obj) -> LogConnection:
    if not isinstance(obj, dict):
        raise InputFormatError("connection must be an object")
    for key in ("field", "unif", "m", "l", "N"):
        if key not in obj:
            raise InputFormatError(f"connection needs key {key}")
    spec = parse_field(obj["field"])
    m, l, N = obj["m"], obj["l"], obj["N"]
    if not (type(m) is int and m >= 1 and type(l) is int and l >= 1):
        raise InputFormatError("connection needs integer l >= 1 and m >= 1")
    if not isinstance(obj["unif"], str):
        raise InputFormatError("connection unif must be a string")
    if not isinstance(N, list) or len(N) != l or any(
            not isinstance(row, list) or len(row) != l for row in N):
        raise InputFormatError("connection matrix must be l x l")
    rows = []
    for row in N:
        out = []
        for cell in row:
            s = parse_series(spec, cell)
            if s.m != m or s.unif != obj["unif"]:
                raise InputFormatError("matrix entry disagrees with connection header")
            out.append(s)
        rows.append(out)
    return LogConnection(spec, obj["unif"], l, m, rows)


def encode_stratification(strat: Stratification) -> dict:
    return {"field": encode_field(strat.spec), "l": strat.l, "m": strat.m,
            "D": strat.D, "a": encode_element(strat.a),
            "phi": [encode_matrix(op) for op in strat.phi]}


def parse_stratification(obj) -> Stratification:
    if not isinstance(obj, dict):
        raise InputFormatError("stratification must be an object")
    for key in ("field", "l", "m", "D", "a", "phi"):
        if key not in obj:
            raise InputFormatError(f"stratification needs key {key}")
    spec = parse_field(obj["field"])
    l, m, D = obj["l"], obj["m"], obj["D"]
    if not all(type(v) is int for v in (l, m, D)) or l < 1 or m < 1 or D < 0:
        raise InputFormatError("stratification needs integers l,m >= 1 and D >= 0")
    phi = obj["phi"]
    if not isinstance(phi, list) or len(phi) != D + 1:
        raise InputFormatError("stratification needs operators up to pd-degree D")
    size = l * m
    ops = [parse_matrix(spec, op, size, size) for op in phi]
    return Stratification(spec, l, m, D, parse_element(spec, obj["a"]), ops)


def encode_kernel(k: GaloisKernel) -> dict:
    out = {"field": encode_field(k.spec), "a": encode_element(k.a), "D": k.D,
           "A": [encode_matrix(A) for A in k.A], "tag": k.tag}
    if k.c is not None:
        out["c"] = k.c
    return out


def parse_kernel(obj) -> GaloisKernel:
    if not isinstance(obj, dict):
        raise InputFormatError("kernel must be an object")
    for key in ("field", "a", "D", "A", "tag"):
        if key not in obj:
            raise InputFormatError(f"kernel needs key {key}")
    spec = parse_field(obj["field"])
    D, A, tag, c = obj["D"], obj["A"], obj["tag"], obj.get("c")
    if type(D) is not int or D < 0:
        raise InputFormatError("kernel needs integer D >= 0")
    if not isinstance(tag, str):
        raise InputFormatError("kernel tag must be a string")
    if "c" in obj and (type(c) is not int or c < 1):
        raise InputFormatError("kernel c must be a positive integer")
    if not isinstance(A, list) or len(A) != D + 1:
        raise InputFormatError("kernel needs operators A_0..A_D")
    mats = [parse_matrix(spec, m) for m in A]
    size = len(mats[0].rows)
    if any(len(m.rows) != size or len(m.rows[0]) != size for m in mats):
        raise InputFormatError("kernel operators must share one square size")
    a = parse_element(spec, obj["a"])
    try:
        kernel = GaloisKernel(spec, D, mats, a, tag, c)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    # converges_at decides from A_1 alone, so the rest must follow from it
    bad = first_off_recurrence(mats, a)
    if bad is not None:
        raise InputFormatError(f"kernel operator A_{bad} breaks A_(n+1) = (A_1 - n*a) A_n")
    return kernel


def encode_valuation_list(vs: List[Valuation]) -> list:
    return [encode_valuation(v) for v in vs]


def encode_verdict(rep: dict) -> dict:
    return {"status": rep["status"],
            "trace": encode_valuation_list(rep["trace"])}
