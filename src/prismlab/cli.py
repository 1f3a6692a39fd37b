"""Batch command line front end.

Subcommands read JSON objects (file argument, or standard input when the
argument is omitted or "-") and write one canonical JSON report to standard
output. Exit codes: 0 success/pass, 1 mathematical failure (a check that
ran and found a violation), 2 malformed input or usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import connops
from .errors import (InputFormatError, InvalidValuation, LeibnizViolation,
                     NotAStratification, NotAUniformizer, PrismlabError,
                     RingMismatch)
from .field import FieldSpec, Valuation
from .galois import GaloisElementData, action_kernel, converges_at, tau_power_kernel
from .serialize import (canonical_json, encode_connection, encode_element,
                        encode_field, encode_kernel, encode_stratification,
                        encode_verdict,
                        parse_connection, parse_field, parse_kernel,
                        parse_rational, parse_series, parse_stratification)
from .strat import (LogConnection, check_cocycle, check_leibniz,
                    first_off_recurrence, from_connection, to_connection,
                    verify_key_lemma)


def _reject_duplicates(pairs):
    seen = set()
    for k, _ in pairs:
        if k in seen:
            raise InputFormatError(f"duplicate key {k!r}")
        seen.add(k)
    return dict(pairs)


def _loads(text: str):
    try:
        return json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        # an integer literal longer than the interpreter converts
        raise InputFormatError(f"bad JSON: {exc}") from exc


def _read_json(path: Optional[str]):
    if path in (None, "-"):
        return _loads(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return _loads(fh.read())


def _emit(obj) -> None:
    sys.stdout.write(canonical_json(obj) + "\n")


def _lenient_connection(obj) -> LogConnection:
    """Connection from the canonical form or from shorthand, validated by
    parse_connection. Shorthand may omit "unif" (it defaults to "T") and
    may give a matrix cell as a bare rational, meaning a constant entry, or
    as a list of the entry's low coefficients, each a coordinate array or a
    bare rational. This pre-pass only rewrites such cells into canonical
    series objects; dict cells pass through untouched."""
    if isinstance(obj, dict):
        obj = dict(obj)
        unif = obj.setdefault("unif", "T")
        m, N = obj.get("m"), obj.get("N")
        E = obj["field"].get("E") if isinstance(obj.get("field"), dict) else None
        # anything else makes parse_connection fail before it reads a cell
        if (type(m) is int and isinstance(N, list) and isinstance(E, list)
                and all(isinstance(row, list) for row in N)):
            obj["N"] = [[_series_object(cell, unif, m, len(E) - 1) for cell in row]
                        for row in N]
    return parse_connection(obj)


def _series_object(cell, unif, m: int, e: int):
    if isinstance(cell, dict):
        return cell
    coeffs = [c if isinstance(c, list) else [c] + [0] * (e - 1)
              for c in (cell if isinstance(cell, list) else [cell])]
    return {"unif": unif, "m": m, "coeffs": coeffs + [[0] * e] * (m - len(coeffs))}


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise InputFormatError(f"{flag} must be >= {low}, got {value}")


def _require_printable_tau(tau: int, p: int, variant: str) -> None:
    """Refuse a --tau whose constant c = p^tau (2p^tau for Kpi1) has more
    digits than Python prints as an integer, before any large power is
    formed: p^tau >= 2^(tau*(b-1)) for b the bit length of p."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or tau < 0:
        return
    ceiling = 10 ** limit
    if (tau * (p.bit_length() - 1) >= ceiling.bit_length()
            or (2 if variant == "Kpi1" else 1) * p ** tau >= ceiling):
        raise InputFormatError(f"--tau {tau} gives a constant c over {limit} digits")


def _field_from(obj) -> FieldSpec:
    if isinstance(obj, dict) and "field" in obj:
        return parse_field(obj["field"])
    return parse_field(obj)


def _scalar_choice(spec: FieldSpec, name: str):
    return spec.a_log() if name == "log" else spec.a_prism()


def cmd_field_check(args) -> int:
    spec = _field_from(_read_json(args.file))
    _emit(encode_field(spec))
    return 0


def cmd_conn_new(args) -> int:
    _emit(encode_connection(_lenient_connection(_read_json(args.file))))
    return 0


def cmd_conn_tensor(args) -> int:
    if len(args.files) == 2:
        left = _lenient_connection(_read_json(args.files[0]))
        right = _lenient_connection(_read_json(args.files[1]))
    elif len(args.files) == 1:
        left = _lenient_connection(_read_json(None))
        right = _lenient_connection(_read_json(args.files[0]))
    else:
        raise InputFormatError("tensor takes one or two connection files")
    _emit(encode_connection(connops.tensor(left, right)))
    return 0


def cmd_conn_dual(args) -> int:
    _emit(encode_connection(connops.dual(_lenient_connection(_read_json(args.file)))))
    return 0


def cmd_conn_twist(args) -> int:
    M = _lenient_connection(_read_json(args.file))
    _emit(encode_connection(connops.bk_twist(M, args.n)))
    return 0


def cmd_conn_change_unif(args) -> int:
    M = _lenient_connection(_read_json(args.file))
    if args.lambda_F is not None:
        _require_at_least("--lambda-F", args.lambda_F, 0)
        moved = connops.kummer_sen_operator(M, args.lambda_F)
    else:
        y = parse_series(M.spec, _read_json(args.y))
        moved = connops.change_uniformizer(M, y)
    _emit(encode_connection(moved))
    return 0


def cmd_conn_strat(args) -> int:
    _require_at_least("--D", args.D, 0)
    M = _lenient_connection(_read_json(args.file))
    a = _scalar_choice(M.spec, args.a)
    _emit(encode_stratification(from_connection(M, a, args.D)))
    return 0


def cmd_strat_check_cocycle(args) -> int:
    st = parse_stratification(_read_json(args.file))
    rep = check_cocycle(st)
    if rep["ok"]:
        _emit({"status": "pass"})
        return 0
    lb = check_leibniz(st)
    out = {"status": "fail", "degeneracy_ok": rep["degeneracy_ok"]}
    if not lb["ok"]:
        out["leibniz_witness"] = lb["witness"]
    if rep["witness"] is not None:
        out["witness"] = rep["witness"]
    _emit(out)
    return 1


def cmd_strat_to_conn(args) -> int:
    st = parse_stratification(_read_json(args.file))
    try:
        M = to_connection(st)
        # to_connection reads phi_0 and phi_1 only: the rest must follow from them
        bad = first_off_recurrence(st.phi, st.a)
        if bad is not None:
            raise NotAStratification(
                f"operator phi_{bad} breaks phi_(n+1) = (phi_1 - n*a) phi_n")
    except (NotAStratification, LeibnizViolation) as exc:
        _emit({"status": "fail", "error": str(exc)})
        return 1
    _emit(encode_connection(M))
    return 0


def cmd_verify_key_lemma(args) -> int:
    _require_at_least("--n-max", args.n_max, 0)
    st = parse_stratification(_read_json(args.file))
    D_eff = st.D - args.n_max
    if D_eff < 0:
        raise InputFormatError(f"stratification only reaches pd-degree {st.D}, "
                               f"cannot verify n-max {args.n_max}")
    rep = verify_key_lemma(st.phi, st.a, args.n_max, D_eff)
    if rep["ok"]:
        _emit({"status": "pass"})
        return 0
    _emit({"status": "fail", "witness": rep["witness"]})
    return 1


def cmd_conn_cohomology(args) -> int:
    rep = connops.cohomology(_lenient_connection(_read_json(args.file)))
    out = {"h0": rep["h0"], "h1": rep["h1"]}
    if args.bases:
        out["h0_basis"] = [[encode_element(x) for x in v] for v in rep["h0_basis"]]
        out["h1_representatives"] = rep["h1_representatives"]
    _emit(out)
    return 0


def cmd_conn_classify(args) -> int:
    rep = connops.classify_ndR(_lenient_connection(_read_json(args.file)))
    _emit({"nearly_dR": rep["nearly_dR"], "log_nearly_dR": rep["log_nearly_dR"]})
    return 0


def cmd_conn_nilpotent(args) -> int:
    M = _lenient_connection(_read_json(args.file))
    rep = connops.check_nilpotent(M, _scalar_choice(M.spec, args.a))
    _emit({"status": rep["status"]})
    return 0


def cmd_conn_galois_kernel(args) -> int:
    _require_at_least("--D", args.D, 0)
    M = _lenient_connection(_read_json(args.file))
    a = _scalar_choice(M.spec, args.a)
    if args.tau is not None:
        _require_printable_tau(args.tau, M.spec.p, args.variant)
        kernel = tau_power_kernel(M, args.tau, args.variant, a=a, D=args.D)
    else:
        kernel = action_kernel(M, a, args.D)
    _emit(encode_kernel(kernel))
    return 0


def cmd_conn_converges(args) -> int:
    kernel = parse_kernel(_read_json(args.file))
    if args.v0 == "inf":
        g = GaloisElementData(Valuation.infinity())
    else:
        g = GaloisElementData(parse_rational(args.v0))
    _emit(encode_verdict(converges_at(kernel, g)))
    return 0


def cmd_examples_bk_twist(args) -> int:
    _require_at_least("--m", args.m, 1)
    spec = _field_from(_read_json(args.field))
    M = connops.bk_twist(LogConnection.trivial(spec, 1, args.m), args.n)
    _emit(encode_connection(M))
    return 0


def _add_input(p, name="file"):
    p.add_argument(name, nargs="?", default=None,
                   help="input file; omit or use - for standard input")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prismlab")
    top = parser.add_subparsers(dest="group")

    field = top.add_parser("field").add_subparsers(dest="op")
    p = field.add_parser("check", help="validate a field description")
    _add_input(p)
    p.set_defaults(func=cmd_field_check)

    conn = top.add_parser("conn").add_subparsers(dest="op")
    p = conn.add_parser("new", help="validate and canonicalize a connection")
    _add_input(p)
    p.set_defaults(func=cmd_conn_new)
    p = conn.add_parser("tensor")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_conn_tensor)
    p = conn.add_parser("dual")
    _add_input(p)
    p.set_defaults(func=cmd_conn_dual)
    p = conn.add_parser("twist")
    p.add_argument("--n", type=int, required=True)
    _add_input(p)
    p.set_defaults(func=cmd_conn_twist)
    p = conn.add_parser("change-unif")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda-F", dest="lambda_F", type=int)
    group.add_argument("--y", help="series file for the new coordinate")
    _add_input(p)
    p.set_defaults(func=cmd_conn_change_unif)
    p = conn.add_parser("strat")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--a", choices=["prism", "log"], default="prism")
    _add_input(p)
    p.set_defaults(func=cmd_conn_strat)
    p = conn.add_parser("cohomology")
    p.add_argument("--bases", action="store_true")
    _add_input(p)
    p.set_defaults(func=cmd_conn_cohomology)
    p = conn.add_parser("classify")
    _add_input(p)
    p.set_defaults(func=cmd_conn_classify)
    p = conn.add_parser("nilpotent")
    p.add_argument("--a", choices=["prism", "log"], default="prism")
    _add_input(p)
    p.set_defaults(func=cmd_conn_nilpotent)
    p = conn.add_parser("galois-kernel")
    p.add_argument("--D", type=int, default=6)
    p.add_argument("--a", choices=["prism", "log"], default="prism")
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--variant", choices=["K", "Kpi1"], default="K")
    _add_input(p)
    p.set_defaults(func=cmd_conn_galois_kernel)
    p = conn.add_parser("converges")
    p.add_argument("--v0", required=True)
    _add_input(p)
    p.set_defaults(func=cmd_conn_converges)

    strat = top.add_parser("strat").add_subparsers(dest="op")
    p = strat.add_parser("check-cocycle")
    _add_input(p)
    p.set_defaults(func=cmd_strat_check_cocycle)
    p = strat.add_parser("to-conn")
    _add_input(p)
    p.set_defaults(func=cmd_strat_to_conn)

    verify = top.add_parser("verify").add_subparsers(dest="op")
    p = verify.add_parser("key-lemma")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    _add_input(p)
    p.set_defaults(func=cmd_verify_key_lemma)

    examples = top.add_parser("examples").add_subparsers(dest="op")
    p = examples.add_parser("bk-twist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--field", required=True)
    p.set_defaults(func=cmd_examples_bk_twist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (InputFormatError, NotAUniformizer, RingMismatch, InvalidValuation) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NotAStratification, LeibnizViolation) as exc:
        _emit({"status": "fail", "error": str(exc)})
        return 1
    except PrismlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
