"""Batch command line front end.

Subcommands read JSON objects (file argument, or standard input when the
argument is omitted or "-") and write one canonical JSON report to standard
output. Each cmd_* handler returns its report; main writes it and picks
the exit code: 0 success/pass, 1 mathematical failure (a report whose
status is "fail"), 2 malformed input or usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional

from . import connops
from .errors import (InputFormatError, LeibnizViolation, NotAStratification,
                     PrismlabError)
from .field import FieldSpec
from .galois import GaloisElementData, action_kernel, converges_at, tau_power_kernel
from .serialize import (canonical_json, encode_connection, encode_element,
                        encode_field, encode_kernel, encode_stratification,
                        encode_verdict,
                        parse_connection, parse_field, parse_kernel,
                        parse_series, parse_stratification, parse_valuation)
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
    except RecursionError as exc:
        raise InputFormatError("bad JSON: nested too deeply") from exc


def _read_json(path: Optional[str]):
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"input is not UTF-8: {exc.reason}") from exc
    return _loads(text)


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
        if (type(m) is int and m >= 1 and isinstance(N, list) and isinstance(E, list)
                and all(isinstance(row, list) for row in N)):
            obj["N"] = [[_series_object(cell, unif, m, len(E) - 1) for cell in row]
                        for row in N]
    return parse_connection(obj)


def _series_object(cell, unif, m: int, e: int):
    if isinstance(cell, dict):
        return cell
    coeffs = [c if isinstance(c, list) else [c] + [0] * (e - 1)
              for c in (cell if isinstance(cell, list) else [cell])]
    if m > sys.maxsize:  # longer than any list
        raise InputFormatError(f"cannot pad a shorthand cell to m = {m} coefficients")
    return {"unif": unif, "m": m, "coeffs": coeffs + [[0] * e] * (m - len(coeffs))}


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise InputFormatError(f"{flag} must be >= {low}, got {value}")


def _require_printable_tau(tau: int, p: int, variant: str) -> None:
    """Refuse a --tau whose constant c = p^tau (2p^tau for Kpi1) has more
    digits than Python prints as an integer, before any large power is
    formed: p^tau >= 2^(tau*(b-1)) for b the bit length of p."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
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


def cmd_field_check(args) -> dict:
    return encode_field(_field_from(_read_json(args.file)))


def cmd_conn_new(args) -> dict:
    return encode_connection(_lenient_connection(_read_json(args.file)))


def cmd_conn_tensor(args) -> dict:
    if len(args.files) == 2:
        left = _lenient_connection(_read_json(args.files[0]))
        right = _lenient_connection(_read_json(args.files[1]))
    elif len(args.files) == 1:
        left = _lenient_connection(_read_json(None))
        right = _lenient_connection(_read_json(args.files[0]))
    else:
        raise InputFormatError("tensor takes one or two connection files")
    return encode_connection(connops.tensor(left, right))


def cmd_conn_dual(args) -> dict:
    return encode_connection(connops.dual(_lenient_connection(_read_json(args.file))))


def cmd_conn_twist(args) -> dict:
    M = _lenient_connection(_read_json(args.file))
    return encode_connection(connops.bk_twist(M, args.n))


def cmd_conn_change_unif(args) -> dict:
    M = _lenient_connection(_read_json(args.file))
    if args.lambda_F is not None:
        _require_at_least("--lambda-F", args.lambda_F, 0)
        return encode_connection(connops.kummer_sen_operator(M, args.lambda_F))
    y = parse_series(M.spec, _read_json(args.y))
    return encode_connection(connops.change_uniformizer(M, y))


def cmd_conn_strat(args) -> dict:
    _require_at_least("--D", args.D, 0)
    M = _lenient_connection(_read_json(args.file))
    a = _scalar_choice(M.spec, args.a)
    return encode_stratification(from_connection(M, a, args.D))


def cmd_strat_check_cocycle(args) -> dict:
    st = parse_stratification(_read_json(args.file))
    rep = check_cocycle(st)
    if rep["ok"]:
        return {"status": "pass"}
    lb = check_leibniz(st)
    out = {"status": "fail", "degeneracy_ok": rep["degeneracy_ok"]}
    if not lb["ok"]:
        out["leibniz_witness"] = lb["witness"]
    if rep["witness"] is not None:
        out["witness"] = rep["witness"]
    return out


def cmd_strat_to_conn(args) -> dict:
    st = parse_stratification(_read_json(args.file))
    M = to_connection(st)
    # to_connection reads phi_0 and phi_1 only: the rest must follow from them
    bad = first_off_recurrence(st.phi, st.a)
    if bad is not None:
        raise NotAStratification(
            f"operator phi_{bad} breaks phi_(n+1) = (phi_1 - n*a) phi_n")
    return encode_connection(M)


def cmd_verify_key_lemma(args) -> dict:
    _require_at_least("--n-max", args.n_max, 0)
    st = parse_stratification(_read_json(args.file))
    D_eff = st.D - args.n_max
    if D_eff < 0:
        raise InputFormatError(f"stratification only reaches pd-degree {st.D}, "
                               f"cannot verify n-max {args.n_max}")
    rep = verify_key_lemma(st.phi, st.a, args.n_max, D_eff)
    return {"status": "pass"} if rep["ok"] else {"status": "fail", "witness": rep["witness"]}


def cmd_conn_cohomology(args) -> dict:
    rep = connops.cohomology(_lenient_connection(_read_json(args.file)))
    out = {"h0": rep["h0"], "h1": rep["h1"]}
    if args.bases:
        out["h0_basis"] = [[encode_element(x) for x in v] for v in rep["h0_basis"]]
        out["h1_representatives"] = rep["h1_representatives"]
    return out


def cmd_conn_classify(args) -> dict:
    rep = connops.classify_ndR(_lenient_connection(_read_json(args.file)))
    return {"nearly_dR": rep["nearly_dR"], "log_nearly_dR": rep["log_nearly_dR"]}


def cmd_conn_nilpotent(args) -> dict:
    M = _lenient_connection(_read_json(args.file))
    rep = connops.check_nilpotent(M, _scalar_choice(M.spec, args.a))
    return {"status": rep["status"]}


def cmd_conn_galois_kernel(args) -> dict:
    _require_at_least("--D", args.D, 0)
    if args.variant is not None and args.tau is None:
        raise InputFormatError("--variant needs --tau")
    M = _lenient_connection(_read_json(args.file))
    a = _scalar_choice(M.spec, args.a)
    if args.tau is not None:
        variant = args.variant or "K"
        _require_at_least("--tau", args.tau, 0)
        _require_printable_tau(args.tau, M.spec.p, variant)
        kernel = tau_power_kernel(M, args.tau, variant, a=a, D=args.D)
    else:
        kernel = action_kernel(M, a, args.D)
    return encode_kernel(kernel)


def cmd_conn_converges(args) -> dict:
    kernel = parse_kernel(_read_json(args.file))
    g = GaloisElementData(parse_valuation(args.v0))
    return encode_verdict(converges_at(kernel, g))


def cmd_examples_bk_twist(args) -> dict:
    _require_at_least("--m", args.m, 1)
    spec = _field_from(_read_json(args.field))
    return encode_connection(connops.bk_twist(LogConnection.trivial(spec, 1, args.m), args.n))


def _add_input(p):
    p.add_argument("file", nargs="?", default=None,
                   help="input file; omit or use - for standard input")


class _Formatter(argparse.HelpFormatter):
    """Places the help column past each subcommand name with its indent, as
    Python 3.13 does; 3.10-3.12 leave the indent out, and so wrap a long
    name's help onto the next line."""

    def add_argument(self, action):
        super().add_argument(action)
        if action.help is not argparse.SUPPRESS:
            for sub in self._iter_indented_subactions(action):
                self._action_max_length = max(self._action_max_length, self._current_indent
                                              + len(self._format_action_invocation(sub)))


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: main reports it in one error: line.
    commands maps each subcommand's name to its parser, and command_dest
    names the attribute that holds the chosen one, for main's walk."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_Formatter, **kwargs)
        self.commands = {}
        self.command_dest = None

    def error(self, message):
        raise InputFormatError(message)

    def subcommands(self, dest):
        """A function that adds one subcommand and records its parser.

        The subcommands show as dest, their names in its help: Python 3.13
        wraps a usage line that lists them all otherwise than 3.10-3.12 do.
        argparse names dest in its errors either way."""
        action = self.add_subparsers(dest=dest, metavar=dest)
        self.command_dest = dest

        def add(name, **kwargs):
            parser = self.commands[name] = action.add_parser(name, **kwargs)
            action.help = "one of " + ", ".join(self.commands)
            return parser
        return add


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared: parse_args returns a
    fresh namespace each call and leaves the parser unchanged. Each node
    records its subcommands' parsers, which carry their own prog."""
    parser = _Parser(prog="prismlab")
    a_help = "a = -E'(pi) (prism, the default) or -pi E'(pi) (log)"
    top = parser.subcommands("group")

    field = top("field", help="coefficient fields K = Q_p[u]/(E(u))").subcommands("op")
    p = field("check", help="validate a field description")
    _add_input(p)

    conn = top("conn", help="log connections over K[[T]]/T^m").subcommands("op")
    p = conn("new", help="validate and canonicalize a connection")
    _add_input(p)
    p = conn("tensor", help="tensor product of two connections")
    p.add_argument("files", nargs="+", help="one or two connection files; with one, "
                   "standard input is the left factor")
    p = conn("dual", help="dual connection")
    _add_input(p)
    p = conn("twist", help="twist: N + n I")
    p.add_argument("--n", type=int, required=True, help="the integer n of N + n I")
    _add_input(p)
    p = conn("change-unif", help="rewrite in another uniformizer")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda-F", dest="lambda_F", type=int,
                       help="Kummer coordinate lambda_F, F >= 0, from unif u-pi")
    group.add_argument("--y", help="series file for the new coordinate")
    _add_input(p)
    p = conn("strat", help="stratification up to pd-degree D")
    p.add_argument("--D", type=int, required=True, help="pd-degree D >= 0")
    p.add_argument("--a", choices=["prism", "log"], default="prism", help=a_help)
    _add_input(p)
    p = conn("cohomology", help="de Rham cohomology dimensions h0, h1")
    p.add_argument("--bases", action="store_true",
                   help="also give an h0 basis and h1 representatives")
    _add_input(p)
    p = conn("classify", help="nearly and log-nearly de Rham flags")
    _add_input(p)
    p = conn("nilpotent", help="a-nilpotency verdict")
    p.add_argument("--a", choices=["prism", "log"], default="prism", help=a_help)
    _add_input(p)
    p = conn("galois-kernel", help="operator family of the Galois action")
    p.add_argument("--D", type=int, default=6, help="pd-degree D >= 0 (default 6)")
    p.add_argument("--a", choices=["prism", "log"], default="prism", help=a_help)
    p.add_argument("--tau", type=int, default=None,
                   help="power index i >= 0 of the tau-power kernel")
    p.add_argument("--variant", choices=["K", "Kpi1"], default=None,
                   help="K (default) or the first Kummer layer Kpi1; needs --tau")
    _add_input(p)
    p = conn("converges", help="convergence of a kernel at valuation v0")
    p.add_argument("--v0", required=True, help="valuation v0: a rational or inf")
    _add_input(p)

    strat = top("strat", help="stratifications phi_0..phi_D").subcommands("op")
    p = strat("check-cocycle", help="check the cocycle condition")
    _add_input(p)
    p = strat("to-conn", help="log connection of a stratification")
    _add_input(p)

    verify = top("verify", help="identities of a stratification").subcommands("op")
    p = verify("key-lemma", help="check the key-lemma expansion identity")
    p.add_argument("--n-max", dest="n_max", type=int, required=True,
                   help="check n = 0..n-max, 0 <= n-max <= D")
    _add_input(p)

    examples = top("examples", help="connections built from a field").subcommands("op")
    p = examples("bk-twist", help="twist of the trivial rank-1 connection")
    p.add_argument("--n", type=int, required=True, help="the integer n of N = n")
    p.add_argument("--m", type=int, required=True, help="truncation m >= 1")
    p.add_argument("--field", required=True, help="field description file")

    return parser


# a token argparse reads as a positional although it starts with "-"
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def main(argv=None) -> int:
    """Run the command argv names and write its report: the only write to
    standard output. Bad input is one error: line on standard error."""
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        # descend the command tree along argv's leading subcommand names,
        # then parse the rest once, with the parser reached
        parser, chosen = build_parser(), {}
        for name in argv:
            if name not in parser.commands:
                break
            chosen[parser.command_dest] = name
            parser = parser.commands[name]
        rest = argv[len(chosen):]
        if parser.commands and rest and (not rest[0].startswith("-")
                                         or _NEGATIVE_NUMBER.match(rest[0])):
            what = (f"subcommand {rest[0]!r} of {argv[len(chosen) - 1]}" if chosen
                    else f"command {rest[0]!r}")
            raise InputFormatError(f"unknown {what}; {parser.prog} -h lists them")
        args = parser.parse_args(rest)
        vars(args).update(chosen)
        if getattr(args, "op", None) is None:
            raise InputFormatError(f"missing subcommand of {args.group}; "
                                   f"prismlab {args.group} -h lists them" if args.group
                                   else "missing command; prismlab -h lists them")
        try:
            # looked up per call, so a handler rebound in this module is the one run
            report = globals()[f"cmd_{args.group}_{args.op}".replace("-", "_")](args)
        except (NotAStratification, LeibnizViolation) as exc:
            report = {"status": "fail", "error": str(exc)}
        _emit(report)
        return 1 if report.get("status") == "fail" else 0
    except (PrismlabError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
