"""Command line behaviour: pipelines, exit codes, deterministic bytes."""
import argparse
import ast
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prismlab import cli
from prismlab.cli import _read_json, build_parser, main as cli_main
from prismlab.errors import InputFormatError
from prismlab.field import FieldSpec
from prismlab.galois import GaloisKernel, action_kernel
from prismlab.linalg import Matrix
from prismlab.serialize import (canonical_json, encode_connection, encode_element,
                                encode_field, encode_kernel, encode_rational,
                                encode_stratification, parse_connection)
from prismlab.series import TruncSeries
from prismlab.strat import LogConnection, Stratification, from_connection

from conftest import constant_conn, count_calls, random_connection, random_element, random_rational


def stdin_of(text):
    """text as a standard input that decodes strict UTF-8 from bytes; a
    lone surrogate escape such as "\\udcff" stands for the raw byte 0xff."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8", "surrogateescape")),
                            encoding="utf-8", newline="")


def run_cli(argv, stdin_text=""):
    old = sys.stdin
    sys.stdin = stdin_of(stdin_text)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
    finally:
        sys.stdin = old
    return code, buf.getvalue()


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
# bad numeric flags, each with the input it reads on standard input: a
# connection in T with non-split residual weights, the same in u-pi, or a
# stratification; bk-twist takes the field file as its final argument
BAD_FLAGS = {
    "strat-D": (["conn", "strat", "--D", "-1"], "T"),
    "galois-kernel-D": (["conn", "galois-kernel", "--D", "-2"], "T"),
    "galois-kernel-tau": (["conn", "galois-kernel", "--tau", "10000"], "T"),
    "galois-kernel-tau-negative": (["conn", "galois-kernel", "--tau", "-1"], "T"),
    "bk-twist-m": (["examples", "bk-twist", "--n", "1", "--m", "0", "--field"], "T"),
    "key-lemma-n-max": (["verify", "key-lemma", "--n-max", "-1"], "strat"),
    "change-unif-lambda-F": (["conn", "change-unif", "--lambda-F", "-1"], "u-pi"),
    # refused by the parser itself, before any input is read
    "strat-D-not-int": (["conn", "strat", "--D", "1e3"], "T"),
    "twist-n-not-int": (["conn", "twist", "--n", "x"], "T"),
    "galois-kernel-tau-not-int": (["conn", "galois-kernel", "--tau", "1.5"], "T"),
}

# usage errors other than a bad numeric flag
USAGE_ERRORS = {
    "missing-required-flag": ["conn", "twist"],
    "unknown-subcommand": ["conn", "frobnicate"],
    "unknown-group": ["frobnicate"],
    "tensor-without-files": ["conn", "tensor"],
    "bare-group": ["conn"],
    "empty": [],
}

# the line main prints for a name that is no command of the parser reached
UNKNOWN_COMMANDS = {
    ("conn", "frobnicate"):
        "error: unknown subcommand 'frobnicate' of conn; prismlab conn -h lists them\n",
    ("frobnicate",): "error: unknown command 'frobnicate'; prismlab -h lists them\n",
    # argparse reads a negative number as a positional, so as a name
    ("conn", "-1"): "error: unknown subcommand '-1' of conn; prismlab conn -h lists them\n",
    ("conn", "-.5"): "error: unknown subcommand '-.5' of conn; prismlab conn -h lists them\n",
    ("-1",): "error: unknown command '-1'; prismlab -h lists them\n",
    ("-1.5",): "error: unknown command '-1.5'; prismlab -h lists them\n",
}


HUGE_LITERAL_FIELD = '{"p":' + "1" * 4301 + ',"E":[-3,1]}'
DEEP_NEST = "[" * 100000 + "]" * 100000


def bad_flag_input(name, field_path, spec):
    """(argv, standard input) of one BAD_FLAGS case."""
    flags, kind = BAD_FLAGS[name]
    M = constant_conn(spec, 2, [[0, 2], [1, 0]], unif="u-pi" if kind == "u-pi" else "T")
    obj = encode_stratification(from_connection(M, 1, 2)) if kind == "strat" \
        else encode_connection(M)
    argv = flags + [field_path] if flags[-1] == "--field" else flags
    return argv, canonical_json(obj)


def _cell(obj):
    return obj["N"][0][0]


# malformed connections, each an edit of a canonical connection with l = m = 1
MALFORMED_CONNECTIONS = {
    "non-object": lambda o: [o],
    "missing-key": lambda o: {k: v for k, v in o.items() if k != "N"},
    "non-list-row": lambda o: {**o, "N": [5]},
    "ragged-row": lambda o: {**o, "N": [[]]},
    "cell-longer-than-m": lambda o: {**o, "N": [[{**_cell(o), "coeffs": [[1], [0]]}]]},
    "shorthand-cell-longer-than-m": lambda o: {**o, "N": [[[1, 0]]]},
    "entry-m-disagrees": lambda o: {**o, "N": [[{**_cell(o), "m": 2, "coeffs": [[1], [0]]}]]},
    "entry-unif-disagrees": lambda o: {**o, "N": [[{**_cell(o), "unif": "S"}]]},
    "non-string-unif": lambda o: {**o, "unif": 5, "N": [[{**_cell(o), "unif": 5}]]},
    "boolean-l": lambda o: {**o, "l": True},
    "boolean-m": lambda o: {**o, "m": True},
    # a shorthand cell is padded to m coefficients: no list is this long
    "shorthand-m-past-maxsize": lambda o: {**o, "m": 2 ** 64, "N": [[1]]},
    "shorthand-m-huge-negative": lambda o: {**o, "m": -10 ** 200, "N": [[1]]},
}


def shorthand(M):
    """M in the CLI's shorthand: no unif, a constant rational cell as a bare
    rational, any other cell as its coefficient list without trailing
    zeros, with rational coefficients written bare."""
    def coeff(x):
        return encode_rational(x.rational_value()) if x.is_rational() else encode_element(x)

    def cell(s):
        cs = list(s.coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        if not cs:
            return 0
        if len(cs) == 1 and cs[0].is_rational():
            return coeff(cs[0])
        return [coeff(x) for x in cs]
    return {"field": encode_field(M.spec), "l": M.l, "m": M.m,
            "N": [[cell(s) for s in row] for row in M.N]}


def sparse_connection(rng, spec, l, m):
    """Random connection whose coefficients are often zero or rational."""
    def coeff():
        kind = rng.randrange(3)
        if kind == 0:
            return spec.zero()
        if kind == 1:
            return spec.from_rational(random_rational(rng))
        return random_element(rng, spec)
    N = [[TruncSeries(spec, m, [coeff() for _ in range(m)], "T") for _ in range(l)]
         for _ in range(l)]
    return LogConnection(spec, "T", l, m, N)


def run_cli_stderr(argv, stdin_text=""):
    """run_cli, also returning what went to standard error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv, stdin_text)
    return code, out, err.getvalue()


def python_env(**env):
    """The environment with the variables env added and src/ put first on
    PYTHONPATH, so that a subprocess imports prismlab from the checkout."""
    env = dict(os.environ) | env
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_python(args, stdin_text="", timeout=None, **env):
    """python args in a subprocess that imports prismlab from src/, with
    the variables env added to its environment; stdin_text is encoded as
    stdin_of encodes it."""
    return subprocess.run([sys.executable, *args],
                          input=stdin_text.encode("utf-8", "surrogateescape"),
                          capture_output=True, env=python_env(**env), timeout=timeout)


def run_module(flags, argv, stdin_text=""):
    """python [flags] -m prismlab.cli argv in a subprocess."""
    return run_python([*flags, "-m", "prismlab.cli", *argv], stdin_text)


@pytest.fixture
def field_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"p":3,"E":[-3,0,1]}')
    return str(path)


@pytest.fixture
def q3_field_file(tmp_path):
    path = tmp_path / "q3.json"
    path.write_text('{"p":3,"E":[-3,1]}')
    return str(path)


class TestFieldCheck:
    def test_valid(self, field_file):
        code, out = run_cli(["field", "check", field_file])
        assert code == 0
        assert out == '{"E":[-3,0,1],"p":3}\n'

    def test_non_eisenstein(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"p":3,"E":[-9,0,1]}')
        code, _ = run_cli(["field", "check", str(path)])
        assert code == 2

    def test_missing_file(self):
        code, _ = run_cli(["field", "check", "/nonexistent/f.json"])
        assert code == 2


class TestPipelines:
    def test_bk_twist_into_cohomology(self, q3_field_file):
        code, conn_json = run_cli(["examples", "bk-twist", "--n", "-1",
                                   "--m", "3", "--field", q3_field_file])
        assert code == 0
        code, out = run_cli(["conn", "cohomology"], stdin_text=conn_json)
        assert code == 0
        assert out == '{"h0":1,"h1":1}\n'

    def test_strat_into_check_cocycle(self, tmp_path, rng, q3):
        M = random_connection(rng, q3, 2, 2)
        path = tmp_path / "conn.json"
        path.write_text(canonical_json(encode_connection(M)))
        code, strat_json = run_cli(["conn", "strat", "--D", "6", str(path)])
        assert code == 0
        code, out = run_cli(["strat", "check-cocycle"], stdin_text=strat_json)
        assert code == 0
        assert out == '{"status":"pass"}\n'

    def test_classify_pi_thirds(self, tmp_path):
        obj = {"field": {"p": 3, "E": [-3, 0, 1]}, "l": 1, "m": 1,
               "N": [[[[0, "1/3"]]]]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        code, out = run_cli(["conn", "classify", str(path)])
        assert code == 0
        assert out == '{"log_nearly_dR":true,"nearly_dR":false}\n'

    def test_strat_to_conn_round_trip(self, tmp_path, rng, q3):
        M = random_connection(rng, q3, 2, 3)
        conn_json = canonical_json(encode_connection(M)) + "\n"
        code, strat_json = run_cli(["conn", "strat", "--D", "7", "-"],
                                   stdin_text=conn_json)
        assert code == 0
        code, back = run_cli(["strat", "to-conn"], stdin_text=strat_json)
        assert code == 0
        assert back == conn_json

    def test_subprocess_pipeline(self, q3_field_file):
        # the same first example through real processes and a real pipe
        shell = (f"{sys.executable} -m prismlab.cli examples bk-twist --n -1 --m 3 "
                 f"--field {q3_field_file} | "
                 f"{sys.executable} -m prismlab.cli conn cohomology")
        proc = subprocess.run(shell, shell=True, capture_output=True, text=True,
                              env=python_env())
        assert proc.returncode == 0
        assert proc.stdout == '{"h0":1,"h1":1}\n'


class TestConnCommands:
    def test_new_shorthand_and_canonical(self, tmp_path, rng, q3, q3s, cubic3):
        obj = {"field": {"p": 3, "E": [-3, 1]}, "l": 2, "m": 2,
               "N": [[1, 0], ["1/2", [0, 1]]]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(obj))
        code, out = run_cli(["conn", "new", str(path)])
        assert code == 0
        parsed = json.loads(out)
        assert parsed["N"][1][1]["coeffs"] == [[0], [1]]
        # canonical output is a fixed point
        code2, out2 = run_cli(["conn", "new"], stdin_text=out)
        assert code2 == 0 and out2 == out
        # random connections: shorthand and canonical input give the same bytes
        for spec in (q3, q3s, cubic3):
            for _ in range(6):
                M = sparse_connection(rng, spec, rng.randint(1, 3), rng.randint(1, 4))
                canonical = canonical_json(encode_connection(M)) + "\n"
                short = run_cli(["conn", "new"], stdin_text=json.dumps(shorthand(M)))
                assert short == (0, canonical)
                assert run_cli(["conn", "new"], stdin_text=canonical) == (0, canonical)

    @pytest.mark.parametrize("case", MALFORMED_CONNECTIONS)
    def test_malformed_connection_rejected(self, case, q3):
        obj = MALFORMED_CONNECTIONS[case](encode_connection(constant_conn(q3, 1, [[1]])))
        code, out, err = run_cli_stderr(["conn", "new"], stdin_text=json.dumps(obj))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        with pytest.raises(InputFormatError):
            parse_connection(obj)

    def test_twist_dual_tensor(self, tmp_path, q3):
        one = canonical_json(encode_connection(constant_conn(q3, 2, [[1]]))) + "\n"
        code, twisted = run_cli(["conn", "twist", "--n", "2"], stdin_text=one)
        assert code == 0
        assert json.loads(twisted)["N"][0][0]["coeffs"][0] == [3]
        code, dualed = run_cli(["conn", "dual"], stdin_text=twisted)
        assert json.loads(dualed)["N"][0][0]["coeffs"][0] == [-3]
        path = tmp_path / "b.json"
        path.write_text(twisted)
        code, prod = run_cli(["conn", "tensor", str(path)], stdin_text=dualed)
        assert code == 0
        assert json.loads(prod)["N"][0][0]["coeffs"][0] == [0]

    def test_tensor_of_two_files_reads_like_stdin(self, tmp_path):
        """conn tensor A B prints what conn tensor B < A prints, and the
        factor order shows."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text('{"field":{"p":3,"E":[-3,1]},"l":2,"m":2,"N":[[1,0],[0,2]]}')
        b.write_text('{"field":{"p":3,"E":[-3,1]},"l":2,"m":2,"N":[[0,1],[[0,3],0]]}')
        both = run_cli_stderr(["conn", "tensor", str(a), str(b)])
        assert both[0] == 0 and both[2] == ""
        assert run_cli_stderr(["conn", "tensor", str(b)], stdin_text=a.read_text()) == both
        assert run_cli(["conn", "tensor", str(b), str(a)])[1] != both[1]

    def test_tensor_of_three_files_exits_two(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"field":{"p":3,"E":[-3,1]},"l":1,"m":2,"N":[[1]]}')
        assert run_cli_stderr(["conn", "tensor", str(path), str(path), str(path)]) == (
            2, "", "error: tensor takes one or two connection files\n")

    def test_shorthand_padding_shares_zero(self, tmp_path):
        """A shorthand cell padded to m coefficients builds no element per
        padded zero: classify at m = 50000 peaks under 3 MiB of traced
        allocations (6.8 MiB with one element per zero)."""
        path = tmp_path / "c.json"
        path.write_text('{"field":{"p":3,"E":[-3,1]},"l":1,"m":50000,"N":[[1]]}')
        tracemalloc.start()
        try:
            code, _ = run_cli(["conn", "classify", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 3 * 2**20

    def test_change_unif_requires_u_pi(self, q3):
        M = constant_conn(q3, 2, [[1]], unif="T")
        code, _ = run_cli(["conn", "change-unif", "--lambda-F", "0"],
                          stdin_text=canonical_json(encode_connection(M)))
        assert code == 2

    def test_change_unif_lambda_round_values(self, q3):
        M = constant_conn(q3, 2, [[1]], unif="u-pi")
        code, out = run_cli(["conn", "change-unif", "--lambda-F", "0"],
                            stdin_text=canonical_json(encode_connection(M)))
        assert code == 0
        parsed = json.loads(out)
        assert parsed["unif"] == "lambda0"

    def test_change_unif_bad_series(self, tmp_path, q3):
        """y of order two, y of modulus 3 for a connection of modulus 2, and
        a unit y at modulus 1."""
        y = tmp_path / "y.json"
        for m, ym, coeffs, error in [
                (3, 3, "[[0],[0],[1]]", "substitution series must vanish to exact order one"),
                (2, 3, "[[0],[1],[0]]", "substitution series lives over a different ring"),
                (1, 1, "[[5]]", "substitution series must vanish to exact order one")]:
            y.write_text('{"unif":"y","m":%d,"coeffs":%s}' % (ym, coeffs))
            text = canonical_json(encode_connection(constant_conn(q3, m, [[1]])))
            assert run_cli_stderr(["conn", "change-unif", "--y", str(y)], stdin_text=text) == (
                2, "", f"error: {error}\n")

    def test_cohomology_bases_flag(self, q3):
        M = LogConnection.trivial(q3, 1, 2)
        code, out = run_cli(["conn", "cohomology", "--bases"],
                            stdin_text=canonical_json(encode_connection(M)))
        parsed = json.loads(out)
        assert parsed["h0_basis"] == [[[1], [0]]]
        assert parsed["h1_representatives"] == [0]

    def test_nilpotent_non_split_exact(self, q3):
        M = constant_conn(q3, 1, [[0, 2], [1, 0]])
        code, out = run_cli(["conn", "nilpotent"],
                            stdin_text=canonical_json(encode_connection(M)))
        assert (code, out) == (0, '{"status":"ProvenNotNilpotent"}\n')

    def test_galois_kernel_and_converges(self, q3):
        M = constant_conn(q3, 1, [[2]])
        conn_json = canonical_json(encode_connection(M))
        code, kernel_json = run_cli(["conn", "galois-kernel", "--D", "8"],
                                    stdin_text=conn_json)
        assert code == 0
        parsed = json.loads(kernel_json)
        assert parsed["tag"] == "prismatic" and len(parsed["A"]) == 9
        code, verdict = run_cli(["conn", "converges", "--v0", "1/2"],
                                stdin_text=kernel_json)
        assert code == 0
        assert json.loads(verdict)["status"] == "Convergent"
        code, _ = run_cli(["conn", "converges", "--v0", "0"],
                          stdin_text=kernel_json)
        assert code == 2

    def test_galois_kernel_at_degree_zero_into_converges(self, q3):
        """A kernel of A_0 alone has no A_1 to read: its trace is [0]."""
        conn_json = canonical_json(encode_connection(constant_conn(q3, 1, [[2]])))
        code, kernel_json = run_cli(["conn", "galois-kernel", "--D", "0"], conn_json)
        assert code == 0
        assert run_cli(["conn", "converges", "--v0", "1"], kernel_json) == (
            0, '{"status":"Convergent","trace":[0]}\n')

    def test_tau_kernel_metadata(self, q3):
        M = constant_conn(q3, 1, [[1]])
        code, out = run_cli(
            ["conn", "galois-kernel", "--tau", "1", "--variant", "Kpi1", "--D", "2"],
            stdin_text=canonical_json(encode_connection(M)))
        assert code == 0
        assert json.loads(out)["c"] == 6

    def test_variant_without_tau_is_refused(self, q3):
        # it would otherwise be read by nothing and change no byte
        conn_json = canonical_json(encode_connection(constant_conn(q3, 1, [[1]])))
        for variant in ("K", "Kpi1"):
            code, out, err = run_cli_stderr(["conn", "galois-kernel", "--variant", variant],
                                            conn_json)
            assert (code, out, err) == (2, "", "error: --variant needs --tau\n")

    def test_tau_alone_means_variant_k(self, q3):
        conn_json = canonical_json(encode_connection(constant_conn(q3, 1, [[1]])))
        alone = run_cli(["conn", "galois-kernel", "--tau", "1", "--D", "2"], conn_json)
        explicit = run_cli(["conn", "galois-kernel", "--tau", "1", "--variant", "K", "--D", "2"],
                           conn_json)
        assert alone == explicit and alone[0] == 0
        assert json.loads(alone[1])["c"] == 3

    @pytest.mark.parametrize("variant", ["K", "Kpi1"])
    def test_tau_kernel_is_accepted_by_converges(self, q3, variant):
        conn_json = canonical_json(encode_connection(constant_conn(q3, 1, [[1]])))
        code, kernel_json = run_cli(["conn", "galois-kernel", "--tau", "3",
                                     "--variant", variant, "--D", "3"], conn_json)
        assert code == 0 and json.loads(kernel_json)["c"] == 27 * (1 + (variant == "Kpi1"))
        code, out = run_cli(["conn", "converges", "--v0", "1/2"], stdin_text=kernel_json)
        assert code == 0 and json.loads(out)["status"] == "Convergent"


Q3_JSON = {"p": 3, "E": [-3, 1]}
# the 1 x 1 identity matrix over Q_3
ONE_JSON = [[[1]]]


def series_json(m=1, unif="T"):
    """The canonical cell 1 + T + ... + T^(m-1) over Q_3."""
    return {"unif": unif, "m": m, "coeffs": [[1]] * m}


def conn_json(l=1, m=1, N=None):
    return {"field": Q3_JSON, "unif": "T", "l": l, "m": m, "N": N or [[series_json()]]}


def strat_json(l=1, m=1, D=1, phi=None):
    return {"field": Q3_JSON, "l": l, "m": m, "D": D, "a": [1],
            "phi": [ONE_JSON] * (D + 1) if phi is None else phi}


def one_check_cases():
    """(id, argv, JSON object, in-process build) for malformed objects that
    both entry points refuse in one check, the constructor's."""
    q3 = FieldSpec(3, [-3, 1])
    one, I2 = Matrix.identity(q3, 1), [[[1], [0]], [[0], [1]]]
    s1 = TruncSeries(q3, 1, [1])
    conn, strat = ["conn", "new"], ["strat", "check-cocycle"]
    return [
        ("p-true", ["field", "check"], {"p": True, "E": [-3, 1]},
         lambda: FieldSpec(True, [-3, 1])),
        ("E-half", ["field", "check"], {"p": 3, "E": [-3, "1/2", 1]},
         lambda: FieldSpec(3, [-3, "1/2", 1])),
        ("l-zero", conn, conn_json(l=0), lambda: LogConnection(q3, "T", 0, 1, [[s1]])),
        ("m-string", conn, conn_json(m="2", N=[[series_json(2)]]),
         lambda: LogConnection(q3, "T", 1, "2", [[TruncSeries(q3, 2, [1])]])),
        ("N-2x1", conn, conn_json(l=2, N=[[series_json()], [series_json()]]),
         lambda: LogConnection(q3, "T", 2, 1, [[s1], [s1]])),
        ("entry-m", conn, conn_json(N=[[series_json(2)]]),
         lambda: LogConnection(q3, "T", 1, 1, [[TruncSeries(q3, 2, [1])]])),
        ("entry-unif", conn, conn_json(N=[[series_json(unif="u")]]),
         lambda: LogConnection(q3, "T", 1, 1, [[TruncSeries(q3, 1, [1], "u")]])),
        ("D-negative", strat, strat_json(D=-1), lambda: Stratification(q3, 1, 1, -1, 1, [])),
        ("phi-short", strat, strat_json(D=2, phi=[ONE_JSON] * 2),
         lambda: Stratification(q3, 1, 1, 2, 1, [one, one])),
        ("operator-size", strat, strat_json(m=2, phi=[I2, ONE_JSON]),
         lambda: Stratification(q3, 1, 2, 1, 1, [Matrix.identity(q3, 2), one])),
        ("kernel-c-4", ["conn", "converges", "--v0", "1"],
         {"field": Q3_JSON, "a": [1], "D": 1, "A": [ONE_JSON] * 2, "tag": "custom", "c": 4},
         lambda: GaloisKernel([one, one], 1, 4)),
    ]


ONE_CHECK_CASES = one_check_cases()


@pytest.mark.parametrize("argv,obj,build", [case[1:] for case in ONE_CHECK_CASES],
                         ids=[case[0] for case in ONE_CHECK_CASES])
def test_entry_points_make_one_check(argv, obj, build):
    """A malformed object is refused by its constructor alone: the CLI
    exits 2 with one error: line, never 1, and the constructor raises
    InputFormatError with the same message."""
    code, out, err = run_cli_stderr(argv + ["-"], stdin_text=json.dumps(obj))
    with pytest.raises(InputFormatError) as exc:
        build()
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")


class TestFailurePaths:
    def test_cocycle_violation_exits_one(self, rng, q3):
        M = random_connection(rng, q3, 2, 2)
        st = from_connection(M, q3.a_prism(), 4)
        rows = [[0] * 4 for _ in range(4)]
        rows[1][2] = 1
        bad = st.perturbed(2, Matrix(q3, rows))
        code, out = run_cli(["strat", "check-cocycle"],
                            stdin_text=canonical_json(encode_stratification(bad)))
        assert code == 1
        parsed = json.loads(out)
        assert parsed["status"] == "fail"
        mono = parsed["witness"]["monomial"]
        assert mono["x1"] + mono["x2"] == 2

    def test_to_conn_rejects_family_off_recurrence(self, rng, q3):
        """to-conn checks phi_2..phi_D against the recurrence from phi_1, as
        check-cocycle does: l=1, m=2, D=3 with phi_2[0][0] set to 7."""
        st = from_connection(random_connection(rng, q3, 1, 2), q3.a_prism(), 3)
        for n in (2, 3):
            obj = encode_stratification(st)
            obj["phi"][n][0][0] = [7]
            text = canonical_json(obj)
            code, out = run_cli(["strat", "to-conn"], stdin_text=text)
            assert code == 1
            rep = json.loads(out)
            assert rep["status"] == "fail" and f"phi_{n} " in rep["error"]
            assert run_cli(["strat", "check-cocycle"], stdin_text=text)[0] == 1

    def test_check_cocycle_reports_leibniz_witness(self, tmp_path):
        """phi_1 of conn strat --D 2 with entry (1, 1) set to 7 breaks the
        Leibniz law; the report names its witness beside the cocycle's."""
        path = tmp_path / "c.json"
        path.write_text('{"field":{"p":3,"E":[-3,1]},"l":1,"m":2,"N":[[1]]}')
        code, out = run_cli(["conn", "strat", "--D", "2", str(path)])
        assert code == 0
        obj = json.loads(out)
        obj["phi"][1][1][1] = [7]
        assert run_cli_stderr(["strat", "check-cocycle"], stdin_text=json.dumps(obj)) == (
            1, '{"degeneracy_ok":true,"leibniz_witness":{"entry":[1,0],"power":1},'
               '"status":"fail","witness":{"component":0,"generator":1,'
               '"monomial":{"t":1,"x1":1,"x2":0}}}\n', "")

    def test_entry_off_width_and_denominator(self):
        """conn strat --D 3 over Q_3(sqrt 3) with phi_3[1][0] set to
        10^80 + pi/7: a numerator past any packing width over a denominator
        that no den^k has. check-cocycle finds it at generator 0, to-conn
        at phi_3, and conn converges in A_2 of a kernel carrying it."""
        conn = '{"field":{"p":3,"E":[-3,0,1]},"l":1,"m":2,"N":[[1]]}'
        entry = ["1" + "0" * 80, "1/7"]
        code, out = run_cli(["conn", "strat", "--D", "3"], stdin_text=conn)
        assert code == 0
        obj = json.loads(out)
        obj["phi"][3][1][0] = entry
        text = json.dumps(obj)
        assert run_cli_stderr(["strat", "check-cocycle"], stdin_text=text) == (
            1, '{"degeneracy_ok":true,"status":"fail","witness":{"component":0,'
               '"generator":0,"monomial":{"t":1,"x1":1,"x2":2}}}\n', "")
        assert run_cli_stderr(["strat", "to-conn"], stdin_text=text) == (
            1, '{"error":"operator phi_3 breaks phi_(n+1) = (phi_1 - n*a) phi_n",'
               '"status":"fail"}\n', "")
        code, out = run_cli(["conn", "galois-kernel", "--D", "3"], stdin_text=conn)
        assert code == 0
        kernel = json.loads(out)
        kernel["A"][2][1][0] = entry
        assert run_cli_stderr(["conn", "converges", "--v0", "1/2"],
                              stdin_text=json.dumps(kernel)) == (
            2, "", "error: kernel operator A_2 breaks A_(n+1) = (A_1 - n*a) A_n\n")

    def test_to_conn_of_degree_zero_fails(self, tmp_path):
        """conn strat --D 0 keeps phi_0 alone, and to-conn does not invent
        N = 0 for it."""
        path = tmp_path / "c.json"
        path.write_text('{"field":{"p":3,"E":[-3,1]},"l":1,"m":2,"N":[[1]]}')
        code, out = run_cli(["conn", "strat", "--D", "0", str(path)])
        assert code == 0
        assert run_cli_stderr(["strat", "to-conn"], stdin_text=out) == (
            1, '{"error":"a stratification of pd-degree 0 has no phi_1 to read N from",'
               '"status":"fail"}\n', "")

    def test_to_conn_at_a_zero_fails(self):
        """At a = 0 with phi_1 = 0 the cocycle check passes, but N = phi_1 / a
        cannot be read: a failed check, not bad input."""
        text = ('{"D":1,"a":[0],"field":{"E":[-3,1],"p":3},"l":1,"m":2,'
                '"phi":[[[[1],[0]],[[0],[1]]],[[[0],[0]],[[0],[0]]]]}')
        assert run_cli(["strat", "check-cocycle"], stdin_text=text) == (
            0, '{"status":"pass"}\n')
        assert run_cli_stderr(["strat", "to-conn"], stdin_text=text) == (
            1, '{"error":"a = 0: N cannot be read from phi_1 = a N","status":"fail"}\n', "")

    def test_key_lemma_cli(self, rng, q3):
        M = random_connection(rng, q3, 1, 2)
        st = from_connection(M, 1, 6)
        code, out = run_cli(["verify", "key-lemma", "--n-max", "2"],
                            stdin_text=canonical_json(encode_stratification(st)))
        assert code == 0 and out == '{"status":"pass"}\n'
        bad = st.perturbed(2, st.phi[1] * st.phi[1] - st.phi[2])
        code, out = run_cli(["verify", "key-lemma", "--n-max", "2"],
                            stdin_text=canonical_json(encode_stratification(bad)))
        assert code == 1
        assert json.loads(out)["witness"]["n"] == 1

    def test_key_lemma_depth_guard(self, rng, q3):
        st = from_connection(random_connection(rng, q3, 1, 1), 1, 2)
        code, _ = run_cli(["verify", "key-lemma", "--n-max", "5"],
                          stdin_text=canonical_json(encode_stratification(st)))
        assert code == 2

    def test_bad_json_exits_two(self):
        code, _ = run_cli(["conn", "cohomology"], stdin_text="{not json")
        assert code == 2
        code, out = run_cli(["field", "check"], stdin_text='{"p":3,"E":[-3,1],"p":3}')
        assert code == 2 and out == ""

    def test_huge_integer_literal_exits_two(self):
        # longer than the 4,300 digits Python converts by default
        code, out, err = run_cli_stderr(["field", "check"],
                                        stdin_text=HUGE_LITERAL_FIELD)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deep_nesting_exits_two(self):
        # valid JSON, but nested past the interpreter's recursion limit
        assert run_cli_stderr(["conn", "new"], DEEP_NEST) == (
            2, "", "error: bad JSON: nested too deeply\n")

    def test_invalid_utf8_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"p":3,"E":[-3,1]}\xff')
        expect = (2, "", "error: input is not UTF-8: invalid start byte\n")
        assert run_cli_stderr(["field", "check", str(path)]) == expect
        assert run_cli_stderr(["field", "check"], '{"p":3,"E":[-3,1]}\udcff') == expect
        proc = run_python(["-m", "prismlab.cli", "field", "check"], '{"p":3,"E":[-3,1]}\udcff',
                          PYTHONIOENCODING="utf-8:strict")
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expect

    def test_out_of_memory_exits_two(self, monkeypatch, q3_field_file):
        # main looks its handler up per call, so the rebound one runs
        def exhausted(args):
            raise MemoryError
        monkeypatch.setattr(cli, "cmd_field_check", exhausted)
        assert run_cli_stderr(["field", "check", q3_field_file]) == (
            2, "", "error: out of memory\n")

    @pytest.mark.parametrize("entry", [int("7" * 4000), "1/" + "7" * 4000],
                             ids=["integer", "fraction"])
    def test_output_integer_past_digit_limit_exits_two(self, entry):
        # the input's integers convert, but phi_3 holds the entry's cube,
        # past the 4,300 digits Python converts to text by default
        conn = {"field": {"p": 3, "E": [-3, 1]}, "l": 1, "m": 1, "N": [[entry]]}
        code, out, err = run_cli_stderr(["conn", "strat", "--D", "1"],
                                        stdin_text=canonical_json(conn))
        assert code == 0
        code, out, err = run_cli_stderr(["conn", "strat", "--D", "3"],
                                        stdin_text=canonical_json(conn))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_large_prime_accepted_and_beyond_bound_exits_two(self):
        p = 100000000000031
        code, out = run_cli(["field", "check"], stdin_text=json.dumps({"p": p, "E": [-p, 1]}))
        assert (code, json.loads(out)) == (0, {"p": p, "E": [-p, 1]})
        p = 3317044064679887385961981
        code, out = run_cli(["field", "check"], stdin_text=json.dumps({"p": p, "E": [-p, 1]}))
        assert (code, out) == (2, "")

    def test_mistyped_kernel_fields_exit_two(self, q3):
        obj = encode_kernel(action_kernel(constant_conn(q3, 1, [[2]]), q3.a_prism(), 1))
        for key, bad in (("D", True), ("tag", 7), ("c", 0), ("c", True), ("c", "6")):
            code, out, err = run_cli_stderr(["conn", "converges", "--v0", "1/2"],
                                            stdin_text=canonical_json({**obj, key: bad}))
            assert (code, out) == (2, ""), (key, bad)
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_kernel_metadata_disagreeing_with_a_exits_two(self, q3):
        """A tag that does not name a, or a c that is neither p^i nor
        2 p^i, is refused with exit 2 instead of being ignored, as are
        operators of different sizes."""
        obj = encode_kernel(action_kernel(constant_conn(q3, 1, [[2]]), q3.a_prism(), 2))
        two_by_two = [[[1], [0]], [[0], [1]]]
        for key, bad, line in (("tag", "nonsense", "kernel tag must be 'prismatic' at this a"),
                               ("tag", "log", "kernel tag must be 'prismatic' at this a"),
                               ("c", 7, "kernel c must be p^i or 2 p^i"),
                               ("c", 4 * 3 ** 5, "kernel c must be p^i or 2 p^i"),
                               ("A", obj["A"][:2] + [two_by_two],
                                "kernel operators must share one square size")):
            code, out, err = run_cli_stderr(["conn", "converges", "--v0", "1/2"],
                                            stdin_text=canonical_json({**obj, key: bad}))
            assert (code, out, err) == (2, "", f"error: {line}\n"), (key, bad)

    def test_unknown_subcommand_exits_two(self):
        for name, argv in USAGE_ERRORS.items():
            code, out, err = run_cli_stderr(argv)
            assert (code, out) == (2, ""), name
            assert err.startswith("error: ") and err.count("\n") == 1, name
        assert "subcommand of conn" in run_cli_stderr(["conn"])[2]
        for argv, line in UNKNOWN_COMMANDS.items():
            assert run_cli_stderr(list(argv)) == (2, "", line)

    def test_help_unchanged(self):
        # -h prints help to stdout and exits 0, as argparse does
        code, out = run_cli(["conn", "strat", "-h"])
        assert code == 0 and out.startswith("usage: prismlab conn strat")


def _subcommands(parser):
    """name -> parser of each subcommand of parser, empty at a leaf."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


class TestParser:
    """One parser per process, with handlers found by name."""

    def test_every_subcommand_has_a_handler(self):
        names = [f"cmd_{group}_{op}".replace("-", "_")
                 for group, sub in _subcommands(build_parser()).items()
                 for op in _subcommands(sub)]
        assert len(set(names)) == len(names)
        assert all(callable(getattr(cli, name, None)) for name in names)
        # and no handler is orphaned
        assert set(names) == {name for name in vars(cli) if name.startswith("cmd_")}

    def test_recorded_tree_is_argparse_tree(self):
        """main walks the commands each parser recorded as it was built:
        they are argparse's own subparsers, node for node."""
        def check(parser):
            assert parser.commands == _subcommands(parser)
            for sub in parser.commands.values():
                check(sub)
        check(build_parser())

    def test_every_subcommand_has_help(self, monkeypatch):
        """Each node's -h describes every subcommand and group under it, on
        the subcommand's own line."""
        monkeypatch.setenv("COLUMNS", "80")

        def check(parser):
            text = parser.format_help()
            for name, sub in parser.commands.items():
                assert re.search(rf"^    {re.escape(name)}  +\S", text, re.M), (parser.prog, name)
                check(sub)
        check(build_parser())

    def test_every_option_has_help(self):
        """Each leaf's -h explains every option and positional it lists:
        an action other than -h without help text fails."""
        def bare(parser):
            if parser.commands:
                return [found for sub in parser.commands.values() for found in bare(sub)]
            return [(parser.prog, action.dest) for action in parser._actions
                    if not isinstance(action, argparse._HelpAction)
                    and not (action.help or "").strip()]
        assert bare(build_parser()) == []

    def test_only_main_writes_a_report(self):
        """Handlers return their reports: main alone calls _emit, and no
        handler writes to a stream or returns an exit code."""
        with open(cli.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        emitters = {f.name for f in functions for node in ast.walk(f)
                    if isinstance(node, ast.Name) and node.id == "_emit"}
        assert emitters == {"main"}
        for f in functions:
            if f.name.startswith("cmd_"):
                words = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(f)}
                assert not words & {"print", "stdout", "stderr"}, f.name
                assert not [node for node in ast.walk(f) if isinstance(node, ast.Return)
                            and isinstance(node.value, ast.Constant)], f.name

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("first, second", [
        (["conn", "galois-kernel", "--D", "2", "--tau", "2", "--variant", "Kpi1"],
         ["conn", "galois-kernel", "--D", "2"]),
        (["conn", "strat", "--D", "2", "--a", "log"], ["conn", "strat", "--D", "2"]),
        (["conn", "cohomology", "--bases"], ["conn", "cohomology"]),
    ])
    def test_no_state_between_calls(self, first, second, q3):
        conn_json = canonical_json(encode_connection(constant_conn(q3, 1, [[2]])))
        together = [run_cli_stderr(argv, conn_json) for argv in (first, second)]
        alone = []
        for argv in (first, second):
            build_parser.cache_clear()
            alone.append(run_cli_stderr(argv, conn_json))
        assert together == alone
        assert together[0][0] == 0 and together[0][1] != together[1][1]


# a valid argv of each leaf; the dispatch tests stub the handlers, so no
# file is read
LEAF_ARGVS = (
    ["field", "check", "f.json"],
    ["conn", "new", "-"],
    ["conn", "tensor", "a.json", "b.json"],
    ["conn", "dual"],
    ["conn", "twist", "--n", "2", "-"],
    ["conn", "change-unif", "--lambda-F", "1"],
    ["conn", "strat", "--D", "2", "--a", "log", "-"],
    ["conn", "cohomology", "--bases"],
    ["conn", "classify", "c.json"],
    ["conn", "nilpotent", "--a", "prism"],
    ["conn", "galois-kernel", "--D", "3", "--tau", "1", "--variant", "Kpi1"],
    ["conn", "converges", "--v0", "1/2", "k.json"],
    ["strat", "check-cocycle"],
    ["strat", "to-conn", "-"],
    ["verify", "key-lemma", "--n-max", "2"],
    ["examples", "bk-twist", "--n", "-1", "--m", "3", "--field", "f.json"],
)
# tokens the differential test inserts: help, the end of options, a
# negative number, unknown flags and flag prefixes, values and names
MUTATION_TOKENS = ("-h", "--help", "--", "-1", "-.5", "-x", "--bogus", "--lam", "--D", "--n", "--a",
                   "--ba", "--v", "--ta", "--field", "-", "2", "conn", "strat", "field",
                   "check", "new", "twist", "frobnicate")
HANDLERS = tuple(name for name in vars(cli) if name.startswith("cmd_"))


def whole_tree_main(argv):
    """main's dispatch by one parse of argv through the whole parser tree,
    argparse recursing into a subparser per level: the reference."""
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "op", None) is None:
            raise InputFormatError(f"missing subcommand of {args.group}; "
                                   f"prismlab {args.group} -h lists them" if args.group
                                   else "missing command; prismlab -h lists them")
        report = getattr(cli, f"cmd_{args.group}_{args.op}".replace("-", "_"))(args)
        sys.stdout.write(canonical_json(report) + "\n")
        return 1 if report.get("status") == "fail" else 0
    except InputFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def dispatch_outcome(run, argv):
    """(exit code, stdout, stderr, the namespaces handed to a handler) of
    run(argv), with every cmd_* handler stubbed to record its namespace."""
    seen = []
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in HANDLERS:
            mp.setattr(cli, name, lambda args: seen.append(dict(vars(args))) or {})
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(list(argv))
            except SystemExit as exc:  # --help
                code = exc.code
    return code, out.getvalue(), err.getvalue(), seen


def expected_dispatch(argv):
    """The reference's outcome, except where it reports argparse's invalid
    choice for a leading name that is no command: main's own line then.
    Such a name is a token argparse reads as a positional: one that does
    not start with "-", or a negative number."""
    reference = dispatch_outcome(whole_tree_main, argv)
    bad = re.match(r"error: argument (group|op): invalid choice: (.*?) \(choose from ",
                   reference[2])
    if bad is None:
        return reference
    # the name argparse refused is argv[0] (group) or argv[1] after a group
    at = 0 if bad[1] == "group" else 1
    name = argv[at]
    if (repr(name) != bad[2]
            or name.startswith("-") and not build_parser()._negative_number_matcher.match(name)
            or (at and argv[0] not in build_parser().commands)):
        return reference
    line = (f"error: unknown subcommand {argv[1]!r} of {argv[0]}; "
            f"prismlab {argv[0]} -h lists them\n" if at
            else f"error: unknown command {argv[0]!r}; prismlab -h lists them\n")
    return 2, "", line, []


@st.composite
def mutated_argvs(draw):
    """A leaf's valid argv after one to three token inserts, deletes or swaps."""
    argv = list(draw(st.sampled_from(LEAF_ARGVS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("insert", "delete", "swap")))
        i = draw(st.integers(0, len(argv)))
        if kind == "insert":
            argv.insert(i, draw(st.sampled_from(MUTATION_TOKENS)))
        elif argv:
            i %= len(argv)
            if kind == "delete":
                del argv[i]
            else:
                j = draw(st.integers(0, len(argv) - 1))
                argv[i], argv[j] = argv[j], argv[i]
    return argv


class TestDispatch:
    """main walks argv's leading subcommand names down the tree and parses
    the rest once, with the parser it reached."""

    def assert_like_whole_tree(self, argv):
        got = dispatch_outcome(cli_main, argv)
        assert got == expected_dispatch(argv), argv
        code, out, err, _ = got
        assert code in (0, 2), argv
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
            assert "Traceback" not in err

    def test_leaf_argvs_cover_the_tree(self):
        tree = build_parser().commands
        assert ({tuple(argv[:2]) for argv in LEAF_ARGVS}
                == {(group, op) for group, sub in tree.items() for op in sub.commands})

    @pytest.mark.parametrize("argv", [
        *LEAF_ARGVS, [], ["-h"], ["conn"], ["conn", "-h"], ["frobnicate"],
        ["conn", "frobnicate"], ["frobnicate", "-h"], ["conn", "-1"], ["-1"], ["-1.5"],
        ["conn", "-.5"], ["-x"], ["conn", "--bogus"], ["-"], ["--", "conn"],
        ["conn", "--", "strat"], ["--bogus", "conn", "conn"], ["conn", "strat", "--he"],
    ], ids=" ".join)
    def test_fixed_argvs(self, argv):
        self.assert_like_whole_tree(argv)

    @settings(max_examples=250, deadline=None)
    @given(mutated_argvs())
    def test_mutated_argvs(self, argv):
        self.assert_like_whole_tree(argv)

    @pytest.mark.parametrize("token", ["-1", "-12", "-1.5", "-.5", "-1.", "-1e3", "-1_0",
                                       "-", "--", "--1", "-x", "- 1", "-1\n"])
    def test_negative_number_rule_is_argparses(self, token):
        matcher = build_parser()._negative_number_matcher
        assert bool(cli._NEGATIVE_NUMBER.match(token)) == bool(matcher.match(token))

    def test_one_parse_per_call(self, monkeypatch, q3):
        conn_json = canonical_json(encode_connection(constant_conn(q3, 1, [[2]])))
        calls = count_calls(monkeypatch, [(argparse.ArgumentParser, "_parse_known_args")])
        assert run_cli(["conn", "strat", "--D", "2", "-"], conn_json)[0] == 0
        assert calls == {"_parse_known_args": 1}


# the leaves whose report may fail a mathematical check (exit 1)
FAILING_LEAVES = {("strat", "check-cocycle"), ("strat", "to-conn"), ("verify", "key-lemma")}
# values the input fuzz puts in place of a node; HUGE_LITERAL stands for an
# integer literal over the interpreter's digit limit
HUGE_LITERAL = "<integer literal over the digit limit>"
# an array nested past the recursion limit, and the raw byte 0xff
DEEP = "<array nested 100,000 deep>"
BAD_BYTE = "<byte that is not UTF-8>"
SWAPS = ({}, [], [[]], "", "x", "1/0", 0, -1, None)
FLOATS = (1.5, 1.0, -0.0, 1e308, float("nan"), float("inf"), float("-inf"))
HUGE = (2 ** 64, 10 ** 200, -10 ** 200, HUGE_LITERAL)


@pytest.fixture(scope="module")
def json_leaves(tmp_path_factory, q3):
    """(argv, a valid input read from standard input) for every leaf; conn
    tensor and conn change-unif --y read their other input from a file."""
    M = constant_conn(q3, 2, [[0, 2], [1, 0]])
    field = encode_field(q3)
    conn = encode_connection(M)
    short = {"field": field, "l": 2, "m": 2, "N": [[0, [2, "1/3"]], [1, 0]]}
    strat = encode_stratification(from_connection(M, q3.a_prism(), 3))
    kernel = encode_kernel(action_kernel(constant_conn(q3, 1, [[Fraction(1, 3)]]),
                                         q3.a_prism(), 2))
    path = tmp_path_factory.mktemp("fuzz") / "conn.json"
    path.write_text(canonical_json(conn))
    return (
        (["field", "check"], field), (["field", "check", "-"], {"field": field}),
        (["conn", "new"], short), (["conn", "new", "-"], conn),
        (["conn", "tensor", str(path)], short), (["conn", "dual"], conn),
        (["conn", "twist", "--n", "1"], short),
        (["conn", "change-unif", "--lambda-F", "1"],
         encode_connection(constant_conn(q3, 2, [[0, 2], [1, 0]], unif="u-pi"))),
        (["conn", "change-unif", "--y", "-", str(path)],
         {"unif": "T", "m": 2, "coeffs": [[0], [1]]}),
        (["conn", "strat", "--D", "2"], short), (["conn", "cohomology", "--bases"], conn),
        (["conn", "classify"], short), (["conn", "nilpotent"], conn),
        (["conn", "galois-kernel", "--D", "2"], short),
        (["conn", "converges", "--v0", "1/2"], kernel),
        (["strat", "check-cocycle"], strat), (["strat", "to-conn"], strat),
        (["verify", "key-lemma", "--n-max", "1"], strat),
        (["examples", "bk-twist", "--n", "1", "--m", "2", "--field", "-"], field),
    )


def _nodes(obj, path=()):
    """The path of every node of a JSON value, the root's () first."""
    yield path
    items = (obj.items() if isinstance(obj, dict) else enumerate(obj)
             if isinstance(obj, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _replaced(obj, path, value):
    """A copy of obj with the node at path replaced by value."""
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


def mutated(obj, pick):
    """obj after one mutation, each choice made by pick(options): a key
    dropped, a node of another type or a float, a node nested too deeply or
    holding a byte that is not UTF-8, a boolean or huge number for an
    integer, or a list made ragged by dropping or repeating an element."""
    paths = list(_nodes(obj))

    def where(test):
        return [p for p in paths if test(_at(obj, p))]
    ints = where(lambda x: type(x) is int)
    targets = {"swap": paths, "float": paths, "deep": paths, "byte": paths,
               "bool": ints, "huge": ints,
               "drop": where(lambda x: isinstance(x, dict) and x),
               "ragged": where(lambda x: isinstance(x, list) and x)}
    kind = pick([kind for kind, found in targets.items() if found])
    path = pick(targets[kind])
    values = {"swap": SWAPS, "float": FLOATS, "deep": (DEEP,), "byte": (BAD_BYTE,),
              "bool": (True, False), "huge": HUGE}
    if kind in values:
        return _replaced(obj, path, pick(values[kind]))
    node = _at(obj, path)
    if kind == "drop":
        key = pick(sorted(node))
        return _replaced(obj, path, {k: v for k, v in node.items() if k != key})
    i = pick(range(len(node)))
    return _replaced(obj, path, node[:i] + node[i + 1:] if pick((True, False))
                     else node + [node[i]])


def input_text(obj):
    """obj as JSON text; floats, NaN and infinities appear as raw text, and
    the bad byte as the surrogate escape that stdin_of reads as 0xff."""
    return (json.dumps(obj).replace(json.dumps(HUGE_LITERAL), "9" * 4400)
            .replace(json.dumps(DEEP), DEEP_NEST).replace(json.dumps(BAD_BYTE), "\udcff"))


def assert_input_contract(argv, code, out, err):
    """Bad input is exit 2, one error: line and nothing on stdout; else one
    report, which fails (exit 1) only where a mathematical check runs."""
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        assert err.endswith("\n"), argv
        return
    assert err == "" and out.count("\n") == 1 and out.endswith("\n"), argv
    failed = json.loads(out).get("status") == "fail"
    assert code == (1 if failed else 0), argv
    assert not failed or tuple(argv[:2]) in FAILING_LEAVES, argv


# runs each [argv, text] case of standard input through cli.main, in one
# process, and prints the [exit code, stdout, stderr] of each
CASES_SCRIPT = """
import io, json, sys
from prismlab import cli
outcomes = []
for argv, text in json.load(sys.stdin):
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8", "surrogateescape")),
                                 encoding="utf-8", newline="")
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    code = cli.main(argv)
    outcomes.append([code, sys.stdout.getvalue(), sys.stderr.getvalue()])
sys.__stdout__.write(json.dumps(outcomes))
"""


class TestInputFuzz:
    """Mutated JSON inputs: exit 2 with one error: line, or a report whose
    status decides between exit 1 and 0; never a traceback."""

    def test_leaves_cover_the_tree(self, json_leaves):
        tree = build_parser().commands
        assert ({tuple(argv[:2]) for argv, _ in json_leaves}
                == {(group, op) for group, sub in tree.items() for op in sub.commands})

    def test_valid_inputs_pass(self, json_leaves):
        for argv, obj in json_leaves:
            code, out, err = run_cli_stderr(argv, input_text(obj))
            assert (code, err) == (0, ""), argv

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_inputs(self, json_leaves, data):
        argv, obj = data.draw(st.sampled_from(json_leaves))
        for _ in range(data.draw(st.integers(1, 2))):
            obj = mutated(obj, lambda options: data.draw(st.sampled_from(options)))
        assert_input_contract(argv, *run_cli_stderr(argv, input_text(obj)))

    def test_fixed_sample_optimized(self, json_leaves):
        """A fixed sample gives the same outcomes under python -O."""
        rng = random.Random(20261019)
        cases = []
        for argv, obj in json_leaves * 12:
            for _ in range(rng.randint(1, 2)):
                obj = mutated(obj, rng.choice)
            cases.append([argv, input_text(obj)])
        proc = run_python(["-O", "-c", CASES_SCRIPT], json.dumps(cases))
        assert (proc.returncode, proc.stderr) == (0, b"")
        for (argv, text), got in zip(cases, json.loads(proc.stdout), strict=True):
            assert got == list(run_cli_stderr(argv, text)), argv
            assert_input_contract(argv, *got)


class TestSession:
    """Reading a JSON input file: duplicate keys are refused, not overwritten."""

    def test_duplicate_name_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"p":3,"E":[-3,1],"p":3}')
        with pytest.raises(InputFormatError):
            _read_json(str(path))
        code, out = run_cli(["field", "check", str(path)])
        assert code == 2 and out == ""


class TestBadFlags:
    @pytest.mark.parametrize("name", BAD_FLAGS)
    def test_bad_numeric_flag_exits_two(self, name, q3_field_file, q3):
        argv, stdin_text = bad_flag_input(name, q3_field_file, q3)
        code, out, err = run_cli_stderr(argv, stdin_text=stdin_text)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        # the line names the flag it refuses
        assert any(flag in err for flag in argv if flag.startswith("--")), err


class TestOptimizedMode:
    """Checks that carry correctness are not asserts: under python -O the
    CLI gives the same exit codes and stdout bytes as a normal run."""

    def both(self, argv, stdin_text=""):
        normal = run_module([], argv, stdin_text)
        optimized = run_module(["-O"], argv, stdin_text)
        assert (optimized.returncode, optimized.stdout) == (normal.returncode, normal.stdout)
        return normal

    def test_bad_flags(self, q3_field_file, q3):
        for name in BAD_FLAGS:
            proc = self.both(*bad_flag_input(name, q3_field_file, q3))
            assert proc.returncode == 2 and proc.stdout == b""
            assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1

    def test_dispatch(self, q3):
        """Help, the unknown-command lines and a leaf command: the walk
        down the command tree runs no assert-guarded code."""
        conn_json = canonical_json(encode_connection(constant_conn(q3, 1, [[2]])))
        for argv, stdin_text, code in ((["conn", "strat", "-h"], "", 0),
                                       (["conn", "frobnicate"], "", 2),
                                       (["frobnicate"], "", 2), (["conn", "-1"], "", 2),
                                       (["conn", "strat", "--D", "2"], conn_json, 0)):
            proc = self.both(argv, stdin_text)
            assert proc.returncode == code
            if tuple(argv) in UNKNOWN_COMMANDS:
                assert proc.stderr == UNKNOWN_COMMANDS[tuple(argv)].encode()

    def test_huge_integer_literal(self):
        proc = self.both(["field", "check"], HUGE_LITERAL_FIELD)
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1

    def test_kernel_without_identity_slot(self, q3):
        obj = encode_kernel(action_kernel(constant_conn(q3, 1, [[2]]), q3.a_prism(), 2))
        obj["A"][0] = [[[0]]]
        # and a kernel whose A_3 breaks A_(n+1) = (A_1 - n*a) A_n
        broken = encode_kernel(action_kernel(constant_conn(q3, 1, [[Fraction(1, 3)]]),
                                             q3.a_prism(), 3))
        broken["A"][3] = [[["1/59049"]]]
        for kernel, v0 in ((obj, "1/2"), (broken, "2")):
            proc = self.both(["conn", "converges", "--v0", v0], canonical_json(kernel))
            assert proc.returncode == 2 and proc.stdout == b""
            assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1

    def test_to_conn_family_off_recurrence(self, rng, q3):
        st = from_connection(random_connection(rng, q3, 1, 2), q3.a_prism(), 3)
        obj = encode_stratification(st)
        obj["phi"][2][0][0] = [7]
        proc = self.both(["strat", "to-conn"], canonical_json(obj))
        assert proc.returncode == 1 and json.loads(proc.stdout)["status"] == "fail"

    def test_key_lemma(self, rng, q3):
        """A passing family and one whose phi_2 is phi_1 squared: the key
        lemma runs no assert-guarded code."""
        st = from_connection(random_connection(rng, q3, 1, 2), q3.a_prism(), 4)
        bad = st.perturbed(2, st.phi[1] * st.phi[1] - st.phi[2])
        for strat, code in ((st, 0), (bad, 1)):
            proc = self.both(["verify", "key-lemma", "--n-max", "2"],
                             canonical_json(encode_stratification(strat)))
            assert proc.returncode == code

    def test_check_cocycle_failures(self, rng, q3):
        """A family first off at a generator column (expanded) and one first
        off at a column c >= l (closed form) both exit 1."""
        st = from_connection(random_connection(rng, q3, 1, 2), q3.a_prism(), 3)
        for col in (0, 1):
            obj = encode_stratification(st)
            obj["phi"][2][1][col] = [7]
            proc = self.both(["strat", "check-cocycle"], canonical_json(obj))
            assert proc.returncode == 1
            assert json.loads(proc.stdout)["witness"]["generator"] == col

    def test_constructor_and_trace_errors(self):
        """The constructor and trace checks raise under python -O too."""
        script = """
from prismlab.errors import InputFormatError
from prismlab.field import FieldSpec
from prismlab.linalg import Matrix
from prismlab.strat import LogConnection, Stratification, from_connection
q3 = FieldSpec(3, [-3, 1])
cases = [
    (lambda: Stratification(q3, 1, 1, -1, 1, []), InputFormatError),
    (lambda: from_connection(LogConnection.trivial(q3, 1, 1), 1, -1), InputFormatError),
    (lambda: LogConnection(q3, "T", 0, 1, []), InputFormatError),
    (lambda: Matrix(q3, [[1, 2, 3], [4, 5, 6]]).trace(), ValueError),
    (lambda: Matrix(q3, [[1, 2, 3], [4, 5, 6]]).charpoly(), ValueError),
]
print(__debug__)
for build, error in cases:
    try:
        build()
        print("accepted")
    except error:
        print("raised")
"""
        proc = run_python(["-O", "-c", script])
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.split() == [b"False"] + [b"raised"] * 5

    def test_series_errors(self):
        """The series checks raise under python -O too; a negative power
        raises instead of looping, which the timeout would catch."""
        script = """
from prismlab.errors import InputFormatError, NotAUniformizer, RingMismatch
from prismlab.field import FieldSpec
from prismlab.series import TruncSeries
q3, q3s = FieldSpec(3, [-3, 1]), FieldSpec(3, [-3, 0, 1])
f = TruncSeries(q3, 3, [1, 2, 3])
t = TruncSeries(q3, 3, [0, 1])
cases = [
    (lambda: f + TruncSeries(q3, 2, [1, 1]), RingMismatch),
    (lambda: f + TruncSeries(q3s, 3, [1, 1]), RingMismatch),
    (lambda: f * TruncSeries(q3, 2, [1, 1]), RingMismatch),
    (lambda: f * TruncSeries(q3s, 3, [1, 1]), RingMismatch),
    (lambda: f.compose(TruncSeries(q3, 2, [0, 1])), RingMismatch),
    (lambda: t.compose(f), NotAUniformizer),
    (lambda: f.shift_down(), NotAUniformizer),
    (lambda: TruncSeries(q3, 0, []), InputFormatError),
    (lambda: f.truncate(5), InputFormatError),
    (lambda: f.truncate(0), InputFormatError),
    (lambda: f ** -1, InputFormatError),
]
print(__debug__)
for build, error in cases:
    try:
        build()
        print("accepted")
    except error:
        print("raised")
"""
        proc = run_python(["-O", "-c", script], timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.split() == [b"False"] + [b"raised"] * 11

    def test_readme_pipeline(self, tmp_path, field_file):
        assert self.both(["field", "check", field_file]).returncode == 0
        conn = {"field": {"p": 3, "E": [-3, 0, 1]}, "l": 2, "m": 2,
                "N": [[3, 0], [1, [[0, -2]]]]}
        path = tmp_path / "conn.json"
        path.write_text(json.dumps(conn))
        new = self.both(["conn", "new", str(path)])
        assert new.returncode == 0
        strat = self.both(["conn", "strat", "--D", "4", "-"], new.stdout.decode())
        assert strat.returncode == 0
        back = self.both(["strat", "to-conn", "-"], strat.stdout.decode())
        assert back.returncode == 0 and back.stdout == new.stdout


class TestDeterminism:
    def test_identical_bytes_across_runs(self, rng, q3):
        M = random_connection(rng, q3, 2, 2)
        conn_json = canonical_json(encode_connection(M))
        a = run_cli(["conn", "strat", "--D", "4"], stdin_text=conn_json)
        b = run_cli(["conn", "strat", "--D", "4"], stdin_text=conn_json)
        assert a == b and a[0] == 0
