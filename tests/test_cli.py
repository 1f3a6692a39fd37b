"""Command line behaviour: pipelines, exit codes, deterministic bytes."""
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from prismlab.cli import _read_json, main as cli_main
from prismlab.errors import InputFormatError
from prismlab.galois import action_kernel
from prismlab.serialize import (canonical_json, encode_connection, encode_element,
                                encode_field, encode_kernel, encode_rational,
                                encode_stratification, parse_connection)
from prismlab.series import TruncSeries
from prismlab.strat import LogConnection, from_connection

from conftest import random_element, random_rational
from test_connops import constant_conn
from test_strat import random_connection


def run_cli(argv, stdin_text=""):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse usage errors
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
    "bk-twist-m": (["examples", "bk-twist", "--n", "1", "--m", "0", "--field"], "T"),
    "key-lemma-n-max": (["verify", "key-lemma", "--n-max", "-1"], "strat"),
    "change-unif-lambda-F": (["conn", "change-unif", "--lambda-F", "-1"], "u-pi"),
}


HUGE_LITERAL_FIELD = '{"p":' + "1" * 4301 + ',"E":[-3,1]}'


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


def run_module(flags, argv, stdin_text=""):
    """python [flags] -m prismlab.cli argv in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *flags, "-m", "prismlab.cli", *argv],
                          input=stdin_text.encode(), capture_output=True, env=env)


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
        proc = subprocess.run(shell, shell=True, capture_output=True, text=True)
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
        M = constant_conn(q3, 3, [[1]])
        y = tmp_path / "y.json"
        y.write_text('{"unif":"y","m":3,"coeffs":[[0],[0],[1]]}')
        code, _ = run_cli(["conn", "change-unif", "--y", str(y)],
                          stdin_text=canonical_json(encode_connection(M)))
        assert code == 2

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

    def test_tau_kernel_metadata(self, q3):
        M = constant_conn(q3, 1, [[1]])
        code, out = run_cli(
            ["conn", "galois-kernel", "--tau", "1", "--variant", "Kpi1", "--D", "2"],
            stdin_text=canonical_json(encode_connection(M)))
        assert code == 0
        assert json.loads(out)["c"] == 6


class TestFailurePaths:
    def test_cocycle_violation_exits_one(self, rng, q3):
        M = random_connection(rng, q3, 2, 2)
        st = from_connection(M, q3.a_prism(), 4)
        rows = [[0] * 4 for _ in range(4)]
        rows[1][2] = 1
        from prismlab.linalg import Matrix
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

    def test_unknown_subcommand_exits_two(self):
        code, _ = run_cli(["conn", "frobnicate"])
        assert code == 2
        code, _ = run_cli(["conn"])
        assert code == 2


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
