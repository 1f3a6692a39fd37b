"""The four workloads: library objects built from generated inputs, the call
under test for each job, and the oracle that checks its result.

A job is timed around ``call()`` only. ``check(result)`` returns an outcome
and a plain-data digest of the result (tuples of Fractions, strings, bytes),
read through attributes so that checking never calls into the library.
"""
from __future__ import annotations

import importlib
import io
import json
import os
import sys

import gen

OK, WRONG, ERROR, UNKNOWN = "ok", "wrong", "error", "unknown"
WORKLOADS = ("roundtrip", "cocycle", "verdicts", "cli")
# Blocks per workload: at least 100 jobs, so ten lie beyond the p90, and a
# pass over them takes a few seconds. The traced pass runs TRACE_BLOCKS.
BLOCKS = {"roundtrip": 3, "cocycle": 10, "verdicts": 12, "cli": 48}
TRACE_BLOCKS = {"roundtrip": 1, "cocycle": 2, "verdicts": 1, "cli": 6}


class LibraryMissing(RuntimeError):
    """The checkout has no prismlab sources under src/."""


class Lib:
    """The prismlab modules of one fresh import."""

    MODULES = ("field", "series", "linalg", "pdalg", "strat", "connops", "galois",
               "serialize", "cli")

    def __init__(self, src):
        for name in [k for k in sys.modules if k == "prismlab" or k.startswith("prismlab.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        if src not in sys.path:
            sys.path.insert(0, src)
        try:
            pkg = importlib.import_module("prismlab")
        except ImportError as exc:
            raise LibraryMissing(f"cannot import prismlab from {src}: {exc}") from exc
        where = os.path.dirname(os.path.abspath(pkg.__file__ or ""))
        if os.path.dirname(where) != os.path.abspath(src):
            raise LibraryMissing(f"prismlab was imported from {where}, not from {src}")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"prismlab.{name}"))
        self._specs = {}

    def spec(self, f):
        if f.index not in self._specs:
            self._specs[f.index] = self.field.FieldSpec(f.p, list(f.E))
        return self._specs[f.index]

    def conn(self, c):
        spec = self.spec(c.field)
        series = self.series.TruncSeries
        N = [[series(spec, c.m, [spec.element(x) for x in s], c.unif) for s in row]
             for row in c.N]
        return self.strat.LogConnection(spec, c.unif, c.l, c.m, N)

    def scalar(self, f, a):
        spec = self.spec(f)
        if a == "prism":
            return spec.a_prism()
        if a == "log":
            return spec.a_log()
        return spec.from_rational(a)


class Job:
    __slots__ = ("call", "check", "verdict")

    def __init__(self, call, check, verdict=False):
        self.call, self.check, self.verdict = call, check, verdict


def plain_conn(M):
    return (M.unif, M.l, M.m, tuple(tuple(tuple(tuple(x.coords) for x in s.coeffs)
                                          for s in row) for row in M.N))


def plain_of(c):
    return (c.unif, c.l, c.m, c.N)


# --- roundtrip ---------------------------------------------------------------

def roundtrip_job(lib, spec):
    M = lib.conn(spec["conn"])
    a = lib.scalar(spec["conn"].field, spec["a"])
    D = spec["D"]
    expect = plain_of(spec["conn"])
    strat = lib.strat

    def call():
        return strat.to_connection(strat.from_connection(M, a, D))

    def check(back):
        got = plain_conn(back)
        return (OK if got == expect else WRONG), got
    return Job(call, check)


# --- cocycle -----------------------------------------------------------------

def cocycle_job(lib, spec):
    c = spec["conn"]
    st = lib.strat.from_connection(lib.conn(c), lib.scalar(c.field, "prism"), spec["D"])
    if spec["perturb"] is not None:
        r, col, val = spec["perturb"]
        size = c.l * c.m
        rows = [[0] * size for _ in range(size)]
        rows[r][col] = val
        st = st.perturbed(2, lib.linalg.Matrix(lib.spec(c.field), rows))
        expect = {"ok": False, "degeneracy_ok": True, "witness": spec["witness"]}
    else:
        expect = {"ok": True, "degeneracy_ok": True, "witness": None}
    strat = lib.strat

    def call():
        return strat.check_cocycle(st)

    def check(rep):
        return (OK if rep == expect else WRONG), repr(sorted(rep.items()))
    return Job(call, check)


# --- verdicts ----------------------------------------------------------------

NILPOTENT_ANSWER = {"ProvenNilpotent": True, "ProbeConvergent": True,
                    "ProvenNotNilpotent": False, "ProbeDivergent": False}


def verdict_job(lib, spec):
    kind = spec["kind"]
    c = spec["conn"]
    M = lib.conn(c)
    connops, galois = lib.connops, lib.galois
    if kind == "classify":
        def call():
            return connops.classify_ndR(M)

        def check(rep):
            got = (rep["status"], rep["nearly_dR"], rep["log_nearly_dR"])
            if rep["status"] == "Unknown":
                return UNKNOWN, got
            return (OK if got[1:] == spec["expect"] else WRONG), got
        return Job(call, check, verdict=True)
    if kind == "nilpotent":
        a = lib.scalar(c.field, spec["scalar"])

        def call():
            return connops.check_nilpotent(M, a)

        def check(rep):
            status = rep["status"]
            if status not in NILPOTENT_ANSWER:
                return UNKNOWN, status
            return (OK if NILPOTENT_ANSWER[status] == spec["expect"] else WRONG), status
        return Job(call, check, verdict=True)
    if kind == "cohomology":
        def call():
            return connops.cohomology(M)

        def check(rep):
            got = (rep["h0"], rep["h1"])
            return (OK if got == (spec["expect"],) * 2 else WRONG), got
        return Job(call, check)
    if kind == "converges":
        a = lib.scalar(c.field, "prism")
        g = galois.GaloisElementData(spec["v0"])
        D = spec["D"]

        def call():
            return galois.converges_at(galois.action_kernel(M, a, D), g)

        def check(rep):
            got = (rep["status"], tuple(str(t) for t in rep["trace"]))
            if len(rep["trace"]) != D + 1:
                return WRONG, got
            if rep["status"] not in ("Convergent", "Divergent"):
                return UNKNOWN, got
            return (OK if rep["status"] == spec["expect"] else WRONG), got
        return Job(call, check, verdict=True)
    # kummer: transport to lambda_F and back along the reversion
    F, spec_k, series = spec["F"], lib.spec(c.field), lib.series
    expect = plain_of(c)

    def call():
        moved = connops.kummer_sen_operator(M, F)
        lam = series.lambda_approx(spec_k, F, c.m)
        return moved.unif, connops.change_uniformizer(moved, lam.reversion().with_unif("u-pi"))

    def check(res):
        unif, back = res
        got = (unif, plain_conn(back))
        return (OK if got == (f"lambda{F}", expect) else WRONG), got
    return Job(call, check)


# --- cli ---------------------------------------------------------------------

def run_cli(main, argv, text):
    """main(argv) in-process with the standard streams swapped; returns
    (exit code, stdout bytes, stderr text). Exceptions propagate."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue().encode(), err.getvalue()


def _identity_json(size, e):
    return [[[int(i == j)] + [0] * (e - 1) for j in range(size)] for i in range(size)]


def _check_strat(out, f, D, l, m):
    obj = json.loads(out)
    size = l * m
    return (obj["field"] == f.json() and (obj["D"], obj["l"], obj["m"]) == (D, l, m)
            and obj["a"] == gen.enc_elem(gen.a_prism_coords(f))
            and len(obj["phi"]) == D + 1
            and all(len(op) == size and all(len(r) == size for r in op) for op in obj["phi"])
            and obj["phi"][0] == _identity_json(size, f.e))


def _check_kernel(out, D):
    obj = json.loads(out)
    size = len(obj["A"][0])
    e = len(obj["a"])
    return (obj["D"] == D and len(obj["A"]) == D + 1 and obj["tag"] == "prismatic"
            and obj["A"][0] == _identity_json(size, e))


def _check_verdict(name, answer, out):
    """Exact bytes for classify and converges; for nilpotent the probe's
    trace has no closed form, so only its verdict is compared."""
    if name != "nilpotent" and out == answer:
        return OK
    status = json.loads(out).get("status")
    if status == "Unknown":
        return UNKNOWN
    if name == "nilpotent" and status in NILPOTENT_ANSWER:
        exact = status.startswith("Probe") or out == gen.canon({"status": status})
        return OK if exact and NILPOTENT_ANSWER[status] == answer else WRONG
    return WRONG


def cli_check(expect, res):
    code, out, err = res
    kind = expect[0]
    if kind == "reject":
        ok = code == 2 and out == b"" and err.count("\n") == 1 and err.endswith("\n")
        return (OK if ok else ERROR), res[:2]
    if code != 0:
        return ERROR, res[:2]
    if kind == "bytes":
        return (OK if out == expect[1] else WRONG), res[:2]
    if kind == "verdict":
        return _check_verdict(expect[1], expect[2], out), res[:2]
    try:
        good = _check_strat(out, *expect[1:]) if kind == "strat" else _check_kernel(out, *expect[1:])
    except (ValueError, KeyError, IndexError, TypeError):
        good = False
    return (OK if good else WRONG), res[:2]


def cli_jobs(lib, block, workdir, tag):
    """Jobs of one pipeline block; each stores its stdout for later jobs."""
    outputs = {}
    jobs = []
    cli = lib.cli
    for idx, spec in enumerate(block):
        argv = list(spec["argv"])
        if "file" in spec:
            path = os.path.join(workdir, f"{tag}-{idx}.json")
            with open(path, "wb") as fh:
                fh.write(spec["file"])
            argv[argv.index(None)] = path
        source, arg = spec["stdin"]
        expect = spec["expect"]

        def call(idx=idx, argv=argv, source=source, arg=arg):
            outputs[idx] = b""
            text = arg if source == "text" else outputs.get(arg, b"").decode()
            res = run_cli(cli.main, argv, text)
            outputs[idx] = res[1]
            return res

        def check(res, expect=expect):
            return cli_check(expect, res)
        jobs.append(Job(call, check, verdict=expect[0] == "verdict"))
    return jobs


# --- assembly ----------------------------------------------------------------

def specs(workload, seed, nblocks=None):
    nblocks = nblocks or BLOCKS[workload]
    return {"roundtrip": gen.roundtrip_blocks, "cocycle": gen.cocycle_blocks,
            "verdicts": gen.verdict_blocks, "cli": gen.cli_blocks}[workload](seed, nblocks)


def build_jobs(lib, workload, blocks, workdir):
    jobs = []
    for b, block in enumerate(blocks):
        if workload == "cli":
            jobs.extend(cli_jobs(lib, block, workdir, f"b{b}"))
            continue
        make = {"roundtrip": roundtrip_job, "cocycle": cocycle_job,
                "verdicts": verdict_job}[workload]
        jobs.extend(make(lib, spec) for spec in block)
    return jobs
