"""Seeded benchmark of prismlab: four workloads, oracle-checked, closed loop.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: each job starts when the previous one
returns, cycling through the workload's fixed job list until --seconds have
passed and every job ran at least MIN_PASSES times. Each latency is
calibrated against a reference timed beside it (calib.py), because this
host's speed drifts by tens of percent over seconds. Each time metric is
computed over one complete pass, and the median over the passes is
reported. The last line of stdout is
one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones of a traced
pass (see layertrace.py and README.md).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import gen  # noqa: E402
import calib  # noqa: E402
import workloads as wl  # noqa: E402
from layertrace import Tracer  # noqa: E402

MIN_PASSES = 2
MAX_TRIES = 4
# Set-up is repeated at least SETUP_REPS times and for SETUP_MIN_S seconds
# (at most SETUP_MAX_REPS times); setup_s is the median.
SETUP_REPS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 40
SPAWNS = 5
CHECK_ERRORS = (ValueError, KeyError, TypeError, IndexError, AttributeError)


def setup(workload, seed, workdir, nblocks=None):
    """Fresh import of prismlab, input generation and library objects.

    Returns (lib, jobs, seconds). Each call re-imports the library, so
    repeated calls measure the same work.
    """
    t0 = time.perf_counter()
    lib = wl.Lib(SRC)
    jobs = wl.build_jobs(lib, workload, wl.specs(workload, seed, nblocks), workdir)
    return lib, jobs, time.perf_counter() - t0


class Tally:
    """Latencies and oracle outcomes of the runs of a job list, by job index.

    Failed, verdict and Unknown jobs are kept as sets of job indices, so the
    result line's counts depend on the job list alone and not on how many
    passes fitted in the run; a job that failed in any of its runs counts as
    failed."""

    def __init__(self):
        self.latencies = {}
        self.raw = {}
        self.outcomes = Counter()
        self.failed_jobs = set()
        self.verdict_jobs = set()
        self.unknown_jobs = set()
        self.digests = []
        self.errors = Counter()
        self.retries = 0

    def add(self, j, raw, lat, status, verdict):
        self.raw.setdefault(j, []).append(raw)
        self.latencies.setdefault(j, []).append(lat)
        self.outcomes[status] += 1
        if status in (wl.ERROR, wl.WRONG):
            self.failed_jobs.add(j)
        if verdict:
            self.verdict_jobs.add(j)
            if status == wl.UNKNOWN:
                self.unknown_jobs.add(j)

    @property
    def total_s(self):
        return sum(sum(v) for v in self.latencies.values())


def run_once(job):
    """One timed call of ``job`` and its oracle check: (seconds, status,
    digest, name of the exception raised or None)."""
    t0 = time.perf_counter()
    try:
        result = job.call()
    except Exception as exc:  # a failing job is recorded, not fatal
        raw = time.perf_counter() - t0
        return raw, wl.ERROR, f"{type(exc).__name__}: {exc}", type(exc).__name__
    raw = time.perf_counter() - t0
    try:
        status, digest = job.check(result)
    except CHECK_ERRORS as exc:
        status, digest = wl.WRONG, f"unreadable result: {exc!r}"
    return raw, status, digest, None


def run_jobs(jobs, seconds=None, count=None, tracer=None, keep=False, calibrated=False):
    """Closed loop over ``jobs`` (wrapping around): ``count`` jobs exactly, or
    until ``seconds`` have passed and MIN_PASSES passes are complete.

    With ``calibrated``, the reference is timed between jobs and every
    latency is calibrated by the timings on either side of it (calib.py).
    When those two disagree, the host changed speed around the job and the
    calibration cannot be trusted, so the job runs again, up to MAX_TRIES
    times; the last try is kept."""
    tally = Tally()
    deadline = time.perf_counter() + (seconds or 0)
    n = len(jobs)
    ref = calib.reference() if calibrated else None
    i = 0
    while True:
        j = i % n
        job = jobs[j]
        if tracer is not None:
            tracer.job = i
        for tries in range(1, (MAX_TRIES if calibrated else 1) + 1):
            raw, status, digest, error = run_once(job)
            lat = raw
            if calibrated:
                before, ref = ref, calib.reference()
                lat = calib.calibrate(raw, before, ref)
                if calib.steady(before, ref):
                    break
        tally.retries += tries - 1
        if error:
            tally.errors[error] += 1
        tally.add(j, raw, lat, status, job.verdict)
        if keep:
            tally.digests.append(digest)
        i += 1
        if count is not None:
            if i >= count:
                return tally
        elif i >= MIN_PASSES * n and time.perf_counter() >= deadline:
            return tally


def passes(runs):
    """The latencies of each complete pass over the job list: pass k holds
    every job's k-th run. A pass the deadline cut short is left out."""
    k = min(map(len, runs.values()))
    return [[v[i] for v in runs.values()] for i in range(k)]


def end_to_end(tally, setup_times):
    """Each time is computed over one complete pass, and the median over the
    run's passes is reported: a run that is slow for one job in one pass
    moves one pass's figure, not the median."""
    per_pass = passes(tally.latencies)
    n = len(per_pass[0])
    verdicts = len(tally.verdict_jobs)

    def median_of(f):
        return statistics.median(f(lat) for lat in per_pass)
    return {
        "jobs_per_s": (median_of(lambda lat: n / sum(lat)), "1/s"),
        "job_p50_ms": (median_of(statistics.median) * 1e3, "ms"),
        "job_p90_ms": (median_of(lambda lat: statistics.quantiles(lat, n=10)[8]) * 1e3, "ms"),
        "ok_frac": (1 - len(tally.failed_jobs) / n, "frac"),
        "decided_frac": (1 - len(tally.unknown_jobs) / verdicts if verdicts else 1.0,
                         "frac"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def spawn_ms(field_text):
    """Median wall time of `python -m prismlab.cli field check -` in a fresh
    interpreter: the start-up every shell-pipeline user pays."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "prismlab.cli", "field", "check", "-"],
                              input=field_text, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=60, check=False)
        times.append((time.perf_counter() - t0) * 1e3)
        if proc.returncode != 0:
            raise RuntimeError(f"spawned cli failed: {proc.stderr.strip()}")
    return statistics.median(times)


def per_layer(tr, plain, traced, spawn):
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("field.mul_calls", tr.calls_of("field.FieldElement.__mul__"), "count")
    put("field.add_calls", tr.calls_of("field.FieldElement.__add__"), "count")
    put("field.invert_calls", tr.calls_of("field.FieldElement.invert"), "count")
    put("field.self_s", tr.layer_self("field"), "s")
    c = tr.counts
    put("linalg.matmul_calls", c["matmul_calls"], "count")
    put("linalg.matmul_scalar_products", c["matmul_products"], "count")
    put("linalg.matmul_zero_frac",
        c["matmul_zero_products"] / c["matmul_products"] if c["matmul_products"] else 0.0,
        "frac")
    put("linalg.rref_calls", tr.calls_of("linalg.Matrix.rref"), "count")
    put("linalg.charpoly_calls", tr.calls_of("linalg.Matrix.charpoly"), "count")
    put("linalg.self_s", tr.layer_self("linalg"), "s")
    put("pdalg.mul_calls", c["pd_mul_calls"], "count")
    put("pdalg.mul_term_pairs", c["pd_term_pairs"], "count")
    put("pdalg.face_calls", tr.calls_of("pdalg.face"), "count")
    put("pdalg.self_s", tr.layer_self("pdalg"), "s")
    for name in ("from_connection", "to_connection", "check_leibniz", "check_cocycle"):
        put(f"strat.{name}_s", tr.incl_of(f"strat.{name}"), "s")
    put("strat.self_s", tr.layer_self("strat"), "s")
    put("series.mul_calls", tr.calls_of("series.TruncSeries.__mul__"), "count")
    put("series.compose_calls", tr.calls_of("series.TruncSeries.compose"), "count")
    put("series.reversion_calls", tr.calls_of("series.TruncSeries.reversion"), "count")
    put("series.self_s", tr.layer_self("series"), "s")
    evals = tr.calls_of("linalg.eval_poly")
    put("connops.split_eigenvalues_s", tr.incl_of("connops.split_eigenvalues"), "s")
    put("connops.root_evals", evals, "count")
    put("connops.root_hit_frac", tr.calls_of("linalg.poly_deflate") / evals if evals else 0.0,
        "frac")
    put("connops.probe_calls", tr.calls_of("connops.probe_nilpotency"), "count")
    put("connops.probe_s", tr.incl_of("connops.probe_nilpotency"), "s")
    put("connops.cohomology_s", tr.incl_of("connops.cohomology"), "s")
    put("connops.self_s", tr.layer_self("connops"), "s")
    put("galois.action_kernel_s", tr.incl_of("galois.action_kernel"), "s")
    put("galois.converges_at_s", tr.incl_of("galois.converges_at"), "s")
    put("galois.self_s", tr.layer_self("galois"), "s")
    put("serialize.parse_s", tr.incl_of("serialize.parse"), "s")
    put("serialize.encode_s", tr.incl_of("serialize.encode"), "s")
    put("serialize.bytes_in", c["bytes_in"], "B")
    put("serialize.bytes_out", c["bytes_out"], "B")
    put("cli.self_s", tr.layer_self("cli"), "s")
    put("cli.reject_s", tr.reject_s, "s")
    put("cli.spawn_ms", spawn, "ms")
    put("trace.overhead_frac", traced.total_s / plain.total_s - 1, "frac")
    put("trace.coverage_frac", tr.root_s / traced.total_s, "frac")
    return m


def trace_pass(lib, jobs, count, record_limit=500_000):
    """One traced pass over the first ``count`` jobs; originals restored after."""
    tracer = Tracer(lib, record_limit)
    tracer.install()
    try:
        tally = run_jobs(jobs, count=count, tracer=tracer, keep=True)
    finally:
        tracer.restore()
    return tracer, tally


def traced_run(workload, seed, seconds, workdir):
    """Pairs of (untraced, traced) passes over the first TRACE_BLOCKS blocks,
    repeated while --seconds last. Each metric is its median over the pairs;
    counts are the same in every pair. Only the first traced pass keeps span
    records. Returns (metrics, plain tallies, traced tallies)."""
    lib, jobs, _ = setup(workload, seed, workdir)
    count = sum(len(b) for b in wl.specs(workload, seed, wl.TRACE_BLOCKS[workload]))
    spawn = 0.0
    if workload == "cli":
        f = gen.FIELDS[0]
        spawn = spawn_ms(json.dumps({"p": f.p, "E": list(f.E)}))
    t_end = time.perf_counter() + seconds
    samples, plains, traceds = [], [], []
    first = None
    while not samples or time.perf_counter() < t_end:
        plain = run_jobs(jobs, count=count, keep=True)
        tracer, traced = trace_pass(lib, jobs, count, 500_000 if first is None else 0)
        first = first or tracer
        samples.append(per_layer(tracer, plain, traced, spawn))
        plains.append(plain)
        traceds.append(traced)
    metrics = {k: (statistics.median(s[k][0] for s in samples), samples[0][k][1])
               for k in samples[0]}
    os.makedirs(OUT, exist_ok=True)
    first.write_spans(os.path.join(OUT, f"spans-{workload}-{seed}.jsonl"))
    return metrics, plains, traceds


def report(tallies, metrics):
    """The result line. The tallies run over one job list, so a job index
    names the same job in each."""
    wrong = sum(t.outcomes[wl.WRONG] for t in tallies)
    return {"correct": wrong == 0,
            "attempted": len(set().union(*(t.latencies for t in tallies))),
            "failed": len(set().union(*(t.failed_jobs for t in tallies))),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def summarize(workload, tallies, stream=sys.stderr):
    outcomes, errors = Counter(), Counter()
    for t in tallies:
        outcomes.update(t.outcomes)
        errors.update(t.errors)
    line = ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    if errors:
        line += "; raised: " + ", ".join(f"{k} x{v}" for k, v in sorted(errors.items()))
    stream.write(f"{workload}: {line}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        os.makedirs(workdir, exist_ok=True)
        if args.trace:
            metrics, plains, traceds = traced_run(args.workload, args.seed, args.seconds,
                                                  workdir)
            tallies = plains + traceds
            same = all(p.digests == t.digests for p, t in zip(plains, traceds))
            result = report(tallies, metrics)
            if not same:
                sys.stderr.write("traced results differ from untraced ones\n")
                result["correct"] = False
        else:
            times = []
            t_end = time.perf_counter() + SETUP_MIN_S
            while len(times) < SETUP_REPS or (time.perf_counter() < t_end
                                              and len(times) < SETUP_MAX_REPS):
                before = calib.reference()
                lib, jobs, dt = setup(args.workload, args.seed, workdir)
                times.append(calib.calibrate(dt, before, calib.reference()))
            tally = run_jobs(jobs, seconds=args.seconds, calibrated=True)
            tallies = [tally]
            result = report(tallies, end_to_end(tally, times))
            raw = passes(tally.raw)
            sys.stderr.write("uncalibrated: jobs_per_s="
                             f"{statistics.median(len(p) / sum(p) for p in raw):.4g} "
                             "job_p50_ms="
                             f"{statistics.median(map(statistics.median, raw)) * 1e3:.4g} "
                             f"runs={sum(map(len, tally.raw.values()))} "
                             f"retried={tally.retries}\n")
    except wl.LibraryMissing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summarize(args.workload, tallies)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
