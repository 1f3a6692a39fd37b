"""Golden digests of every benchmark job's outcome and of every -h text.

The jobs are perfbench's own: its generator and job builders, loaded by
path, build the four workloads for seeds 1-3 on the prismlab already
imported, and each job runs once, in order. An in-process job's outcome is
its result, or the exception it raised, as plain data. A cli job's outcome
is its exit code, stdout and stderr, with the temporary working directory
masked. The help texts are the `-h` output of every node of the command
tree, at a fixed width of 80 columns.

    python tests/golden.py            # compare with golden_digests.json
    python tests/golden.py --write    # regenerate golden_digests.json

The file holds one sha256 per workload and seed, a short digest per job
(to name the first job whose outcome differs), and one sha256 of the help
texts. Regenerating it changes a check: CHANGES.md must name each job
whose digest moved, and why.
"""
from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
import os
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")
GOLDEN = os.path.join(HERE, "golden_digests.json")
SEEDS = (1, 2, 3)
WORKLOADS = ("roundtrip", "cocycle", "verdicts", "cli")
# hex digits of each job's own digest kept in the file
SHORT = 6
WORKDIR = "<workdir>"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, filename))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """perfbench/workloads.py, with the perfbench/gen.py it imports as gen."""
    saved = sys.modules.get("gen")
    sys.modules["gen"] = _load("gen", "gen.py")
    try:
        return _load("perfbench_workloads", "workloads.py")
    finally:
        if saved is None:
            del sys.modules["gen"]
        else:
            sys.modules["gen"] = saved


def current_lib(wl):
    """A workloads.Lib over the prismlab modules already imported. Lib()
    itself re-imports prismlab, which would leave the test session holding
    two copies of every class."""
    lib = object.__new__(wl.Lib)
    for name in wl.Lib.MODULES:
        setattr(lib, name, importlib.import_module(f"prismlab.{name}"))
    lib._specs = {}
    return lib


def plain(x):
    """A job's result as nested tuples of ints, Fractions and strings."""
    if x is None or isinstance(x, (int, Fraction, str)):
        return x
    if isinstance(x, dict):
        return tuple(sorted(((k, plain(v)) for k, v in x.items()), key=lambda kv: kv[0]))
    if isinstance(x, (list, tuple)):
        return tuple(plain(v) for v in x)
    kind = type(x).__name__
    if kind == "FieldElement":
        return ("K", x.coords)
    if kind == "TruncSeries":
        return (x.unif, plain(x.coeffs))
    if kind == "LogConnection":
        return (x.unif, x.l, x.m, plain(x.N))
    if kind == "_Infinity":
        return "+inf"
    raise TypeError(f"no plain form for {kind}")


def outcome(job, workdir):
    """The text hashed for one run of job."""
    try:
        result = job.call()
    except Exception as exc:  # an exception is an outcome like any other
        return repr(("raise", type(exc).__name__, str(exc)))
    if isinstance(result, tuple) and len(result) == 3 and isinstance(result[1], bytes):
        code, out, err = result
        return repr((code, out.replace(workdir.encode(), WORKDIR.encode()),
                     err.replace(workdir, WORKDIR)))
    return repr(plain(result))


def job_label(workload, spec):
    if workload == "cli":
        return " ".join(WORKDIR if a is None else str(a) for a in spec["argv"])
    return spec.get("kind", workload)


def run_workload(wl, lib, workload, seed, workdir):
    """(sha256 of all outcomes, short digest per job, label per job)."""
    blocks = wl.specs(workload, seed)
    jobs = wl.build_jobs(lib, workload, blocks, workdir)
    labels = [job_label(workload, spec) for block in blocks for spec in block]
    total, short = hashlib.sha256(), []
    for job in jobs:
        digest = hashlib.sha256(outcome(job, workdir).encode())
        total.update(digest.digest())
        short.append(digest.hexdigest()[:SHORT])
    return total.hexdigest(), "".join(short), labels


def help_digest(wl, cli):
    """sha256 over the -h outcome of every command-tree node, parents first."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        total, stack, count = hashlib.sha256(), [((), cli.build_parser())], 0
        while stack:
            path, parser = stack.pop(0)
            code, out, err = wl.run_cli(cli.main, [*path, "-h"], "")
            total.update(repr((path, code, out, err)).encode())
            count += 1
            stack.extend(((*path, name), sub) for name, sub in parser.commands.items())
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return total.hexdigest(), count


def compute(workdir, workloads=WORKLOADS, seeds=SEEDS):
    """The digests of this tree, in the file's layout, and the job labels."""
    wl = load_workloads()
    lib = current_lib(wl)
    digests, labels = {"jobs": {}}, {}
    for workload in workloads:
        for seed in seeds:
            key = f"{workload}:{seed}"
            sha, short, labels[key] = run_workload(wl, lib, workload, seed, workdir)
            digests["jobs"][key] = {"sha256": sha, "short": short}
    digests["help"], digests["help_texts"] = help_digest(wl, lib.cli)
    return digests, labels


def mismatches(want, got, labels):
    """One line per workload and seed whose digest differs, naming its
    first job whose short digest differs."""
    lines = []
    for key, entry in got["jobs"].items():
        if entry["sha256"] == want["jobs"].get(key, {}).get("sha256"):
            continue
        old, new = want["jobs"].get(key, {}).get("short", ""), entry["short"]
        first = next((i for i in range(len(new) // SHORT)
                      if old[i * SHORT:(i + 1) * SHORT] != new[i * SHORT:(i + 1) * SHORT]),
                     None)
        where = ("no job's short digest differs" if first is None
                 else f"first differing job {first}: {labels[key][first]}")
        lines.append(f"{key}: {where}")
    if (got["help"], got["help_texts"]) != (want["help"], want["help_texts"]):
        lines.append("help texts differ")
    return lines


def load():
    with open(GOLDEN) as fh:
        return json.load(fh)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--write"]):
        sys.exit("usage: python tests/golden.py [--write]")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as workdir:
        got, labels = compute(workdir)
    if argv == ["--write"]:
        with open(GOLDEN, "w") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    lines = mismatches(load(), got, labels)
    print("\n".join(lines) or "all digests match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
