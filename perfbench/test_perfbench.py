"""The benchmark's own tests. They compare counts and outputs, never times.

    python3 -m pytest perfbench -q
"""
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads as wl  # noqa: E402

LIBRARY = ("roundtrip", "cocycle", "verdicts")
SEED = 7
# Jobs per traced pass: the first block and more for verdicts and cli, whose
# job kinds differ within a block; part of a block elsewhere.
COUNT = {"roundtrip": 16, "cocycle": 8, "verdicts": 40, "cli": 32}


def traced(workload, workdir, seed=SEED):
    lib, jobs, _ = run.setup(workload, seed, str(workdir), nblocks=2)
    plain = run.run_jobs(jobs, count=COUNT[workload], keep=True)
    tracer, tally = run.trace_pass(lib, jobs, COUNT[workload])
    return lib, tracer, plain, tally


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    return {w: traced(w, tmp_path_factory.mktemp(w)) for w in wl.WORKLOADS}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_counts_repeat_exactly(passes, workload, tmp_path):
    _, again, _, _ = traced(workload, tmp_path)
    assert passes[workload][1].counts_snapshot() == again.counts_snapshot()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_results_match_untraced(passes, workload):
    _, _, plain, tally = passes[workload]
    assert tally.digests == plain.digests
    assert tally.outcomes == plain.outcomes


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_no_wrong_answers(passes, workload):
    _, _, plain, _ = passes[workload]
    assert plain.outcomes[wl.WRONG] == 0, plain.outcomes


@pytest.mark.parametrize("workload", ("roundtrip", "verdicts"))
def test_no_pd_algebra_outside_cocycle(passes, workload):
    assert passes[workload][1].counts["pd_mul_calls"] == 0
    assert passes["cocycle"][1].counts["pd_mul_calls"] > 0


@pytest.mark.parametrize("workload", ("roundtrip", "cocycle"))
def test_no_root_search_outside_verdicts(passes, workload):
    assert passes[workload][1].calls_of("linalg.eval_poly") == 0
    assert passes["verdicts"][1].calls_of("linalg.eval_poly") > 0


@pytest.mark.parametrize("workload", LIBRARY)
def test_no_serialization_in_library_workloads(passes, workload):
    counts = passes[workload][1].counts
    assert counts["bytes_in"] == 0 and counts["bytes_out"] == 0
    assert passes["cli"][1].counts["bytes_in"] > 0


def test_aliases_and_imported_names_are_traced(passes):
    tracer = passes["roundtrip"][1]
    # a * b with an int on the left goes through __rmul__, the alias
    assert tracer.calls_of("field.FieldElement.__mul__") > 0
    cli = passes["cli"][1]
    # cli imports from_connection and check_cocycle by name
    assert cli.calls_of("strat.from_connection") > 0
    assert cli.calls_of("strat.check_cocycle") > 0


def test_restore_puts_originals_back(passes):
    lib = passes["cli"][0]
    assert not hasattr(lib.field.FieldElement.__mul__, "__wrapped__")
    assert lib.field.FieldElement.__rmul__ is lib.field.FieldElement.__mul__
    assert lib.cli.from_connection is lib.strat.from_connection
    assert not hasattr(lib.connops.eval_poly, "__wrapped__")


def test_seed_fixes_inputs():
    for workload in wl.WORKLOADS:
        assert repr(wl.specs(workload, 3, 1)) == repr(wl.specs(workload, 3, 1))
        assert repr(wl.specs(workload, 3, 1)) != repr(wl.specs(workload, 4, 1))


def test_attempted_and_failed_count_distinct_jobs(tmp_path):
    _, jobs, _ = run.setup("cli", SEED, str(tmp_path), nblocks=2)
    once = run.report([run.run_jobs(jobs, count=len(jobs))], {})
    twice = run.report([run.run_jobs(jobs, count=2 * len(jobs))], {})
    assert once["attempted"] == twice["attempted"] == len(jobs)
    # the malformed --D -1 job raises (a known defect), and only it
    assert once["failed"] == twice["failed"] == 1
