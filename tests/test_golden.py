"""stdout stays byte-stable: every benchmark job's outcome and every -h text
against the digests in golden_digests.json (see golden.py, which also
regenerates them)."""
import json

import golden
from prismlab import cli


def test_outcomes_match_golden_digests(tmp_path):
    got, labels = golden.compute(str(tmp_path))
    assert golden.mismatches(golden.load(), got, labels) == []


def test_one_byte_of_stdout_is_caught(tmp_path, monkeypatch):
    """A space in canonical_json's separators moves the cli digest, and the
    report names the first job whose stdout changed."""
    monkeypatch.setattr(cli, "canonical_json",
                        lambda obj: json.dumps(obj, sort_keys=True, separators=(", ", ":")))
    got, labels = golden.compute(str(tmp_path), workloads=("cli",), seeds=(1,))
    assert golden.mismatches(golden.load(), got, labels) == [
        "cli:1: first differing job 0: field check -"]
