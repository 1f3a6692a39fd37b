"""Rules on the library's source that no behavioural test would notice.

Checks that carry correctness must hold under python -O, which strips
assert statements, so no module of src/prismlab may use one. pdalg.py is
exempt while it lives in the library as the divided-power reference.
"""
import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "prismlab")
EXEMPT = {"pdalg.py"}


def assert_lines(source):
    """Line numbers of the assert statements in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_no_module_asserts():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name not in EXEMPT:
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                lines = assert_lines(fh.read())
            if lines:
                found[name] = lines
    assert found == {}


def test_an_assert_is_found():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert assert_lines(source) == [3]
    assert assert_lines("x = 1  # assert nothing\n") == []
