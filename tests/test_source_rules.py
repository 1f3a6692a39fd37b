"""Rules on the library's source that no behavioural test would notice.

Checks that carry correctness must hold under python -O, which strips
assert statements, so no module of src/prismlab may use one. pdalg.py, the
divided-power reference, may keep its asserts because no other module of
the library imports it: only the tests and the benchmark load it.
Arithmetic stays exact, so no module writes a float literal or calls
float() or round(). The runtime uses only the standard library, so every
import is of a standard module or of prismlab itself.
"""
import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "prismlab")
EXEMPT = {"pdalg.py"}


def assert_lines(source):
    """Line numbers of the assert statements in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def sources():
    """(file name, source) of every module of the library."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, fh.read()


def float_lines(source):
    """Line numbers of the float or complex literals and of the calls to
    float() or round() in source."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                   or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in ("float", "round")})


def foreign_imports(source):
    """The top-level modules that source imports from neither the standard
    library nor prismlab; a relative import is of prismlab."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return [r for r in roots if r not in sys.stdlib_module_names and r != "prismlab"]


def pdalg_imports(source):
    """Line numbers of the imports of prismlab's pdalg module in source, a
    module of the package: relative, absolute, or of the name from the
    package."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = node.module or ""
            if node.level:
                package = f"prismlab.{package}".rstrip(".")
            names = [package] + [f"{package}.{alias.name}" for alias in node.names]
        else:
            continue
        if "prismlab.pdalg" in names:
            lines.append(node.lineno)
    return lines


def test_no_floats():
    found = {name: lines for name, source in sources() if (lines := float_lines(source))}
    assert found == {}


def test_a_float_is_found():
    source = "x = 0.5\ny = float('1')\nz = round(x)\nw = 2j\nv = Fraction(1, 2)  # 0.5\n"
    assert float_lines(source) == [1, 2, 3, 4]
    assert float_lines("from math import floor\nk = floor(x)  # round down\n") == []


def test_stdlib_only():
    found = {name: roots for name, source in sources() if (roots := foreign_imports(source))}
    assert found == {}


def test_a_foreign_import_is_found():
    source = ("import os.path\nimport numpy as np\nfrom fractions import Fraction\n"
              "from sympy.core import S\nfrom . import field\nfrom .field import _make\n"
              "from prismlab.linalg import Matrix\n")
    assert foreign_imports(source) == ["numpy", "sympy"]


def test_no_module_asserts():
    found = {name: lines for name, source in sources()
             if name not in EXEMPT and (lines := assert_lines(source))}
    assert found == {}


def test_an_assert_is_found():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert assert_lines(source) == [3]
    assert assert_lines("x = 1  # assert nothing\n") == []


def test_product_imports_no_pdalg():
    found = {name: lines for name, source in sources()
             if name != "pdalg.py" and (lines := pdalg_imports(source))}
    assert found == {}


def test_a_pdalg_import_is_found():
    source = ("from .pdalg import PDElement\nfrom . import field, pdalg\n"
              "import prismlab.pdalg\nfrom prismlab.pdalg import face\n"
              "from prismlab import pdalg as pd\nfrom .field import pdalg_like\n"
              "import pdalg\nfrom .linalg import Matrix  # pdalg\n")
    assert pdalg_imports(source) == [1, 2, 3, 4, 5]
