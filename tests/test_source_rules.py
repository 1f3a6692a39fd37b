"""Rules on the library's and the tests' source that no behavioural test
would notice.

Checks that carry correctness must hold under python -O, which strips
assert statements, so no module of src/prismlab may use one. pdalg.py, the
divided-power reference, may keep its asserts because no other module of
the library imports it: only the tests and the benchmark load it.
Arithmetic stays exact, so no module writes a float literal or calls
float() or round(). The runtime uses only the standard library, so every
import is of a standard module or of prismlab itself. Every definition is
reached from the product's entry points, the README, the acceptance tests
or the benchmark's code, so nothing is kept that only its tests use.
Code is generated in one place, the field's compiled product kernel, so
no other function calls exec, eval or compile.

The tests' independent references live in one module, tests/ref.py, under
four rules:
1. ref.py imports and calls none of the product kernels it checks
   (REF_FORBIDDEN), so a reference shares no code with its subject;
2. a top-level function named as a reference (*_by_*, ref_* or *_oracle)
   is defined only in ref.py;
3. no tests/test_*.py imports another test module (conftest, ref and
   golden are not test modules), so each test module runs on its own;
4. every definition in ref.py is reached from a test module or
   conftest.py, so a reference goes when the last test that reads it goes.
"""
import ast
import os
import re
import sys

from conftest import ROOT, load_layertrace

SRC = os.path.join(ROOT, "src", "prismlab")
TESTS = os.path.join(ROOT, "tests")
EXEMPT = {"pdalg.py"}


def assert_lines(source):
    """Line numbers of the assert statements in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def sources(directory=SRC):
    """(file name, source) of every module in directory, by default the
    library."""
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                yield name, fh.read()


# the float constants of the math module; +infinity is field.INF
MATH_FLOATS = {"inf", "nan"}


def float_lines(source):
    """Line numbers of the float or complex literals, of the calls to
    float() or round(), and of math.inf, math.nan and their imports from
    math in source."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                   or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in ("float", "round")
                   or isinstance(node, ast.Attribute) and node.attr in MATH_FLOATS
                   and isinstance(node.value, ast.Name) and node.value.id == "math"
                   or isinstance(node, ast.ImportFrom) and node.module == "math"
                   and any(alias.name in MATH_FLOATS for alias in node.names)})


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
    source = ("x = 0.5\ny = float('1')\nz = round(x)\nw = 2j\nv = Fraction(1, 2)  # 0.5\n"
              "top = math.inf\nbad = math.nan\nfrom math import floor, inf\n"
              "from math import nan as missing\n")
    assert float_lines(source) == [1, 2, 3, 4, 6, 7, 8, 9]
    assert float_lines("from math import floor\nk = floor(x)  # round down\n"
                       "top = INF  # not math.inf\ninf = field.inf\n") == []


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


CODEGEN = {"exec", "eval", "compile"}
# the one function of the library that may generate code
CODEGEN_HOME = "field._product_kernel"


def codegen_calls(module, source):
    """(where, line) of every call of the builtin exec, eval or compile in
    source: where is the qualified name of the innermost enclosing function
    (module.Class.method, module.f.inner) or the module's name at module
    level. A method of that name, such as re.compile, is not the builtin."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in CODEGEN):
                found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def test_code_is_generated_only_by_the_field_kernel():
    found = [call for name, source in sources()
             for call in codegen_calls(name.removesuffix(".py"), source)]
    assert [where for where, _ in found if where != CODEGEN_HOME] == []
    assert found, "the field's product kernel is compiled with exec"


def test_a_codegen_call_is_found():
    source = ("import re\nexec('x = 1')\nPAT = re.compile('a')\n\n\n"
              "class Box:\n    def run(self, s):\n        return eval(s)\n\n\n"
              "def outer():\n    def inner():\n        return compile('1', '<s>', 'eval')\n"
              "    return inner  # exec(no call)\n\n\n"
              "def _product_kernel():\n    exec('def mul(): pass', {})\n")
    assert codegen_calls("field", source) == [
        ("field", 2), ("field.Box.run", 8), ("field.outer.inner", 13),
        ("field._product_kernel", 18)]


WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def mentioned(nodes):
    """The words that nodes mention: names, attributes, and the words of
    string constants (docstrings included)."""
    words = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                words.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                words.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                words.update(WORD.findall(sub.value))
    return words


def definitions(module, tree):
    """(qualified name, name, the nodes of its body) of every function and
    class at module level or in a module-level class, and ("", "", nodes)
    for the module's other statements. A class's body leaves out its
    methods, which are definitions of their own."""
    defs = [("", "", [n for n in tree.body
                      if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                            ast.ClassDef))])]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((f"{module}.{node.name}", node.name, [node]))
        elif isinstance(node, ast.ClassDef):
            methods = [n for n in node.body if isinstance(n, (ast.FunctionDef,
                                                               ast.AsyncFunctionDef))]
            rest = [n for n in node.body if n not in methods]
            defs.append((f"{module}.{node.name}", node.name,
                         node.decorator_list + node.bases + node.keywords + rest))
            defs += [(f"{module}.{node.name}.{m.name}", m.name, [m]) for m in methods]
    return defs


def unreached(modules, roots, prefixes=(), reaching=()):
    """Qualified names of the definitions in modules ({name: source}) that
    no root reaches. A definition is reached when its name is a root, starts
    with one of prefixes, is a dunder or is mentioned by a reached body.
    Module-level statements and the modules in reaching count as reached;
    the latter's own definitions are not reported. By name alone, so this
    over-approximates the reached set: what it reports is surely unused."""
    reached, left = [], []
    for module, source in modules.items():
        for qualname, name, body in definitions(module.removesuffix(".py"), ast.parse(source)):
            (reached if module in reaching or not name else left).append((qualname, name, body))
    names = set(roots)
    while reached:
        for _, _, body in reached:
            names |= mentioned(body)
        reached = [d for d in left if d[1] in names or d[1].startswith(prefixes)
                   or d[1].startswith("__") and d[1].endswith("__")]
        left = [d for d in left if d not in reached]
    return sorted(qualname for qualname, _, _ in left)


def product_roots():
    """The names the product is entered by: "main", the README's backticked
    words, and every word that the acceptance tests or the benchmark's code
    mention (the benchmark's tracer names each function it wraps in a
    string); and the prefixes "cmd_" and those of the tracer's "prefix*"
    entries."""
    def read(*parts):
        with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
            return fh.read()
    roots = {"main"} | {w for span in re.findall(r"`([^`]*)`", read("README.md"))
                        for w in WORD.findall(span)}
    for parts in [("tests", "test_acceptance.py")] + [
            ("perfbench", name) for name in sorted(os.listdir(os.path.join(ROOT, "perfbench")))
            if name.endswith(".py")]:
        roots |= mentioned([ast.parse(read(*parts))])
    traced = load_layertrace().TRACED
    return roots, ("cmd_",) + tuple(name[:-1] for names in traced.values()
                                    for name in names if name.endswith("*"))


def test_every_definition_is_reached():
    roots, prefixes = product_roots()
    assert unreached(dict(sources()), roots, prefixes, reaching={"pdalg.py"}) == []


def test_an_unreached_definition_is_found():
    modules = {"a.py": """
X = helper_for_module()


def helper_for_module():
    return 1


def main():
    return used() + Box().shown


def used():
    \"\"\"Calls nothing, but names in_docstring.\"\"\"


def in_docstring():
    pass


def orphan():
    return orphan_callee()


def orphan_callee():
    pass


class Box:
    size = sized()

    def __init__(self):
        pass

    @property
    def shown(self):
        pass

    def hidden(self):
        pass


def sized():
    pass


def cmd_x():
    pass
""", "ref.py": """
def reference_only():
    return orphan_callee_2()
""", "b.py": """
def orphan_callee_2():
    pass


def root_by_name():
    pass
"""}
    assert unreached(modules, {"main", "root_by_name"}, ("cmd_",), reaching={"ref.py"}) == [
        "a.Box.hidden", "a.orphan", "a.orphan_callee"]


# What no reference may import or call: the field's lift, regular
# representation, integer valuation and numerator kernels; the series'
# pair kernel and its table of the powers of (y/T)^(-1); the packed
# family kernel; elimination and the characteristic polynomial; the
# T-linear builder, operator families and their walks; the descent and the
# Gauss valuation; and every name that ROADMAP item 1B deletes. Of those,
# TruncSeries.__pow__ and Matrix.__neg__ are reached through ** and unary
# minus as well, which the rule cannot tell from FieldElement's.
REF_FORBIDDEN = {
    "lift", "regular", "_vp_int", "num_ev", "_mulnum", "pair_dot", "h_powers",
    "falling_levels", "falling_powers", "PackedLevel",
    "charpoly", "charpoly_numerators", "reduce_rows", "rref", "rank", "kernel_basis", "column_pivots", "null_basis",
    "_t_linear", "operator_family", "Family", "first_off_recurrence", "_off_levels",
    "_first_off_family",
    "_near_integer_roots", "_roots_above", "_taylor_shift", "_gauss_ev",
    "probe_nilpotency", "matrix_gauss_val", "multiplication_by_t_power", "reduction_ses",
    "BadTruncationIndex", "rewrite_in_uniformizer", "compose", "__pow__", "transpose",
    "__neg__", "derivative",
}


def forbidden_uses(source):
    """(line, name) of each name of REF_FORBIDDEN that source imports, reads
    as an attribute or calls by name. A local variable of such a name that
    is not called does not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names = [node.func.id]
        else:
            continue
        found |= {(node.lineno, name) for name in names if name in REF_FORBIDDEN}
    return sorted(found)


def test_references_share_no_kernel():
    assert forbidden_uses(dict(sources(TESTS))["ref.py"]) == []


def test_a_forbidden_kernel_use_is_found():
    source = ("from prismlab.field import INF, lift\nimport prismlab.linalg.falling_powers\n"
              "def rank_of(A, x):\n    rank = 0\n    rank += len(A.charpoly())\n"
              "    walk = prismlab.linalg.falling_levels\n"
              "    return _gauss_ev(A) + rank, walk, x.val(), Family\n"
              "compose_by_horner = lambda f, g: f.compose(g)\n")
    assert forbidden_uses(source) == [(1, "lift"), (2, "falling_powers"), (5, "charpoly"),
                                      (6, "falling_levels"), (7, "_gauss_ev"), (8, "compose")]


REFERENCE_NAME = re.compile(r".*_by_.*|ref_.*|.*_oracle")


def stray_references(modules):
    """(file name, function name) of each top-level function of modules
    ({file name: source}) outside ref.py that is not a test_ function and
    is named as a reference."""
    return sorted((module, node.name) for module, source in modules.items() if module != "ref.py"
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("test_") and REFERENCE_NAME.fullmatch(node.name))


def test_references_live_in_ref():
    assert stray_references(dict(sources(TESTS))) == []


def test_a_stray_reference_is_found():
    modules = {"ref.py": "def charpoly_by_elements(A):\n    pass\n",
               "test_a.py": ("def rank_oracle(op):\n    pass\n\n\n"
                             "def test_charpoly_by_elements():\n    pass\n\n\n"
                             "class TestX:\n    def ref_inner(self):\n        pass\n\n\n"
                             "def reference_free(x):\n    pass\n"),
               "conftest.py": "def ref_mul(x, y):\n    pass\n\n\nasync def roots_by_x():\n    pass\n"}
    assert stray_references(modules) == [
        ("conftest.py", "ref_mul"), ("conftest.py", "roots_by_x"), ("test_a.py", "rank_oracle")]


def imports_of_test_modules(source):
    """Line numbers of the imports in source of a test module, a module
    named test_*: conftest, ref and golden are not test modules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + ([alias.name for alias in node.names]
                                           if node.level else [])
        else:
            continue
        if any(name.split(".")[0].startswith("test_") for name in names):
            lines.append(node.lineno)
    return lines


def test_no_test_module_imports_another():
    found = {name: lines for name, source in sources(TESTS)
             if name.startswith("test_") and (lines := imports_of_test_modules(source))}
    assert found == {}


def test_a_test_module_import_is_found():
    source = ("from conftest import twist\nfrom test_strat import random_connection\n"
              "import test_connops as tc\nimport golden, ref\nfrom . import test_walks\n"
              "def f():\n    from test_galois import GROWTH_LEVEL\n"
              "from ref import rank_oracle  # test_connops\nimport os.path as test_path\n")
    assert imports_of_test_modules(source) == [2, 3, 5, 7]


def unreached_references(modules):
    """The definitions of ref.py that no test module and no conftest.py
    reaches, modules being {file name: source} of the tests. This module is
    no root: its planted sources and its docstring name references."""
    roots = set()
    for name, source in modules.items():
        if name == "conftest.py" or name.startswith("test_") and name != "test_source_rules.py":
            roots |= mentioned([ast.parse(source)])
    return unreached({"ref.py": modules["ref.py"]}, roots)


def test_every_reference_is_reached():
    assert unreached_references(dict(sources(TESTS))) == []


def test_an_unreached_reference_is_found():
    modules = {"ref.py": ("def read_by_test():\n    return _helper()\n\n\n"
                          "def _helper():\n    pass\n\n\n"
                          "def dead_oracle():\n    return _dead_helper()\n\n\n"
                          "def _dead_helper():\n    pass\n\n\n"
                          "def read_by_conftest():\n    pass\n\n\n"
                          "def named_by_rules_only():\n    pass\n"),
               "test_a.py": ("from ref import read_by_test\n\n\n"
                             "def test_x():\n    read_by_test()\n"),
               "conftest.py": "X = read_by_conftest()\n",
               "golden.py": "def f():\n    return dead_oracle()\n",
               "test_source_rules.py": "NAMES = ['named_by_rules_only']\n"}
    assert unreached_references(modules) == [
        "ref._dead_helper", "ref.dead_oracle", "ref.named_by_rules_only"]
