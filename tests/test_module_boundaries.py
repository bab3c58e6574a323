"""Module boundaries: no setjoin module reaches into another's private names,
one function alone builds the candidate kernel, every call of that one
repetition driver runs a join module's own generator of steps, one
function alone (the canonical build) makes a Dataset, and one module alone
holds the sparse (scipy) view of the records."""

import ast
import inspect
from pathlib import Path

from setjoin import cpsjoin, lsh

SRC = Path(__file__).resolve().parent.parent / "src" / "setjoin"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_name_uses(path):
    """(line, source) of every private name a module takes from outside itself:
    a `_name` imported from a setjoin module, or `x._name` on any x other than
    `self` or `cls`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "setjoin":
                uses += [(node.lineno, f"import {a.name}") for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                uses.append((node.lineno, ast.unparse(node)))
    return uses


def test_private_name_uses_finds_both_kinds(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .prep import _SIG_TAG, preprocess\n"
                    "from numpy import _core\n"
                    "def f(self, data):\n"
                    "    self._x = data._cache\n"
                    "    return data.__class__\n")
    assert private_name_uses(path) == [(1, "import _SIG_TAG"), (4, "data._cache")]


def test_no_module_touches_another_modules_private_names():
    uses = {p.name: private_name_uses(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {}


def constructions(path, name):
    """(line, enclosing function) of every `name(...)` call in a module, by
    name or as a module attribute; None outside any function."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_kernel_constructions_finds_both_kinds(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import cpsjoin as cps\n"
                    "k = CandidateKernel(1)\n"
                    "def run(prep):\n"
                    "    return [cps.CandidateKernel(prep) for _ in range(2)]\n")
    assert constructions(path, "CandidateKernel") == [(2, None), (4, "run")]


def test_only_the_repetition_loop_builds_a_candidate_kernel():
    # a second place that builds one would be a second repetition driver
    found = {(p.name, func) for p in sorted(SRC.glob("*.py"))
             for _, func in constructions(p, "CandidateKernel")}
    assert found == {("cpsjoin.py", "run_repetitions")}


def test_only_the_canonical_build_makes_a_dataset():
    # every other maker would be a way to a Dataset that is not canonical
    found = {(p.name, func) for p in sorted(SRC.glob("*.py"))
             for _, func in constructions(p, "Dataset")}
    assert found == {("datasets.py", "_build")}


def repetition_drives(path):
    """(line, source of the step argument) of every `run_repetitions(...)`
    call in a module, by name or as a module attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == \
                    "run_repetitions":
                step = node.args[2] if len(node.args) > 2 else None
                found.append((node.lineno, None if step is None else ast.unparse(step)))
    return found


def test_repetition_drives_finds_both_kinds(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import cpsjoin as cps\n"
                    "def run(prep, cfg, join):\n"
                    "    run_repetitions(prep, cfg, repetitions)\n"
                    "    return cps.run_repetitions(prep, cfg, lambda k: None, None)\n")
    assert repetition_drives(path) == [(3, "repetitions"), (4, "lambda k: None")]


def test_every_repetition_drive_runs_a_join_modules_own_steps():
    # a lambda or a wrapper here would wire a join's steps a second time
    found = {(p.name, step) for p in sorted(SRC.glob("*.py"))
             for _, step in repetition_drives(p)}
    assert found == {("cpsjoin.py", "repetitions"), ("lsh.py", "repetitions"),
                     ("bench.py", "join.repetitions")}  # bench's join is cpsjoin or lsh
    assert inspect.isgeneratorfunction(cpsjoin.repetitions)
    assert inspect.isgeneratorfunction(lsh.repetitions)


def imported_modules(path):
    """Top-level package of every module a file imports, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_finds_nested_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\n"
                    "from .exact import verify\n"
                    "def f():\n"
                    "    from scipy.sparse import csr_matrix\n"
                    "    import scipy.optimize\n")
    assert imported_modules(path) == {"numpy", "scipy"}


def test_only_exact_imports_scipy():
    found = {p.name for p in sorted(SRC.glob("*.py")) if "scipy" in imported_modules(p)}
    assert found == {"exact.py"}
