"""The declared runtime dependencies are installed and satisfy their pins,
and the program modules import nothing they do not use and define no
private helper that nothing uses."""

import ast
import importlib.metadata
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path

from packaging.requirements import Requirement

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_runtime_dependencies_are_installed():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for spec in project["dependencies"]:
        req = Requirement(spec)
        version = importlib.metadata.version(req.name)
        assert req.specifier.contains(version, prereleases=True), (spec, version)


def test_import_leaves_sympy_and_scipy_out():
    # quasiclassics, which needs them, loads on first use
    code = ("import sys, hamalg\n"
            "assert 'sympy' not in sys.modules and 'scipy' not in sys.modules\n"
            "assert callable(hamalg.wkb_residual)\n"
            "assert callable(hamalg.quasiclassics.quartic_case)\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_unused_imports():
    # __init__.py is skipped: its imports are the package's re-exports
    unused = []
    for path in sorted((PYPROJECT.parent / "src" / "hamalg").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert not unused, unused


def _mentions(tree):
    # every name a node can refer to a module-level definition by
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_unreferenced_private_helpers():
    # a module-level _name function or class must be mentioned somewhere in
    # the package outside its own body
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((PYPROJECT.parent / "src" / "hamalg").glob("*.py"))}
    mentioned = Counter(name for tree in trees.values() for name in _mentions(tree))
    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and mentioned[node.name] == Counter(_mentions(node))[node.name]):
                unreferenced.append(f"{module}: {node.name}")
    assert not unreferenced, unreferenced
