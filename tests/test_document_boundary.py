"""``fileio`` is the one module that turns the package's values into
document text and back: it alone imports ``json`` and formats rationals
(``model`` defines ``format_rational``), and the checkers' reports reach
it as values, so ``fairness`` imports nothing from it."""

import ast

import fairlot.cli
import fairlot.fileio
from test_stdlib_only import SOURCES


def referred(path):
    """(modules imported, names defined or referred to) of one module.  A
    relative import is written with its leading dots, as ``.fileio``."""
    modules, names = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            modules.update([dots + node.module] if node.module else
                           [dots + alias.name for alias in node.names])
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return modules, names


REFERRED = {path.name: referred(path) for path in SOURCES}


def test_only_fileio_imports_json():
    assert sorted(name for name, (modules, _) in REFERRED.items()
                  if any(m.split(".")[0] == "json" for m in modules)) == ["fileio.py"]


def test_only_fileio_formats_rationals():
    assert sorted(name for name, (_, names) in REFERRED.items()
                  if "format_rational" in names) == ["fileio.py", "model.py"]


def test_fairness_imports_nothing_from_fileio():
    modules, _ = REFERRED["fairness.py"]
    assert ".fileio" not in modules


def test_the_cli_reads_json_through_fileio():
    assert fairlot.cli._load_json is fairlot.fileio.load_json
