"""The package is built on the standard library alone: test-only
dependencies such as hypothesis and networkx must never reach ``src``,
neither at the top of a module nor inside a function, nor through
``importlib.import_module``."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fairlot").glob("*.py"))


def _own(target) -> bool:
    """Whether an ``import_module`` target names a module of this
    package: a relative name, or an f-string that starts at this module's
    ``__name__`` or ``__package__`` or with a dot."""
    if not isinstance(target, ast.JoinedStr) or not target.values:
        return False
    head = target.values[0]
    if isinstance(head, ast.Constant):
        return head.value.startswith(".")
    return isinstance(head.value, ast.Name) and head.value.id in ("__name__", "__package__")


def imports(tree):
    """(line, first name component) of every absolute import anywhere in
    the module, and of every ``import_module`` target; relative imports
    are the package's own.  A target that is neither a string literal
    nor one of the package's own names yields ``"<dynamic>"``."""
    loaders = {"importlib.import_module"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.lineno, node.module.split(".")[0]
            if node.module == "importlib":
                loaders |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "import_module"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in loaders and node.args:
            target = node.args[0]
            if isinstance(target, ast.Constant) and isinstance(target.value, str):
                if not target.value.startswith("."):
                    yield node.lineno, target.value.split(".")[0]
            elif not _own(target):
                yield node.lineno, "<dynamic>"


def test_sources_found():
    assert any(path.name == "birkhoff.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_fairlot(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        (line, name) for line, name in imports(tree)
        if name != "fairlot" and name not in sys.stdlib_module_names
    ]
    assert foreign == []


@pytest.mark.parametrize("source, found", [
    ("def f():\n    import numpy\n", [(2, "numpy")]),
    ("def f():\n    from networkx import Graph\n", [(2, "networkx")]),
    ("import importlib\nimportlib.import_module('hypothesis.strategies')\n",
     [(1, "importlib"), (2, "hypothesis")]),
    ("from importlib import import_module as load\nload('scipy')\n",
     [(1, "importlib"), (2, "scipy")]),
    ("from importlib import import_module\nimport_module(name)\n",
     [(1, "importlib"), (2, "<dynamic>")]),
    ("from importlib import import_module\nimport_module('.eps', __package__)\n"
     "import_module(f'.{m}', __package__)\nimport_module(f'{__name__}.{m}')\n",
     [(1, "importlib")]),
])
def test_the_guard_sees_function_level_and_dynamic_imports(source, found):
    assert list(imports(ast.parse(source))) == found
