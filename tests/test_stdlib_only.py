"""The package is built on the standard library alone: test-only
dependencies such as hypothesis and networkx must never reach ``src``."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fairlot").glob("*.py"))


def top_level_imports(tree):
    """(line, first name component) of every absolute import in the module
    body; relative imports are the package's own."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_sources_found():
    assert any(path.name == "birkhoff.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_fairlot(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        (line, name) for line, name in top_level_imports(tree)
        if name != "fairlot" and name not in sys.stdlib_module_names
    ]
    assert foreign == []
