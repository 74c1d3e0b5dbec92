"""The benchmark under ``benchmarks/`` reaches into the library from
outside ``src/``: ``spans.WRAPS`` rebinds (module, attribute) pairs for
traced runs, and ``workloads.py`` and ``checks.py`` import library
functions.  A rename in ``src/`` would silently blank a traced run, so
these tests check every such binding.  They only read ``benchmarks/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

import fairlot

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    """Import a module of ``benchmarks/`` by name, without writing
    bytecode there; the imported modules are dropped afterwards."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    yield importlib.import_module
    for name in set(sys.modules) - before:
        if not name.startswith("fairlot"):
            del sys.modules[name]


def test_every_traced_binding_resolves(bench):
    assert Path(fairlot.__file__).resolve().is_relative_to(ROOT / "src")
    spans = bench("spans")
    assert spans.WRAPS
    for module, dotted, span, _counters in spans.WRAPS:
        owner = importlib.import_module(module)
        for part in dotted.split("."):
            assert hasattr(owner, part), f"{module}.{dotted} (span {span}) is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{dotted} is not callable"


@pytest.mark.parametrize("name", ["workloads", "checks"])
def test_benchmark_modules_import(bench, name):
    bench(name)
