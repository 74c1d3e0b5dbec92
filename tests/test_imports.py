"""What each command loads.  ``import fairlot`` loads no submodule and
``import fairlot.cli`` only the modules every command needs; each command
then loads the modules it runs, and none loads ``dataclasses`` or
``inspect`` (the package's value types are plain classes).  Load sets
are read in a fresh interpreter that writes no bytecode, as the
benchmark starts its commands.  The public names of the package, and the names a traced run
replaces on ``fairlot.cli``, still resolve to the library's objects.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fairlot
from fairlot import Instance, fileio
from fairlot.cli import main

SRC = Path(fairlot.__file__).resolve().parents[1]

EVERY_COMMAND = {"cli", "fileio", "model"}
BUILD = EVERY_COMMAND | {"eps", "ps", "pslottery", "birkhoff"}
CHECK = EVERY_COMMAND | {"fairness"}
ORACLE = CHECK | {"oracle", "simplex"}
# Standard-library modules that cost more to import than they give here.
AVOIDED = {"dataclasses", "inspect"}


def fresh(code: str, budget: str | None = None) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports fairlot from this
    tree, with the default enumeration budget unless ``budget`` is given."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.pop("FAIRLOT_BUDGET", None)
    if budget is not None:
        env["FAIRLOT_BUDGET"] = budget
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=False)


def loaded_after(code: str) -> list:
    """``[out, submodules, avoided]``: the value ``code`` leaves in ``out``
    (None if it leaves none), the fairlot submodules loaded once it has
    run, and the modules of ``AVOIDED`` loaded by then."""
    proc = fresh(code + "\nimport json, sys\nprint(json.dumps([globals().get('out'), sorted("
                 "m.split('.', 1)[1] for m in sys.modules if m.startswith('fairlot.')), "
                 f"sorted({sorted(AVOIDED)!r} & sys.modules.keys())]))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_fairlot_loads_no_submodule():
    assert loaded_after("import fairlot")[1] == []


def test_import_cli_loads_what_every_command_needs():
    _, loaded, avoided = loaded_after("import fairlot.cli")
    assert set(loaded) == EVERY_COMMAND and avoided == []


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 3x4 instance, its ps lottery and its ps matrix."""
    tmp = tmp_path_factory.mktemp("loads")
    utilities = {f"a{i}": {f"o{j}": (5 * i + 3 * j) % 7 + 1 for j in range(4)} for i in range(3)}
    instance = tmp / "instance.json"
    instance.write_text(fileio.dumps(fileio.instance_to_obj(Instance.from_utilities(utilities))))
    lottery, matrix = tmp / "lottery.json", tmp / "matrix.json"
    assert main(["lottery", "--rule", "ps", "--input", str(instance), "--out", str(lottery)]) == 0
    doc = json.loads(lottery.read_text())
    matrix.write_text(json.dumps({"rows": doc["agents"], "items": doc["items"],
                                  "entries": doc["expected"]}))
    return {"instance": str(instance), "lottery": str(lottery), "matrix": str(matrix)}


PROPERTIES = [["--property", p] for p in ("ef", "sdef", "sdeff", "ef1", "sdef1", "strong-ef1",
                                          "rb", "po")] + [["--property", "efk", "--k", "1"]]
COMMANDS = [
    (["solve", "--rule", "ps"], BUILD),
    (["solve", "--rule", "eps"], BUILD),
    (["lottery", "--rule", "ps", "--reduce", "--out", "-"], BUILD),
    (["lottery", "--rule", "eps", "--out", "-"], BUILD),
    *[(["verify", *p, "--lottery", "{lottery}"], CHECK) for p in PROPERTIES],
    *[(["oracle", "--filter", f, "--allocation", "{matrix}"], ORACLE)
      for f in ("ef1-po", "balanced-po", "none")],
    (["gen", "--agents", "3", "--items", "4", "--seed", "1"], EVERY_COMMAND),
]


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=[" ".join(c[0][:3]) for c in COMMANDS])
def test_command_loads_only_what_it_runs(files, argv, modules):
    argv = [a.format(**files) for a in argv]
    if argv[0] != "gen":
        argv += ["--input", files["instance"]]
    code, loaded, avoided = loaded_after(
        "import contextlib, io\nfrom fairlot.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    out = main({argv!r})")
    assert code in (0, 1)
    assert set(loaded) == modules
    assert avoided == []


def test_budget_refusal_exits_2_with_its_message(files):
    argv = ["verify", "--property", "po", "--input", files["instance"],
            "--lottery", files["lottery"]]
    proc = fresh(f"import sys\nfrom fairlot.cli import main\nsys.exit(main({argv!r}))", "80")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "fairlot: refused: 3^4 allocations exceed the budget 80\n"


def test_wrappers_set_before_the_first_command_are_called(files):
    """As a traced benchmark run does: look a name up on ``fairlot.cli``,
    set a wrapper there, run commands, then put the original back."""
    lottery = ["lottery", "--rule", "ps", "--reduce", "--input", files["instance"], "--out", "-"]
    verify = ["verify", "--property", "sdef1", "--input", files["instance"],
              "--lottery", files["lottery"]]
    out = loaded_after(f"""
import contextlib, io
import fairlot.cli as cli
calls, saved = [], {{}}
for name in ("check_sd_ef1", "reduce_support"):
    saved[name] = original = getattr(cli, name)
    def wrapper(*args, _name=name, _original=original, **kwargs):
        calls.append(_name)
        return _original(*args, **kwargs)
    setattr(cli, name, wrapper)
def run():
    with contextlib.redirect_stdout(io.StringIO()):
        return [cli.main({lottery!r}), cli.main({verify!r})]
codes = run()
traced = list(calls)
for name, original in saved.items():
    setattr(cli, name, original)
out = [codes + run(), traced, calls[len(traced):],
       all(getattr(cli, name) is f for name, f in saved.items())]
""")[0]
    codes, traced, after_restore, restored = out
    assert codes == [0, 0, 0, 0]
    assert traced[0] == "reduce_support" and traced.count("reduce_support") == 1
    assert traced.count("check_sd_ef1") == len(json.loads(Path(files["lottery"]).read_text())
                                               ["support"])
    assert after_restore == [] and restored


# Every public name of the package, by the module that defines it.
PUBLIC = {
    "birkhoff": "birkhoff_decompose",
    "eps": "eps_outcome globally_unwanted",
    "fairness": "Report check_ef check_ef1 check_efk check_po_bruteforce check_rb "
                "check_sd_ef check_sd_ef1 check_sd_efficient check_strong_ef1 pareto_front",
    "model": "BudgetExceeded DeterministicAllocation EatingTrace Instance Lottery "
             "OrdinalProfile RandomAllocation SdRelation TraceSegment "
             "expected_allocation format_rational ordinal_from_utilities rational "
             "sd_compare",
    "oracle": "InfeasibilityCertificate enumerate_allocations implementable_by "
              "sd_improvement_exists",
    "ps": "ps_outcome",
    "pslottery": "PaddedInstance Plan implement pad_with_dummies plan project "
                 "ps_lottery re_eat reduce_support support_bound",
}
SUBMODULES = ["birkhoff", "eps", "fairness", "fileio", "model", "oracle", "ps", "pslottery",
              "simplex"]
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_is_the_definition(module, name):
    assert getattr(fairlot, name) is getattr(importlib.import_module(f"fairlot.{module}"), name)


def test_submodules_are_attributes():
    for module in SUBMODULES:
        assert getattr(fairlot, module) is importlib.import_module(f"fairlot.{module}")


def test_every_public_name_is_listed_and_star_imported():
    names = {name for _, name in NAMES} | set(SUBMODULES)
    assert len(names) == 52
    assert sorted(fairlot.__all__) == sorted(names)
    assert names <= set(dir(fairlot))
    namespace = {}
    exec("from fairlot import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == names
    assert all(value is getattr(fairlot, name) for name, value in namespace.items())


def referenced(path: Path, strings: bool) -> set[str]:
    """Identifiers a module refers to: names it reads, attributes and the
    names it imports, and with ``strings`` each dotted part of its string
    literals (``benchmarks/spans.py`` names what it wraps by string)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.replace(".", " ").split())
    return found


def used_outside_tests() -> set[str]:
    """Identifiers the package and the benchmark refer to."""
    return set().union(*(referenced(path, False) for path in (SRC / "fairlot").glob("*.py")),
                       *(referenced(path, True) for path in (SRC.parent / "benchmarks").glob("*.py")))


def test_public_names_only_tests_use_are_pinned():
    # Public names that neither the package (the defining module
    # included) nor the benchmark refers to: only tests call them.  A new
    # such name fails here; moving one out of the package shrinks the set.
    assert sorted(set(fairlot._EXPORTS) - used_outside_tests()) == []


def test_public_methods_only_tests_use_are_pinned():
    """The same for the public methods and properties of the package's
    public classes.  Matching is by name alone: a member whose name the
    package or the benchmark uses for anything (a variable, a key, another
    class's member) counts as used, so such a member only tests call
    is not caught."""
    members = {
        member
        for name in fairlot._EXPORTS
        if isinstance(cls := getattr(fairlot, name), type) and cls.__module__.startswith("fairlot.")
        for member, value in vars(cls).items()
        if not member.startswith("_")
        and isinstance(value, (property, classmethod, staticmethod, types.FunctionType))
    }
    assert sorted(members - used_outside_tests()) == []


def test_cli_resolves_every_public_name():
    # ``benchmarks/spans.py`` looks names up on ``fairlot.cli`` before any
    # command has run and bound them.
    proc = fresh("import fairlot, fairlot.cli as cli\n"
                 "print(all(getattr(cli, n) is getattr(fairlot, n) for n in fairlot._EXPORTS))")
    assert proc.stdout == "True\n", proc.stderr


def test_budget_exceeded_is_one_class():
    from fairlot import fairness, model, oracle

    assert fairlot.BudgetExceeded is fairness.BudgetExceeded is model.BudgetExceeded
    assert oracle.BudgetExceeded is model.BudgetExceeded


@pytest.mark.parametrize("module", ["fairlot", "fairlot.cli"])
def test_unknown_names_raise_attribute_error(module):
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(importlib.import_module(module), "no_such_name")
