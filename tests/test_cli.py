import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from fairlot import Instance, fileio, ordinal_from_utilities
from fairlot.model import _MAX_DIGITS, _MAX_LITERAL, format_rational, rational
from fairlot.cli import main
from references import SdRelation, sd_compare
from test_golden import checking_inputs, hand_files

EXAMPLE = {
    "agents": ["1", "2"],
    "items": ["a", "b", "c", "d"],
    "utilities": {
        "1": {"a": "4", "b": "3", "c": "2", "d": "1"},
        "2": {"a": "4", "b": "2", "c": "3", "d": "1"},
    },
}


def run(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE))
    return str(path)


def test_gen_is_deterministic():
    code1, out1 = run(["gen", "--agents", "2", "--items", "4", "--seed", "7"])
    code2, out2 = run(["gen", "--agents", "2", "--items", "4", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3 = run(["gen", "--agents", "2", "--items", "4", "--seed", "8"])
    assert out3 != out1


def test_gen_binary_and_roundtrip(tmp_path):
    code, out = run(["gen", "--agents", "3", "--items", "5", "--seed", "1", "--binary"])
    assert code == 0
    doc = json.loads(out)
    values = [v for row in doc["utilities"].values() for v in row.values()]
    assert set(values) <= {"0", "1"}
    path = tmp_path / "gen.json"
    path.write_text(out)
    code, solved = run(["solve", "--rule", "eps", "--input", str(path)])
    assert code == 0 and json.loads(solved)["items"] == doc["items"]


def test_solve_ps_worked_example(example_file):
    code, out = run(["solve", "--rule", "ps", "--input", example_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [["1/2", "1", "0", "1/2"], ["1/2", "0", "1", "1/2"]]


def test_solve_single_agent(tmp_path):
    path = tmp_path / "solo.json"
    path.write_text(json.dumps({
        "agents": ["z"], "items": ["a", "b"],
        "utilities": {"z": {"a": "2", "b": "1"}},
    }))
    code, out = run(["solve", "--rule", "ps", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["entries"] == [["1", "1"]]


def test_solve_skip_zero(tmp_path):
    path = tmp_path / "binary.json"
    path.write_text(json.dumps({
        "agents": ["1", "2"], "items": ["a", "b"],
        "utilities": {"1": {"a": "1", "b": "0"}, "2": {"a": "1", "b": "1"}},
    }))
    code, out = run(["solve", "--rule", "eps", "--skip-zero", "--input", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [["1", "0"], ["0", "1"]]
    assert doc["padded_items"] == []


def test_solve_skip_zero_rejects_cardinal(example_file):
    code, _ = run(["solve", "--rule", "eps", "--skip-zero", "--input", example_file])
    assert code == 2


def test_lottery_worked_example(tmp_path, example_file):
    out_path = tmp_path / "lot.json"
    code, _ = run(["lottery", "--rule", "ps", "--input", example_file,
                   "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["expected"] == [["1/2", "1", "0", "1/2"], ["1/2", "0", "1", "1/2"]]
    support = {
        tuple(sorted(entry["assignment"].items())): entry["weight"]
        for entry in doc["support"]
    }
    assert support == {
        (("a", "1"), ("b", "1"), ("c", "2"), ("d", "2")): "1/2",
        (("a", "2"), ("b", "1"), ("c", "2"), ("d", "1")): "1/2",
    }
    assert doc["metadata"]["rule"] == "ps"
    assert doc["metadata"]["tie_break"]["1"] == ["a", "b", "c", "d"]
    # the lottery file round-trips and validates on load
    lottery, expected, metadata = fileio.lottery_from_obj(doc)
    assert fileio.lottery_to_obj(lottery, expected, metadata) == doc


def test_lottery_reduce_flag(tmp_path, example_file):
    out_path = tmp_path / "lot.json"
    code, _ = run(["lottery", "--rule", "ps", "--reduce", "--input", example_file,
                   "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["support"]) <= 2 * 4 + 1
    assert doc["metadata"]["reduced"] is True


def test_lottery_to_stdout(example_file):
    code, out = run(["lottery", "--rule", "eps", "--input", example_file, "--out", "-"])
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize("out, reason", [
    ("", "Is a directory"), ("missing/lottery.json", "No such file or directory"),
], ids=["directory", "missing-directory"])
def test_lottery_out_to_a_bad_path_exits_2(tmp_path, example_file, capsys, out, reason):
    target = tmp_path / out
    code, _ = run(["lottery", "--rule", "ps", "--input", example_file, "--out", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fairlot: error: output file {target}: [Errno ")
    assert reason in err and "Traceback" not in err


def test_lottery_single_agent(tmp_path):
    path = tmp_path / "solo.json"
    path.write_text(json.dumps({
        "agents": ["z"], "items": ["a", "b", "c"],
        "utilities": {"z": {"a": "3", "b": "2", "c": "1"}},
    }))
    code, out = run(["lottery", "--rule", "ps", "--input", str(path), "--out", "-"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["support"]) == 1
    assert doc["support"][0]["weight"] == "1"
    assert set(doc["support"][0]["assignment"].values()) == {"z"}


def test_lottery_support_bounds_3x7(tmp_path):
    code, generated = run(["gen", "--agents", "3", "--items", "7", "--seed", "5"])
    assert code == 0
    path = tmp_path / "i37.json"
    path.write_text(generated)
    code, out = run(["lottery", "--rule", "ps", "--input", str(path), "--out", "-"])
    assert code == 0
    # c = 3, so the decomposition yields at most (3*3)^2 - 2*9 + 2 parts
    assert len(json.loads(out)["support"]) <= 65
    code, out = run(["lottery", "--rule", "ps", "--reduce", "--input", str(path),
                     "--out", "-"])
    assert code == 0
    assert len(json.loads(out)["support"]) <= 3 * 7 + 1


def test_verify_pass_and_fail(tmp_path, example_file):
    lot_path = tmp_path / "lot.json"
    run(["lottery", "--rule", "ps", "--input", example_file, "--out", str(lot_path)])
    for prop in ("ef", "sdef", "sdeff", "ef1", "sdef1", "strong-ef1", "rb", "po"):
        code, out = run(["verify", "--property", prop, "--input", example_file,
                         "--lottery", str(lot_path)])
        assert code == 0, (prop, out)
        assert json.loads(out)["verdict"] == "PASS"
    code, out = run(["verify", "--property", "efk", "--k", "1",
                     "--input", example_file, "--lottery", str(lot_path)])
    assert code == 0

    bad = {
        "agents": ["1", "2"],
        "items": ["a", "b", "c", "d"],
        "expected": [["1/2"] * 4, ["1/2"] * 4],
        "support": [
            {"weight": "1/2", "assignment": {o: "1" for o in "abcd"}},
            {"weight": "1/2", "assignment": {o: "2" for o in "abcd"}},
        ],
        "metadata": {},
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, out = run(["verify", "--property", "ef1", "--input", example_file,
                     "--lottery", str(bad_path)])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "FAIL"
    assert any(entry["verdict"] == "FAIL" for entry in doc["support"])


def test_verify_sdeff_failure_carries_a_dominating_matrix(tmp_path):
    # The hand-written lottery has ties, and its expectation is not
    # SD-efficient.
    instance_path, lottery_path = hand_files(tmp_path)
    code, out = run(["verify", "--property", "sdeff", "--input", instance_path,
                     "--lottery", lottery_path])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "FAIL"
    better = fileio.matrix_from_obj(doc["violation"]["dominating_allocation"])
    with open(instance_path) as handle:
        instance = fileio.instance_from_obj(json.load(handle))
    with open(lottery_path) as handle:
        _, expected, _ = fileio.lottery_from_obj(json.load(handle))
    prefs = ordinal_from_utilities(instance)
    relations = [sd_compare(prefs, a, better.row(a), expected.row(a))
                 for a in instance.agents]
    assert set(relations) <= {SdRelation.DOMINATES, SdRelation.EQUIVALENT}
    assert SdRelation.DOMINATES in relations


def test_verify_sdeff_never_solves_an_lp(tmp_path, monkeypatch):
    # Both the tied PASS case and the tied hand FAIL case are decided
    # without the simplex.
    cases = []
    for kind, seed, n, m in (("tied", 2, 3, 7), ("hand", 0, 3, 5)):
        (tmp_path / kind).mkdir()
        cases.append(checking_inputs(tmp_path / kind, kind, seed, n, m))

    def refuse(*args, **kwargs):
        raise AssertionError("verify sdeff reached the simplex")

    monkeypatch.setattr("fairlot.oracle.solve_lp", refuse)
    codes = [run(["verify", "--property", "sdeff", "--input", instance,
                  "--lottery", lottery])[0]
             for instance, lottery, _ in cases]
    assert codes == [0, 1]


@pytest.mark.parametrize("prop", ["ef", "ef1"])
def test_verify_needs_lottery(example_file, capsys, prop):
    # argparse rejects the command line before any property runs.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--property", prop, "--input", example_file])
    assert exc.value.code == 2
    assert "the following arguments are required: --lottery" in capsys.readouterr().err


def test_verify_efk_needs_k(tmp_path, example_file, capsys):
    # Refused before either file is read: the lottery file does not exist,
    # and the missing or negative --k is what the error names.
    for flags in ([], ["--k", "-1"]):
        code, out = run(["verify", "--property", "efk", *flags, "--input", example_file,
                         "--lottery", str(tmp_path / "missing.json")])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "fairlot: error: --property efk needs a nonnegative --k\n"


@pytest.mark.parametrize("prop", ["ef", "ef1", "sdef1", "po"])
def test_verify_k_with_another_property_is_a_usage_error(tmp_path, capsys, prop):
    # Refused before either file is read: neither file exists.
    code, out = run(["verify", "--property", prop, "--k", "3", "--input",
                     str(tmp_path / "missing.json"), "--lottery", str(tmp_path / "missing.json")])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "fairlot: error: --k applies to --property efk only\n"


def test_verify_rejects_inconsistent_lottery_file(tmp_path, example_file):
    broken = {
        "agents": ["1", "2"],
        "items": ["a", "b", "c", "d"],
        "expected": [["1", "0", "0", "0"], ["0", "1", "1", "1"]],
        "support": [{"weight": "1", "assignment": {o: "1" for o in "abcd"}}],
        "metadata": {},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, _ = run(["verify", "--property", "ef1", "--input", example_file,
                   "--lottery", str(path)])
    assert code == 2


def test_oracle_feasible(tmp_path, example_file):
    matrix = {
        "rows": ["1", "2"],
        "items": ["a", "b", "c", "d"],
        "entries": [["1/2", "1", "0", "1/2"], ["1/2", "0", "1", "1/2"]],
    }
    m_path = tmp_path / "m.json"
    m_path.write_text(json.dumps(matrix))
    code, out = run(["oracle", "--filter", "none", "--input", example_file,
                     "--allocation", str(m_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    recomposed, expected, _ = fileio.lottery_from_obj(doc["lottery"])


def test_oracle_unit_target(tmp_path, example_file):
    matrix = {
        "rows": ["1", "2"],
        "items": ["a", "b", "c", "d"],
        "entries": [["1", "1", "0", "0"], ["0", "0", "1", "1"]],
    }
    m_path = tmp_path / "m.json"
    m_path.write_text(json.dumps(matrix))
    code, out = run(["oracle", "--filter", "balanced-po", "--input", example_file,
                     "--allocation", str(m_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert len(doc["lottery"]["support"]) == 1
    assert doc["lottery"]["support"][0]["weight"] == "1"


def test_oracle_impossibility_instance_infeasible(tmp_path):
    instance = {
        "agents": ["1", "2"],
        "items": ["a", "b1", "b2", "b3"],
        "utilities": {
            "1": {"a": "7", "b1": "1", "b2": "1", "b3": "1"},
            "2": {"a": "4", "b1": "2", "b2": "2", "b3": "2"},
        },
    }
    i_path = tmp_path / "i.json"
    i_path.write_text(json.dumps(instance))
    matrix = {
        "rows": ["1", "2"],
        "items": ["a", "b1", "b2", "b3"],
        "entries": [["1/2"] * 4, ["1/2"] * 4],
    }
    m_path = tmp_path / "m.json"
    m_path.write_text(json.dumps(matrix))
    code, out = run(["oracle", "--filter", "ef1-po", "--input", str(i_path),
                     "--allocation", str(m_path)])
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["certificate_verified"] is True


def test_oracle_budget_refusal(tmp_path, example_file, monkeypatch):
    monkeypatch.setenv("FAIRLOT_BUDGET", "4")
    matrix = {
        "rows": ["1", "2"],
        "items": ["a", "b", "c", "d"],
        "entries": [["1/2"] * 4, ["1/2"] * 4],
    }
    m_path = tmp_path / "m.json"
    m_path.write_text(json.dumps(matrix))
    code, _ = run(["oracle", "--filter", "none", "--input", example_file,
                   "--allocation", str(m_path)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--property", "po", "--lottery"],
    *[["oracle", "--filter", name, "--allocation"] for name in ("ef1-po", "balanced-po", "none")],
], ids=["po", "ef1-po", "balanced-po", "none"])
def test_over_budget_refuses_before_reading_the_second_file(tmp_path, example_file,
                                                            monkeypatch, capsys, argv):
    # The lottery or target file does not exist: the refusal comes first.
    monkeypatch.setenv("FAIRLOT_BUDGET", "15")
    code, out = run([*argv, str(tmp_path / "missing.json"), "--input", example_file])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "fairlot: refused: 2^4 allocations exceed the budget 15\n"


def test_budget_refusal_past_the_digit_limit(tmp_path, monkeypatch, capsys):
    # 2^15000 has 4516 digits, more than str() of an int may write.
    monkeypatch.delenv("FAIRLOT_BUDGET", raising=False)
    code, out = run(["gen", "--agents", "2", "--items", "15000", "--seed", "1"])
    assert code == 0
    i_path, m_path = tmp_path / "i.json", tmp_path / "m.json"
    i_path.write_text(out)
    doc = json.loads(out)
    m_path.write_text(json.dumps({"rows": doc["agents"], "items": doc["items"],
                                  "entries": [["1/2"] * 15000] * 2}))
    capsys.readouterr()
    code, out = run(["oracle", "--filter", "ef1-po", "--input", str(i_path),
                     "--allocation", str(m_path)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "fairlot: refused: 2^15000 allocations exceed the budget 65536\n")


@pytest.mark.parametrize("value", ["-5", "1e5"])
def test_oracle_rejects_bad_budget(tmp_path, example_file, monkeypatch, capsys, value):
    monkeypatch.setenv("FAIRLOT_BUDGET", value)
    matrix = {"rows": ["1", "2"], "items": ["a", "b", "c", "d"],
              "entries": [["1/2"] * 4, ["1/2"] * 4]}
    m_path = tmp_path / "m.json"
    m_path.write_text(json.dumps(matrix))
    code, _ = run(["oracle", "--filter", "none", "--input", example_file,
                   "--allocation", str(m_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "FAIRLOT_BUDGET" in err and repr(value) in err


def _example_lottery():
    return {
        "agents": ["1", "2"],
        "items": ["a", "b", "c", "d"],
        "expected": [["1", "1", "0", "0"], ["0", "0", "1", "1"]],
        "support": [{"weight": "1",
                     "assignment": {"a": "1", "b": "1", "c": "2", "d": "2"}}],
    }


@pytest.mark.parametrize("field, value, where", [
    ("assignment", ["1", "1", "2", "2"], "lottery.support[0].assignment"),
    ("owner", ["1"], "lottery.support[0].assignment"),
    ("agents", "12", "lottery.agents"),
    ("support", {"weight": "1"}, "lottery.support"),
    ("element", "1", "lottery.support[0]"),
    ("weight", None, "lottery.support[0]"),
    ("weight", "1/0", "lottery.support[0].weight"),
    ("assignment", None, "lottery.support[0]"),
])
def test_malformed_lottery_exits_2(tmp_path, example_file, capsys, field, value, where):
    doc = _example_lottery()
    if value is None:
        del doc["support"][0][field]
    elif field == "element":
        doc["support"][0] = value
    elif field in ("assignment", "weight"):
        doc["support"][0][field] = value
    elif field == "owner":
        doc["support"][0]["assignment"]["a"] = value
    else:
        doc[field] = value
    path = tmp_path / "bad-lottery.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["verify", "--property", "ef1", "--input", example_file,
                   "--lottery", str(path)])
    assert code == 2
    assert f"fairlot: error: {where}:" in capsys.readouterr().err


@pytest.mark.parametrize("assignment, message", [
    ({"x": "a", "bogus": "nobody"}, "unknown item 'bogus'"),
    ({}, "item 'x' has no owner"),
])
def test_assignment_keys_are_the_items(tmp_path, capsys, assignment, message):
    # An assignment names exactly the lottery's items: an extra key would
    # otherwise be read past and the lottery judged as if it were absent.
    instance, lottery = tmp_path / "instance.json", tmp_path / "lottery.json"
    instance.write_text(json.dumps({"agents": ["a"], "items": ["x"],
                                    "utilities": {"a": {"x": "1"}}}))
    lottery.write_text(json.dumps({"agents": ["a"], "items": ["x"], "expected": [["1"]],
                                   "support": [{"weight": "1", "assignment": assignment}]}))
    code, out = run(["verify", "--property", "ef", "--input", str(instance),
                     "--lottery", str(lottery)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"fairlot: error: lottery.support[0].assignment: {message}\n")


def _one_item_files(tmp_path, lottery_items):
    """A 1x1 instance (agent a, item x) and a lottery document that lists
    ``lottery_items`` and gives x to a."""
    instance, lottery = tmp_path / "instance.json", tmp_path / "lottery.json"
    instance.write_text(json.dumps({"agents": ["a"], "items": ["x"],
                                    "utilities": {"a": {"x": "1"}}}))
    doc = {"agents": ["a"], "items": lottery_items, "expected": [["1"] * len(lottery_items)],
           "support": [{"weight": "1", "assignment": {"x": "a"}}]}
    lottery.write_text(json.dumps(doc))
    return instance, lottery, doc


def test_reader_rejects_duplicate_lottery_items(tmp_path):
    # Two units of x would otherwise be judged against an instance with one.
    _, _, doc = _one_item_files(tmp_path, ["x", "x"])
    with pytest.raises(fileio.FormatError, match=r"^lottery: duplicate item ids$"):
        fileio.lottery_from_obj(doc)


def test_verify_rejects_duplicate_lottery_items(tmp_path, capsys):
    instance, lottery, _ = _one_item_files(tmp_path, ["x", "x"])
    code, out = run(["verify", "--property", "ef", "--input", str(instance),
                     "--lottery", str(lottery)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "fairlot: error: lottery: duplicate item ids\n"
    instance, lottery, _ = _one_item_files(tmp_path, ["x"])
    assert run(["verify", "--property", "ef", "--input", str(instance),
                "--lottery", str(lottery)])[0] == 0


def _three_part_lottery():
    # Weights on the lcm L = 6; owners of a..d per allocation.
    support = (("1/6", "1122"), ("1/3", "2112"), ("1/2", "1212"))
    return {
        "agents": ["1", "2"],
        "items": ["a", "b", "c", "d"],
        "expected": [["2/3", "1/2", "5/6", "0"], ["1/3", "1/2", "1/6", "1"]],
        "support": [{"weight": w, "assignment": dict(zip("abcd", owners))}
                    for w, owners in support],
    }


@pytest.mark.parametrize("cells", [
    {(0, 0): "5/6", (1, 0): "1/6"},  # one entry off by 1/L, its column kept at 1
    {(0, 2): "1/6", (1, 2): "5/6"},  # the two agents' entries swapped in a column
    {(0, 3): "1/6", (1, 3): "5/6"},  # mass on a cell no allocation gives
])
def test_expected_matrix_must_recompose(tmp_path, example_file, capsys, cells):
    doc = _three_part_lottery()
    path = tmp_path / "lottery.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["verify", "--property", "ef1", "--input", example_file,
                   "--lottery", str(path)])
    assert code == 0
    for (row, col), value in cells.items():
        doc["expected"][row][col] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code, _ = run(["verify", "--property", "ef1", "--input", example_file,
                   "--lottery", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "fairlot: error: lottery: expected matrix does not equal the recomposed support\n")


@pytest.mark.parametrize("field, value", [("agents", ["1", "3"]), ("items", list("abcz"))])
def test_verify_rejects_other_universe(tmp_path, example_file, capsys, field, value):
    doc = _example_lottery()
    doc[field] = value
    # The first two items to the first agent, the rest to the second, as
    # in the expected matrix.
    first, second = doc["agents"]
    doc["support"][0]["assignment"] = dict(zip(doc["items"], [first, first, second, second]))
    path = tmp_path / "other-lottery.json"
    path.write_text(json.dumps(doc))
    for prop in ("ef1", "po"):
        code, _ = run(["verify", "--property", prop, "--input", example_file,
                       "--lottery", str(path)])
        assert code == 2
        assert "universe does not match" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, where", [
    ("rows", [["1"], "2"], "matrix.rows"),
    ("items", ["a", "b", "c", 4], "matrix.items"),
    ("entries", [4, ["0", "0", "1", "1"]], "matrix.entries"),
])
def test_malformed_matrix_exits_2(tmp_path, example_file, capsys, field, value, where):
    doc = {"rows": ["1", "2"], "items": ["a", "b", "c", "d"],
           "entries": [["1", "1", "0", "0"], ["0", "0", "1", "1"]]}
    doc[field] = value
    path = tmp_path / "bad-matrix.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["oracle", "--filter", "none", "--input", example_file,
                   "--allocation", str(path)])
    assert code == 2
    assert f"fairlot: error: {where}:" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1e5000", "1E-4_301", "0e+10000000"])
@pytest.mark.parametrize("place", ["utility", "weight", "entry"])
def test_huge_exponent_exits_2(tmp_path, example_file, capsys, place, literal):
    path = tmp_path / "huge.json"
    if place == "utility":
        doc = json.loads(json.dumps(EXAMPLE))
        doc["utilities"]["1"]["a"] = literal
        argv = ["solve", "--rule", "ps", "--input", str(path)]
        where = "instance.utilities['1']['a']"
    elif place == "weight":
        doc = _example_lottery()
        doc["support"][0]["weight"] = literal
        argv = ["verify", "--property", "ef1", "--input", example_file, "--lottery", str(path)]
        where = "lottery.support[0].weight"
    else:
        doc = {"rows": ["1", "2"], "items": ["a", "b", "c", "d"],
               "entries": [["1", "1", literal, "0"], ["0", "0", "1", "1"]]}
        argv = ["oracle", "--filter", "ef1-po", "--input", example_file,
                "--allocation", str(path)]
        where = "matrix.entries[0][2]"
    path.write_text(json.dumps(doc))
    code, _ = run(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert f"fairlot: error: {where}:" in err and "exponent beyond 4300" in err


@pytest.mark.parametrize("literal", ["1e4300", "1e-4300", "2E+0_4300"])
def test_exponent_at_the_cap_is_accepted(tmp_path, literal):
    doc = json.loads(json.dumps(EXAMPLE))
    doc["utilities"]["1"]["a"] = literal
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["solve", "--rule", "ps", "--input", str(path)])
    assert code == 0


def test_certificate_past_4300_digits(tmp_path):
    # Agent 2 values a at 2e4300 and agent 1 owns it: the ef gap
    # 2e4300 + 2 - 3 - 1 has 4301 digits, past Python's int-to-str limit.
    doc = json.loads(json.dumps(EXAMPLE))
    doc["utilities"]["2"]["a"] = "2e4300"
    instance = tmp_path / "big.json"
    instance.write_text(json.dumps(doc))
    lottery = tmp_path / "lottery.json"
    lottery.write_text(json.dumps(_example_lottery()))
    code, out = run(["verify", "--property", "ef", "--input", str(instance),
                     "--lottery", str(lottery)])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "FAIL"
    gap = report["violation"]["gap"]
    assert len(gap) == 4301
    # int() has the same digit limit, so parse in chunks.
    value = 0
    for start in range(0, len(gap), 1000):
        chunk = gap[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == 2 * 10**4300 - 2


BIG = "1" + "0" * 4400  # int() alone refuses more than 4300 digits


def test_literals_past_4300_digits_read_back(tmp_path):
    doc = json.loads(json.dumps(EXAMPLE))
    doc["utilities"]["2"]["a"] = BIG
    doc["utilities"]["2"]["b"] = f"1/{BIG}"
    instance = fileio.instance_from_obj(doc)
    row = instance.utility_row("2")
    assert (row["a"], row["b"]) == (10**4400, Fraction(1, 10**4400))
    assert fileio.instance_to_obj(instance) == doc
    matrix = {"rows": ["1", "2"], "items": ["a"],
              "entries": [[f"1/{BIG}"], [f"{'9' * 4400}/{BIG}"]]}
    assert fileio.matrix_to_obj(fileio.matrix_from_obj(matrix)) == matrix
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["solve", "--rule", "ps", "--input", str(path)])
    assert code == 0


@pytest.mark.parametrize("literal, value", [
    (f"{BIG}_0", 10**4401),
    (f" -{BIG}/7 ", Fraction(-10**4400, 7)),
    (f"0.{BIG[1:]}1", Fraction(1, 10**4401)),
    (f"{BIG}.5e-4300", Fraction(10**4401 + 5, 10**4301)),
], ids=["underscore", "signed-fraction", "decimal", "exponent"])
def test_long_literal_forms(literal, value):
    assert rational(literal) == value
    # the Python API reads what the file reader reads
    instance = Instance.from_utilities({"1": {"a": literal.strip().lstrip("-")}})
    assert instance.utility_row("1") == {"a": abs(value)}


def test_literal_caps(tmp_path, capsys):
    # Numerators and denominators of up to _MAX_DIGITS digits are read,
    # and the longest such literal reads back from its written form.
    longest = Fraction(-(10**_MAX_DIGITS - 1), 10**_MAX_DIGITS - 2)
    written = format_rational(longest)
    assert len(written) == _MAX_LITERAL and rational(written) == longest
    doc = json.loads(json.dumps(EXAMPLE))
    path = tmp_path / "long.json"
    where = "fairlot: error: instance.utilities['1']['a']: bad rational literal"
    for literal, error in [
        ("9" * _MAX_DIGITS, None),
        ("1" + "0" * _MAX_DIGITS, f"more than {_MAX_DIGITS} digits in its numerator or denominator"),
        ("9" * 8000 + "e4300", f"more than {_MAX_DIGITS} digits in its numerator or denominator"),
        ("0" * (_MAX_LITERAL + 1), f"longer than {_MAX_LITERAL} characters"),
    ]:
        doc["utilities"]["1"]["a"] = literal
        path.write_text(json.dumps(doc))
        code, _ = run(["solve", "--rule", "ps", "--input", str(path)])
        err = capsys.readouterr().err
        if error is None:
            assert code == 0
        else:
            assert code == 2
            shown = f"'{literal[:39]}... ({len(literal) + 2} characters)"
            assert err == f"{where} {shown} ({error})\n"
    with pytest.raises(ValueError, match="exponent beyond 4300"):
        rational("1e4301")


@pytest.mark.parametrize("literal, shown", [
    *((v, repr(v)) for v in ["1/0", "1/2/3", "", 1.5, True, None]),
    (BIG + "x", repr(BIG)[:40] + "... (4404 characters)"),  # the echo is cut
], ids=["zero-denominator", "two-slashes", "empty", "float", "bool", "null", "long"])
def test_bad_literal_exits_2(tmp_path, capsys, literal, shown):
    doc = json.loads(json.dumps(EXAMPLE))
    doc["utilities"]["1"]["a"] = literal
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["solve", "--rule", "ps", "--input", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"fairlot: error: instance.utilities['1']['a']: bad rational literal {shown}")
    assert len(err) < 200


@pytest.mark.parametrize("cell, value, where", [
    ("o150", "x", "['a150']['o150']: bad rational literal 'x' (not a rational literal)"),
    ("o77", "3/0", "['a150']['o77']: bad rational literal '3/0' (zero denominator)"),
    ("o149", None, "['a150']: missing required key 'o149'"),
], ids=["last-cell", "zero-denominator", "missing"])
def test_bad_utility_in_the_last_row_is_located(tmp_path, capsys, cell, value, where):
    code, generated = run(["gen", "--agents", "150", "--items", "150", "--seed", "3"])
    assert code == 0
    doc = json.loads(generated)
    if value is None:
        del doc["utilities"]["a150"][cell]
    else:
        doc["utilities"]["a150"][cell] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["solve", "--rule", "ps", "--input", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"fairlot: error: instance.utilities{where}\n"


def test_bad_expected_entry_deep_in_a_lottery_is_located(tmp_path, capsys):
    code, generated = run(["gen", "--agents", "40", "--items", "40", "--seed", "3"])
    assert code == 0
    instance = tmp_path / "instance.json"
    instance.write_text(generated)
    lottery = tmp_path / "lottery.json"
    code, _ = run(["lottery", "--rule", "ps", "--input", str(instance), "--out", str(lottery)])
    assert code == 0
    doc = json.loads(lottery.read_text())
    doc["expected"][39][37] = "1/2/3"
    lottery.write_text(json.dumps(doc))
    code, _ = run(["verify", "--property", "ef", "--input", str(instance),
                   "--lottery", str(lottery)])
    assert code == 2
    assert capsys.readouterr().err == (
        "fairlot: error: lottery.expected[39][37]: bad rational literal '1/2/3' "
        "(not a rational literal)\n")


def test_malformed_json_diagnostic(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code = main(["solve", "--rule", "ps", "--input", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err


@pytest.mark.parametrize("file, flag", [
    ("instance file", "--input"), ("lottery file", "--lottery"),
], ids=["instance", "lottery"])
def test_json_number_past_4300_digits_is_located(tmp_path, example_file, capsys, file, flag):
    # The same digits are read when written as a string (see
    # test_literals_past_4300_digits_read_back); as a JSON number
    # json.load refuses them before any key is known.
    path = tmp_path / "number.json"
    path.write_text(json.dumps(EXAMPLE).replace('"4"', BIG, 1))
    if flag == "--input":
        argv = ["solve", "--rule", "ps", "--input", str(path)]
    else:
        argv = ["verify", "--property", "ef1", "--input", example_file, "--lottery", str(path)]
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == (
        f"fairlot: error: {file} {path}: a JSON number has more than 4300 digits;"
        " write it as a string\n")


@pytest.mark.parametrize("file, flag", [
    ("instance file", "--input"), ("lottery file", "--lottery"),
    ("allocation file", "--allocation"),
], ids=["solve-input", "verify-lottery", "oracle-allocation"])
def test_deep_nesting_is_located(tmp_path, example_file, capsys, file, flag):
    # json.load recurses once per level and raises RecursionError, which
    # is neither a JSONDecodeError nor a ValueError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    argv = {
        "--input": ["solve", "--rule", "ps", "--input", str(path)],
        "--lottery": ["verify", "--property", "ef", "--input", example_file,
                      "--lottery", str(path)],
        "--allocation": ["oracle", "--filter", "ef1-po", "--input", example_file,
                         "--allocation", str(path)],
    }[flag]
    code, out = run(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"fairlot: error: {file} {path}: JSON nested too deeply to read\n")


@pytest.mark.parametrize("flag, nested", [
    ("--input", False), ("--input", True), ("--lottery", False), ("--lottery", True),
    ("--allocation", False), ("--allocation", True),
])
def test_duplicate_keys_are_located(tmp_path, example_file, capsys, flag, nested):
    # json.load keeps the last of two equal keys; reading on would judge a
    # document other than the one written.
    lottery, matrix = tmp_path / "lottery.json", tmp_path / "matrix.json"
    assert run(["lottery", "--rule", "ps", "--input", example_file,
                "--out", str(lottery)])[0] == 0
    code, out = run(["solve", "--rule", "ps", "--input", example_file])
    matrix.write_text(out)
    file, source, (old, new, key) = {
        "--input": ("instance file", example_file, (
            ('"b": "2",', '"b": "2", "b": "5",', "b") if nested else
            ('"utilities": {', '"utilities": {}, "utilities": {', "utilities"))),
        "--lottery": ("lottery file", lottery, (
            ('"assignment": {', '"assignment": {"d": "1",', "d") if nested else
            ('"agents": [', '"agents": [], "agents": [', "agents"))),
        "--allocation": ("allocation file", matrix, (
            ('"entries": [', '"entries": [{"x": 0, "x": 1}, ', "x") if nested else
            ('"items": [', '"items": [], "items": [', "items"))),
    }[flag]
    text = open(source).read()
    assert old in text
    path = tmp_path / "duplicate.json"
    path.write_text(text.replace(old, new, 1))
    argv = {
        "--input": ["solve", "--rule", "ps", "--input", str(path)],
        "--lottery": ["verify", "--property", "ef", "--input", example_file,
                      "--lottery", str(path)],
        "--allocation": ["oracle", "--filter", "ef1-po", "--input", example_file,
                         "--allocation", str(path)],
    }[flag]
    capsys.readouterr()
    code, out = run(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"fairlot: error: {file} {path}: duplicate key {key!r}\n")


def test_undecodable_file_is_located(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(EXAMPLE).replace('"a"', '"\xe9"').encode("latin-1"))
    code = main(["solve", "--rule", "ps", "--input", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"fairlot: error: instance file {path}: 'utf-8' codec can't decode")


def test_incomplete_instance_diagnostic(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({
        "agents": ["1"], "items": ["a", "b"],
        "utilities": {"1": {"a": "1"}},
    }))
    code, _ = run(["solve", "--rule", "ps", "--input", str(path)])
    assert code == 2


def test_instance_roundtrip():
    instance = fileio.instance_from_obj(EXAMPLE)
    assert fileio.instance_from_obj(fileio.instance_to_obj(instance)) == instance


def test_matrix_roundtrip():
    obj = {
        "rows": ["1", "2"],
        "items": ["a", "b"],
        "entries": [["1/3", "2/3"], ["2/3", "1/3"]],
    }
    matrix = fileio.matrix_from_obj(obj)
    assert fileio.matrix_to_obj(matrix) == obj


def test_documents_bypass_the_python_json_encoder(tmp_path, example_file, monkeypatch):
    # json.dumps(..., indent=...) always runs json's pure-Python encoder.
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    lottery = tmp_path / "lot.json"
    for argv in (
        ["gen", "--agents", "3", "--items", "5", "--seed", "1"],
        ["solve", "--rule", "eps", "--input", example_file],
        ["lottery", "--rule", "ps", "--input", example_file, "--out", str(lottery)],
        ["verify", "--property", "sdef", "--input", example_file, "--lottery", str(lottery)],
        ["verify", "--property", "rb", "--input", example_file, "--lottery", str(lottery)],
    ):
        code, _ = run(argv)
        assert code == 0, argv


def test_pipeline_byte_determinism(tmp_path, example_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["lottery", "--rule", "ps", "--input", example_file, "--out", str(a)])
    run(["lottery", "--rule", "ps", "--input", example_file, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


class FullStdout(io.StringIO):
    """A standard output on a full disk: ``write`` or ``flush`` raises."""

    def __init__(self, failing: str) -> None:
        super().__init__()
        self.failing = failing

    def write(self, text: str) -> int:
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self) -> None:
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


NO_SPACE = "fairlot: error: standard output: [Errno 28] No space left on device\n"


def printing_commands(tmp_path, example_file):
    """One command line per command that prints a document."""
    lottery = tmp_path / "lottery.json"
    assert run(["lottery", "--rule", "ps", "--input", example_file, "--out", str(lottery)])[0] == 0
    matrix = tmp_path / "matrix.json"
    matrix.write_text(run(["solve", "--rule", "ps", "--input", example_file])[1])
    return [
        ["gen", "--agents", "2", "--items", "2", "--seed", "1"],
        ["solve", "--rule", "eps", "--input", example_file],
        ["lottery", "--rule", "ps", "--input", example_file, "--out", "-"],
        ["verify", "--property", "ef", "--input", example_file, "--lottery", str(lottery)],
        ["verify", "--property", "ef1", "--input", example_file, "--lottery", str(lottery)],
        ["oracle", "--filter", "ef1-po", "--input", example_file, "--allocation", str(matrix)],
    ]


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_failed_stdout_write_exits_2(tmp_path, example_file, capsys, failing):
    # Exit 1 means FAIL: a full disk must not read as a failed property.
    for argv in printing_commands(tmp_path, example_file):
        with contextlib.redirect_stdout(FullStdout(failing)):
            code = main(argv)
        assert code == 2, argv
        assert capsys.readouterr().err == NO_SPACE, argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("items", ["2", "400"], ids=["small", "past-the-buffer"])
def test_stdout_on_a_full_device_exits_2(unbuffered, items):
    # Buffered, the small document waits in the buffer until main flushes
    # it; what the failed flush leaves there must not fail again as Python
    # exits (status 120, "Exception ignored").
    env = dict(os.environ, PYTHONPATH=str(Path(fileio.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "fairlot.cli", "gen", "--agents", "2", "--items", items,
             "--seed", "1"], stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (2, NO_SPACE)


# Mutations of valid documents for the verify fuzzer.  A swapped-in
# value is JSON of another type, a literal the reader refuses, or an id.
ODD_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                       st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from(["", "x", "1/0", "-1", "2", "1e99999", "1", "a", "d"]),
                       st.just([]), st.just({}), st.just(["1", "1"]))


def _paths(doc, path=()):
    """The path from the root of a JSON document to each of its nodes."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, new):
    """A copy of ``doc`` with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], new)
    return copy


@st.composite
def mutated_text(draw, doc):
    """The JSON text of ``doc`` after one mutation: a key deleted, a node
    of another type, a node nested one level deeper, a key written twice,
    or the text cut short."""
    kind = draw(st.sampled_from(["delete", "swap", "nest", "duplicate", "truncate"]))
    event(kind)
    paths = list(_paths(doc))
    objects = [path for path in paths if isinstance(_at(doc, path), dict) and _at(doc, path)]
    if kind in ("delete", "duplicate"):
        path = draw(st.sampled_from(objects))
        node = _at(doc, path)
        key = draw(st.sampled_from(sorted(node)))
        if kind == "delete":
            return json.dumps(_replaced(doc, path, {k: v for k, v in node.items() if k != key}))
        # json.dumps writes no repeated key: splice one into the text.
        members = [*node.items(), (key, draw(st.one_of(ODD_VALUES, st.just(node[key]))))]
        spliced = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in members) + "}"
        return json.dumps(_replaced(doc, path, "\0")).replace(json.dumps("\0"), spliced, 1)
    if kind == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    path = draw(st.sampled_from(paths))
    if kind == "swap":
        return json.dumps(_replaced(doc, path, draw(ODD_VALUES)))
    node = _at(doc, path)
    return json.dumps(_replaced(doc, path, draw(st.sampled_from([[node], {"x": node}]))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_survives_mutated_documents(tmp_path, data):
    # Exit 0 or 1 with a report, or 2 with one located line; no exception
    # escapes main, whatever a mutation did to either document.
    instance, lottery = tmp_path / "instance.json", tmp_path / "lottery.json"
    base = data.draw(st.sampled_from(["example", "hand"]))
    if base == "example":
        docs = {instance: EXAMPLE, lottery: _example_lottery()}
    else:
        docs = {path: json.loads(Path(written).read_text())
                for path, written in zip((instance, lottery), hand_files(tmp_path))}
    target = data.draw(st.sampled_from([instance, lottery]))
    for path, doc in docs.items():
        path.write_text(data.draw(mutated_text(doc)) if path == target else json.dumps(doc))
    prop = data.draw(st.sampled_from(["ef1", "sdef"]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--property", prop, "--input", str(instance),
                     "--lottery", str(lottery)])
    event(f"exit {code}")
    if code in (0, 1):
        assert json.loads(out.getvalue())["verdict"] == ("PASS" if code == 0 else "FAIL")
        assert err.getvalue() == ""
        return
    assert code == 2 and out.getvalue() == ""
    line, = err.getvalue().splitlines()
    assert line.startswith(("fairlot: error: ", "fairlot: refused: "))
    assert target.stem in line, line
