import contextlib
import io
import json

import pytest

from fairlot import SdRelation, fileio, ordinal_from_utilities, sd_compare
from fairlot.cli import main
from test_golden import hand_files

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
    # The hand-written lottery has ties, so sdeff takes the LP path, and
    # its expectation is not SD-efficient.
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


def test_verify_needs_lottery(example_file):
    code, _ = run(["verify", "--property", "ef1", "--input", example_file])
    assert code == 2


def test_verify_efk_needs_k(tmp_path, example_file):
    lot_path = tmp_path / "lot.json"
    run(["lottery", "--rule", "ps", "--input", example_file, "--out", str(lot_path)])
    code, _ = run(["verify", "--property", "efk", "--input", example_file,
                   "--lottery", str(lot_path)])
    assert code == 2


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
])
def test_malformed_lottery_exits_2(tmp_path, example_file, capsys, field, value, where):
    doc = _example_lottery()
    if field == "assignment":
        doc["support"][0]["assignment"] = value
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


def test_malformed_json_diagnostic(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code = main(["solve", "--rule", "ps", "--input", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err


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


def test_pipeline_byte_determinism(tmp_path, example_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["lottery", "--rule", "ps", "--input", example_file, "--out", str(a)])
    run(["lottery", "--rule", "ps", "--input", example_file, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
