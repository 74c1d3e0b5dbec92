"""Tests of the benchmark itself: python -m pytest -q benchmarks"""

import importlib
import json

import checks
import inputs
import run
import spans
import workloads


def test_generator_is_a_function_of_the_seed():
    for make in (lambda s: inputs.strict(s, 6, 9), lambda s: inputs.tied(s, 6, 9, 3),
                 lambda s: inputs.binary(s, 6, 9)):
        assert make(11) == make(11)
        assert make(11) != make(12)


def test_strict_generator_matches_fairlot_gen():
    _wall, code, stdout = run.run_inprocess(
        ["gen", "--agents", "5", "--items", "12", "--seed", "7"])
    assert code == 0
    assert stdout == inputs.strict(7, 5, 12)
    _wall, code, stdout = run.run_inprocess(
        ["gen", "--agents", "5", "--items", "12", "--seed", "7", "--binary"])
    assert stdout == inputs.binary(7, 5, 12)


def _bindings():
    return [spans._resolve(importlib.import_module(module), dotted)
            for module, dotted, _name, _counters in spans.WRAPS]


def test_wrappers_change_no_output_and_are_restored(tmp_path):
    instance = tmp_path / "tied.json"
    instance.write_text(inputs.tied(3, 5, 12, 4))
    argv = ["lottery", "--rule", "eps", "--reduce", "--input", str(instance), "--out"]
    originals = [getattr(owner, attr) for owner, attr in _bindings()]

    assert run.run_inprocess(argv + [str(tmp_path / "plain.json")])[1] == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(_bindings(), originals))
        assert run.run_inprocess(argv + [str(tmp_path / "traced.json")])[1] == 0
    finally:
        tracer.restore()

    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    assert all(getattr(o, a) is f for (o, a), f in zip(_bindings(), originals))
    metrics = tracer.round_metrics(0)
    assert metrics["pslottery.pad.calls"] == 2
    assert metrics["birkhoff.parts"] == metrics["pslottery.project.calls"] > 0
    assert metrics["support.after_reduce"] <= metrics["support.merged"]


def test_self_times_of_a_round_fit_in_its_wall_time(tmp_path):
    instance = tmp_path / "strict.json"
    instance.write_text(inputs.strict(5, 3, 6))
    lottery = tmp_path / "lottery.json"
    matrix = tmp_path / "matrix.json"
    matrix.write_text(workloads._matrix_document(
        workloads.eps_reference(instance.read_text())))
    mix = [
        ["lottery", "--rule", "ps", "--input", str(instance), "--out", str(lottery)],
        ["verify", "--property", "sdef1", "--input", str(instance), "--lottery", str(lottery)],
        ["verify", "--property", "po", "--input", str(instance), "--lottery", str(lottery)],
        ["oracle", "--filter", "ef1-po", "--input", str(instance), "--allocation", str(matrix)],
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        walls = [run.run_inprocess(argv)[0] for argv in mix]
    finally:
        tracer.restore()
    metrics = tracer.round_metrics(0)
    self_total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert 0 < self_total <= sum(walls)
    assert set(metrics) == set(spans.UNITS)
    for name in ("fairness.sdef1.calls", "fairness.po.calls", "simplex.calls"):
        assert metrics[name] > 0, name


def test_checks_reject_wrong_outputs(tmp_path):
    text = inputs.strict(2, 3, 6)
    instance = tmp_path / "i.json"
    instance.write_text(text)
    out = tmp_path / "l.json"
    assert run.run_inprocess(["lottery", "--rule", "ps", "--input", str(instance),
                              "--out", str(out)])[1] == 0
    assert checks.LotteryCheck(out, workloads.ps_reference(text))(0, "") is None
    other = workloads.ps_reference(inputs.strict(3, 3, 6))
    assert "differs" in checks.LotteryCheck(out, other)(0, "")
    assert "exit code" in checks.LotteryCheck(out, other)(1, "")

    passing = json.dumps({"property": "ef", "verdict": "PASS"})
    assert checks.VerifyCheck(checks.Pin("PASS"))(0, passing) is None
    assert checks.VerifyCheck(checks.Pin("PASS"))(1, passing) is not None
    assert checks.VerifyCheck(checks.Pin("FAIL"))(0, passing) is not None
    pin = checks.Pin()
    assert pin("FAIL") is None and pin("PASS") is not None


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == {"p": 9, "value": 0}
    assert run.tail_percentile(list(range(20))) == {"p": 50, "value": 9}
