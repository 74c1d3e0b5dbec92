import random
from collections import Counter
from fractions import Fraction as F

import pytest

from fairlot import (
    DeterministicAllocation,
    Instance,
    Lottery,
    check_po_bruteforce,
    check_rb,
    check_sd_ef1,
    check_strong_ef1,
    eps_outcome,
    expected_allocation,
    ordinal_from_utilities,
    pad_with_dummies,
    project,
    ps_lottery,
    ps_outcome,
    re_eat,
    reduce_support,
    support_bound,
)
from fairlot.cli import main
from conftest import binary_instance, strict_instance, weak_instance
from references import leximin_bruteforce, matrix_of, utility_of_bundle
from test_benchmark_bindings import bench  # noqa: F401  (fixture)


def test_padding_counts(example_instance):
    padded = pad_with_dummies(example_instance, c=2)
    assert padded.c == 2 and padded.dummies == ()
    assert padded.items == example_instance.items

    inst = strict_instance(random.Random(0), 2, 3)
    padded = pad_with_dummies(inst, c=2)
    assert padded.c == 2 and len(padded.dummies) == 1

    inst = strict_instance(random.Random(0), 3, 2)
    padded = pad_with_dummies(inst, c=1)
    assert padded.c == 1 and len(padded.dummies) == 1
    assert len(padded.items) == 3
    # dummies are fresh and ordered
    assert all(d not in inst.items for d in padded.dummies)
    assert list(padded.dummies) == sorted(padded.dummies)
    with pytest.raises(ValueError, match=r"^c must be at least ceil\(m/n\)$"):
        pad_with_dummies(strict_instance(random.Random(0), 2, 3), c=1)


def test_dummy_ids_sort_in_creation_order_past_999():
    inst = Instance.from_utilities({"1": {"a": 1}}, agents=["1"], items=["a"])
    assert pad_with_dummies(inst, c=3).dummies == ("zz-dummy-001", "zz-dummy-002")
    dummies = pad_with_dummies(inst, c=1001).dummies
    assert len(dummies) == 1000
    assert dummies[0] == "zz-dummy-0001" and dummies[-1] == "zz-dummy-1000"
    assert list(dummies) == sorted(dummies)


def test_padded_preferences():
    inst = Instance.from_utilities(
        {"1": {"x": 2, "a": 2, "z": 1}}, agents=["1"], items=["x", "a", "z"]
    )
    padded = pad_with_dummies(inst, c=3)  # m = 3, n = 1: no dummies
    assert padded.dummies == ()
    assert padded.orders["1"] == ("a", "x", "z")
    inst2 = Instance.from_utilities(
        {"1": {"x": 2, "a": 2}, "2": {"x": 1, "a": 1}},
        agents=["1", "2"], items=["x", "a"],
    )
    padded2 = pad_with_dummies(inst2, c=2)
    d1, d2 = padded2.dummies
    # strict order breaks the x~a tie lexicographically, dummies last
    assert padded2.orders["1"] == ("a", "x", d1, d2)


def named_rows(padded, rows):
    """Re-eaten rows by representative, their columns by item id."""
    return {rep: {padded.items[j]: x for j, x in row.items()}
            for rep, row in zip(padded.representatives, rows)}


def test_re_eat_example_rows(example_instance):
    padded = pad_with_dummies(example_instance, c=2)
    bundles = {
        "1": {"a": F(1, 2), "b": F(1), "d": F(1, 2)},
        "2": {"a": F(1, 2), "c": F(1), "d": F(1, 2)},
    }
    rows, scale = re_eat(bundles, padded)
    assert scale == 2
    assert named_rows(padded, rows) == {
        ("1", 1): {"a": 1, "b": 1}, ("1", 2): {"b": 1, "d": 1},
        ("2", 1): {"a": 1, "c": 1}, ("2", 2): {"c": 1, "d": 1},
    }


def test_re_eat_integral_bundles(example_instance):
    padded = pad_with_dummies(example_instance, c=2)
    bundles = {"1": {"a": F(1), "b": F(1)}, "2": {"c": F(1), "d": F(1)}}
    rows, scale = re_eat(bundles, padded)
    assert scale == 1
    assert named_rows(padded, rows) == {
        ("1", 1): {"a": 1}, ("1", 2): {"b": 1}, ("2", 1): {"c": 1}, ("2", 2): {"d": 1},
    }


def test_re_eat_rejects_bad_mass(example_instance):
    padded = pad_with_dummies(example_instance, c=2)
    with pytest.raises(ValueError, match="^bundle of '1' has mass 1, expected 2$"):
        re_eat({"1": {"a": F(1)}, "2": {"c": F(2)}}, padded)
    # The mass is right, but agent 1 would eat -1 of its first choice.
    with pytest.raises(ValueError, match="^negative bundle entry$"):
        re_eat({"1": {"a": F(-1), "b": F(3), "c": F(0)}, "2": {"c": F(2), "d": F(0)}},
               padded)


def test_project_example(example_instance):
    padded = pad_with_dummies(example_instance, c=2)
    first = project((0, 1, 2, 3), padded)
    assert first.bundle("1") == ("a", "b") and first.bundle("2") == ("c", "d")
    second = project((2, 0, 3, 1), padded)  # a and c to the representatives of 2
    assert second.bundle("1") == ("b", "d") and second.bundle("2") == ("a", "c")


def test_project_drops_dummies():
    inst = Instance.from_utilities(
        {"1": {"x": 3}, "2": {"x": 1}}, agents=["1", "2"], items=["x"]
    )
    padded = pad_with_dummies(inst, c=1)
    assert len(padded.dummies) == 1
    alloc = project((0, 1), padded)
    assert alloc.bundle("1") == ("x",) and alloc.bundle("2") == ()


@pytest.mark.parametrize("stray", [4, 8, -1, -9])
def test_project_rejects_a_holder_that_is_not_a_representative(example_instance, stray):
    padded = pad_with_dummies(example_instance, c=2)
    with pytest.raises(ValueError, match="^holder is not a representative$"):
        project((0, 1, stray, 3), padded)


def test_lottery_calls_every_traced_stage(bench, monkeypatch, capsys, tmp_path):
    # benchmarks/spans.py times a build through the names it wraps on
    # fairlot.pslottery, so the build must call each of them: project once
    # per part that birkhoff_decompose returns.  Counting changes no byte.
    import fairlot.pslottery as pslottery

    inputs = bench("inputs")
    strict, tied = tmp_path / "strict.json", tmp_path / "tied.json"
    strict.write_text(inputs.strict(7, 40, 150))  # c = 4
    tied.write_text(inputs.tied(7, 10, 30, 3))
    runs = [["--rule", "ps", "--input", str(strict)], ["--rule", "eps", "--input", str(tied)]]

    def documents():
        written = []
        for args in runs:
            assert main(["lottery", *args, "--out", "-"]) == 0
            written.append(capsys.readouterr().out)
        return written

    unwrapped = documents()
    calls, parts = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "birkhoff_decompose":
                parts.append(len(result))
            return result
        return wrapper

    names = {dotted for module, dotted, *_ in bench("spans").WRAPS if module == "fairlot.pslottery"}
    assert {"re_eat", "birkhoff_decompose", "project"} <= names
    for name in names:
        monkeypatch.setattr(pslottery, name, counted(name, getattr(pslottery, name)))
    assert documents() == unwrapped
    assert set(calls) == names
    assert calls["re_eat"] == calls["birkhoff_decompose"] == len(runs)
    assert calls["project"] == sum(parts) > 0


def test_ps_lottery_worked_example(example_instance):
    lottery, expected = ps_lottery(example_instance, rule="ps")
    assert expected.entries == (
        (F(1, 2), F(1), F(0), F(1, 2)),
        (F(1, 2), F(0), F(1), F(1, 2)),
    )
    assert expected_allocation(lottery) == expected
    supports = {
        (alloc.bundle("1"), alloc.bundle("2")) for _, alloc in lottery.entries
    }
    assert supports == {(("a", "b"), ("c", "d")), (("b", "d"), ("a", "c"))}
    assert all(w == F(1, 2) for w, _ in lottery.entries)


def test_ps_lottery_single_agent():
    inst = Instance.from_utilities({"1": {"a": 2, "b": 1}}, agents=["1"], items=["a", "b"])
    lottery, expected = ps_lottery(inst, rule="ps")
    assert len(lottery.entries) == 1 and lottery.entries[0][0] == F(1)
    assert lottery.entries[0][1].bundle("1") == ("a", "b")


def test_ps_lottery_two_agents_identical_order():
    inst = Instance.from_utilities(
        {"1": {"a": 2, "b": 1}, "2": {"a": 2, "b": 1}},
        agents=["1", "2"], items=["a", "b"],
    )
    lottery, expected = ps_lottery(inst, rule="ps")
    assert expected.entries == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    supports = {
        (alloc.bundle("1"), alloc.bundle("2")) for _, alloc in lottery.entries
    }
    assert supports == {(("a",), ("b",)), (("b",), ("a",))}


def test_ps_lottery_rejects_bad_arguments(example_instance):
    with pytest.raises(ValueError):
        ps_lottery(example_instance, rule="nope")
    with pytest.raises(ValueError):
        ps_lottery(example_instance, rule="ps", skip_zero=True)


@pytest.mark.parametrize("rule, skip_zero", [("ps", False), ("eps", False), ("eps", True)])
def test_eating_never_sees_a_dummy(monkeypatch, rule, skip_zero):
    import fairlot.pslottery as pslottery

    # 3 agents, 7 items (binary: ties everywhere, and nobody values o07):
    # c = 3 and two dummies in every mode.
    inst = binary_instance(random.Random(5), 3, 7)
    table = {a: inst.utility_row(a) for a in inst.agents}
    table["a1"]["o07"] = table["a2"]["o07"] = table["a3"]["o07"] = 0
    inst = Instance.from_utilities(table, agents=inst.agents, items=inst.items)
    eaten = []  # the item sets each engine was handed

    def spy(engine, universes):
        def run(*args, **kwargs):
            eaten.append(universes(*args, **kwargs))
            return engine(*args, **kwargs)
        return run

    monkeypatch.setattr(pslottery, "ps_outcome", spy(
        ps_outcome, lambda agents, items, prefs: (tuple(items), prefs.items)))
    monkeypatch.setattr(pslottery, "eps_outcome", spy(
        eps_outcome, lambda instance, mode: (instance.items,)))
    planned = pslottery.plan(inst, rule, skip_zero)
    assert len(planned.padded.dummies) == 2
    assert eaten == [(inst.items,) * (2 if rule == "ps" else 1)]
    bundles = planned.bundles.values()
    assert all(sum(row.values()) == planned.padded.c for row in bundles)
    assert all(sum(row.get(d, 0) for row in bundles) == 1 for d in planned.padded.dummies)


def test_eps_rule_matches_eps_outcome():
    rng = random.Random(18)
    for _ in range(25):
        inst = weak_instance(rng, rng.randint(1, 3), rng.randint(1, 6))
        lottery, expected = ps_lottery(inst, rule="eps")
        out, _ = eps_outcome(inst, mode="standard")
        assert expected == out
        assert expected_allocation(lottery) == out


def test_eps_rule_support_is_sd_efficient():
    # a deterministic allocation consistent with an SD-efficient fractional
    # one is itself SD-efficient; the pipeline's support must inherit it
    from fairlot import check_sd_efficient
    from fairlot.oracle import sd_improvement_exists

    rng = random.Random(28)
    for _ in range(15):
        inst = weak_instance(rng, rng.randint(1, 3), rng.randint(1, 5))
        prefs = ordinal_from_utilities(inst)
        lottery, expected = ps_lottery(inst, rule="eps")
        assert check_sd_efficient(expected, prefs).ok
        assert sd_improvement_exists(expected, prefs) is None
        for _w, alloc in lottery.entries:
            for o, owner in zip(alloc.items, alloc.owners):
                assert expected.row(owner)[o] > 0  # consistency with expected
            assert check_sd_efficient(matrix_of(alloc), prefs).ok
            assert sd_improvement_exists(matrix_of(alloc), prefs) is None


def test_skip_zero_lottery_unbalanced_bundles():
    # one agent alone likes five items: its bundle outgrows ceil(m/n)
    inst = Instance.from_utilities(
        {
            "1": {f"o{j}": 1 for j in range(5)},
            "2": {f"o{j}": 0 for j in range(5)},
        },
        agents=["1", "2"], items=[f"o{j}" for j in range(5)],
    )
    lottery, expected = ps_lottery(inst, rule="eps", skip_zero=True)
    out, _ = eps_outcome(inst, mode="skip_zero")
    assert expected == out
    assert expected_allocation(lottery) == expected
    assert utility_of_bundle(inst, "1", expected.row("1")) == F(5)


def test_skip_zero_lottery_fuzz():
    rng = random.Random(19)
    for _ in range(25):
        inst = binary_instance(rng, rng.randint(1, 3), rng.randint(1, 5))
        lottery, expected = ps_lottery(inst, rule="eps", skip_zero=True)
        out, _ = eps_outcome(inst, mode="skip_zero")
        assert expected == out
        assert expected_allocation(lottery) == expected
        vector, _ = leximin_bruteforce(inst)
        got = tuple(sorted(utility_of_bundle(inst, a, out.row(a)) for a in inst.agents))
        assert got == vector


def test_pipeline_support_properties_fuzz():
    from fairlot import check_sd_ef

    rng = random.Random(20)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 10)
        inst = strict_instance(rng, n, m)
        prof = ordinal_from_utilities(inst)
        lottery, expected = ps_lottery(inst, rule="ps")
        serial, _ = ps_outcome(inst.agents, inst.items, prof)
        assert expected == serial
        assert check_sd_ef(expected, prof).ok  # ex-ante guarantee
        c = -(-m // n)
        assert len(lottery.entries) <= support_bound(c, n)
        for _w, alloc in lottery.entries:
            assert check_sd_ef1(alloc, prof).ok
            assert check_strong_ef1(alloc, inst).ok
            assert check_rb(alloc, prof, c).ok


def test_reduce_support_merges_duplicates(example_instance):
    agents, items = example_instance.agents, example_instance.items
    a = DeterministicAllocation.from_mapping(
        agents, items, {"a": "1", "b": "1", "c": "2", "d": "2"}
    )
    b = DeterministicAllocation.from_mapping(
        agents, items, {"a": "2", "b": "1", "c": "2", "d": "1"}
    )
    fat = Lottery(((F(1, 4), a), (F(1, 4), a), (F(1, 2), b)))
    slim = reduce_support(fat)
    assert len(slim.entries) == 2
    assert expected_allocation(slim) == expected_allocation(fat)


def test_reduce_support_eliminates_affine_dependency():
    # over 2 agents x 2 items: (1,1)+(2,2) = (1,2)+(2,1) as 0/1 vectors,
    # so the uniform lottery over all four is dependent.
    agents, items = ("1", "2"), ("a", "b")
    def alloc(oa, ob):
        return DeterministicAllocation(agents, items, (oa, ob))
    quad = Lottery(tuple(
        (F(1, 4), alloc(oa, ob)) for oa in agents for ob in agents
    ))
    slim = reduce_support(quad)
    assert len(slim.entries) <= 3
    assert expected_allocation(slim) == expected_allocation(quad)
    assert {al.owners for _, al in slim.entries} <= {al.owners for _, al in quad.entries}


def test_reduce_support_keeps_independent_lotteries(example_instance):
    lottery, expected = ps_lottery(example_instance, rule="ps")
    slim = reduce_support(lottery)
    assert slim == lottery.merged()


def test_reduce_support_caratheodory_bound_fuzz():
    rng = random.Random(21)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 8)
        inst = strict_instance(rng, n, m)
        lottery, expected = ps_lottery(inst, rule="ps")
        slim = reduce_support(lottery)
        assert len(slim.entries) <= n * m + 1
        assert expected_allocation(slim) == expected
        assert {al.owners for _, al in slim.entries} <= {
            al.owners for _, al in lottery.entries
        }


def test_skip_zero_support_is_pareto_optimal():
    rng = random.Random(22)
    for _ in range(15):
        inst = binary_instance(rng, rng.randint(1, 3), rng.randint(1, 5))
        lottery, _ = ps_lottery(inst, rule="eps", skip_zero=True)
        for _w, alloc in lottery.entries:
            assert check_po_bruteforce(alloc, inst).ok
