import random
from fractions import Fraction as F

import pytest

from fairlot import (
    BudgetExceeded,
    DeterministicAllocation,
    Instance,
    Lottery,
    RandomAllocation,
    expected_allocation,
    ordinal_from_utilities,
)
from fairlot.model import configured_budget
from fairlot.oracle import (
    InfeasibilityCertificate,
    enumerate_allocations,
    implementable_by,
    sd_improvement_exists,
)
from conftest import binary_instance
from references import (leximin_bruteforce, matrix_of, pareto_improvement_exists,
                        utility_of_bundle)

HALF = F(1, 2)


def test_enumerate_counts():
    allocs = enumerate_allocations(("1", "2"), ("a", "b"))
    assert len(allocs) == 4
    balanced = [
        al for al in enumerate_allocations(("1", "2"), ("a", "b", "c", "d"))
        if len(al.bundle("1")) == 2
    ]
    assert len(balanced) == 6


def test_enumerate_budget_refusal(monkeypatch):
    monkeypatch.setenv("FAIRLOT_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        enumerate_allocations(("1", "2"), tuple("abcdefghij"))
    monkeypatch.setenv("FAIRLOT_BUDGET", "3")
    assert configured_budget() == 3
    with pytest.raises(BudgetExceeded):
        enumerate_allocations(("1", "2"), ("a", "b"))
    monkeypatch.setenv("FAIRLOT_BUDGET", "4")
    assert len(enumerate_allocations(("1", "2"), ("a", "b"))) == 4


def test_implementable_by_example(example_instance):
    agents, items = example_instance.agents, example_instance.items
    first = DeterministicAllocation(agents, items, ("1", "1", "2", "2"))
    second = DeterministicAllocation(agents, items, ("2", "1", "2", "1"))
    target = RandomAllocation(
        agents, items, ((HALF, F(1), F(0), HALF), (HALF, F(0), F(1), HALF))
    )
    result = implementable_by(target, [first, second])
    assert isinstance(result, Lottery)
    weights = sorted(w for w, _ in result.entries)
    assert weights == [HALF, HALF]
    assert expected_allocation(result) == target


def test_implementable_by_unit_weight(example_instance):
    agents, items = example_instance.agents, example_instance.items
    alloc = DeterministicAllocation(agents, items, ("1", "2", "1", "2"))
    others = [
        DeterministicAllocation(agents, items, ("2", "1", "2", "1")),
        alloc,
    ]
    result = implementable_by(matrix_of(alloc), others)
    assert isinstance(result, Lottery)
    assert result.entries == ((F(1), alloc),)


def test_implementable_by_infeasible_certificate(example_instance):
    agents, items = example_instance.agents, example_instance.items
    only = DeterministicAllocation(agents, items, ("1", "1", "1", "1"))
    target = RandomAllocation(
        agents, items, ((HALF,) * 4, (HALF,) * 4)
    )
    result = implementable_by(target, [only])
    assert isinstance(result, InfeasibilityCertificate)
    assert result.verify()


def test_implementable_by_empty_allowed(example_instance):
    agents, items = example_instance.agents, example_instance.items
    target = RandomAllocation(agents, items, ((HALF,) * 4, (HALF,) * 4))
    result = implementable_by(target, [])
    assert isinstance(result, InfeasibilityCertificate)
    assert result.verify()


def test_implementable_by_recomposition_fuzz():
    rng = random.Random(51)
    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        agents = tuple(f"a{i}" for i in range(n))
        items = tuple(f"o{j}" for j in range(m))
        allocs = [
            DeterministicAllocation(agents, items, tuple(rng.choice(agents) for _ in items))
            for _ in range(rng.randint(1, 4))
        ]
        weights = [F(rng.randint(1, 5)) for _ in allocs]
        total = sum(weights)
        lottery = Lottery(tuple((w / total, al) for w, al in zip(weights, allocs))).merged()
        p = expected_allocation(lottery)
        result = implementable_by(p, [al for _, al in lottery.entries])
        assert isinstance(result, Lottery)
        assert expected_allocation(result) == p


def test_leximin_examples():
    inst = Instance.from_utilities(
        {"1": {"a": 1, "b": 0}, "2": {"a": 1, "b": 1}},
        agents=["1", "2"], items=["a", "b"],
    )
    vector, witness = leximin_bruteforce(inst)
    assert vector == (F(1), F(1))
    contested = Instance.from_utilities(
        {"1": {"a": 1}, "2": {"a": 1}}, agents=["1", "2"], items=["a"]
    )
    vector, _ = leximin_bruteforce(contested)
    assert vector == (HALF, HALF)
    apathetic = Instance.from_utilities(
        {"1": {"a": 0}, "2": {"a": 1}}, agents=["1", "2"], items=["a"]
    )
    vector, _ = leximin_bruteforce(apathetic)
    assert vector[0] == 0
    with pytest.raises(ValueError):
        leximin_bruteforce(
            Instance.from_utilities({"1": {"a": 2}}, agents=["1"], items=["a"])
        )


def test_leximin_vector_unique_under_agent_permutation():
    rng = random.Random(52)
    for _ in range(20):
        inst = binary_instance(rng, rng.randint(2, 4), rng.randint(1, 5))
        vector, _ = leximin_bruteforce(inst)
        shuffled_agents = list(inst.agents)
        rng.shuffle(shuffled_agents)
        table = {a: dict(zip(inst.items, inst.values[inst.agent_index(a)])) for a in inst.agents}
        permuted = Instance.from_utilities(table, agents=shuffled_agents, items=inst.items)
        vector2, _ = leximin_bruteforce(permuted)
        assert vector == vector2


def test_leximin_witness_matches_vector():
    rng = random.Random(53)
    for _ in range(20):
        inst = binary_instance(rng, rng.randint(1, 4), rng.randint(1, 5))
        vector, witness = leximin_bruteforce(inst)
        got = tuple(sorted(utility_of_bundle(inst, a, witness.row(a)) for a in inst.agents))
        assert got == vector


def test_pareto_improvement_on_crossed_ratios():
    inst = Instance.from_utilities(
        {"1": {"a": 4, "b": 1}, "2": {"a": 3, "b": 2}},
        agents=["1", "2"], items=["a", "b"],
    )
    p = RandomAllocation(("1", "2"), ("a", "b"), ((HALF, HALF), (HALF, HALF)))
    witness = pareto_improvement_exists(p, inst)
    assert witness is not None
    assert witness.row("1")["b"] == 0 or witness.row("2")["a"] == 1
    for a in inst.agents:
        assert utility_of_bundle(inst, a, witness.row(a)) >= utility_of_bundle(inst, a, p.row(a))


def test_pareto_improvement_none_for_leximin_witness():
    rng = random.Random(54)
    for _ in range(15):
        inst = binary_instance(rng, rng.randint(1, 3), rng.randint(1, 5))
        _, witness = leximin_bruteforce(inst)
        assert pareto_improvement_exists(witness, inst) is None


def test_pareto_improvement_single_agent():
    inst = Instance.from_utilities({"1": {"a": 5, "b": 1}}, agents=["1"], items=["a", "b"])
    p = RandomAllocation(("1",), ("a", "b"), ((F(1), F(1)),))
    assert pareto_improvement_exists(p, inst) is None


def test_sd_improvement_finds_trades():
    crossed = Instance.from_utilities(
        {"1": {"a": 2, "b": 1}, "2": {"a": 1, "b": 2}},
        agents=["1", "2"], items=["a", "b"],
    )
    prefs = ordinal_from_utilities(crossed)
    p = RandomAllocation(("1", "2"), ("a", "b"), ((HALF, HALF), (HALF, HALF)))
    improvement = sd_improvement_exists(p, prefs)
    assert improvement is not None
    swap = RandomAllocation(("1", "2"), ("a", "b"), ((F(1), F(0)), (F(0), F(1))))
    assert sd_improvement_exists(swap, prefs) is None
