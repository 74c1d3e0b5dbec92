import random
from fractions import Fraction as F

import pytest

from fairlot import (
    DeterministicAllocation,
    Instance,
    Lottery,
    RandomAllocation,
    expected_allocation,
    format_rational,
    ordinal_from_utilities,
    rational,
)
from conftest import consistent_utilities, weak_instance
from references import SdRelation, sd_compare, utility_of_bundle


def test_rational_parsing_and_formatting():
    assert rational("3/2") == F(3, 2)
    assert rational("  -7 ") == F(-7)
    assert rational(5) == F(5)
    assert format_rational(F(4, 8)) == "1/2"
    assert format_rational(F(6, 3)) == "2"
    # past the int-to-str digit limit of Python (4300 by default)
    assert format_rational(F(-(10**5000) - 1, 7)) == "-1" + "0" * 4999 + "1/7"
    assert format_rational(F(7, 10**9000)) == "7/1" + "0" * 9000
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        rational(True)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance.from_utilities({"1": {}}, agents=["1"], items=[])
    with pytest.raises(ValueError):
        Instance.from_utilities({"1": {"a": 1}}, agents=["1", "1"], items=["a"])
    with pytest.raises(ValueError):
        Instance.from_utilities({"1": {"a": -1}}, agents=["1"], items=["a"])
    with pytest.raises(ValueError):
        Instance.from_utilities({"1": {"a": 1}}, agents=["1"], items=["a", "b"])
    with pytest.raises(ValueError, match="utilities must be nonnegative"):
        Instance(("1",), ("a", "b"), ((F(1, 3), F(-1, 7)),))
    with pytest.raises(TypeError, match="utilities must be Fractions"):
        Instance(("1",), ("a", "b"), ((F(1, 3), 2),))
    with pytest.raises(ValueError, match="unknown owner 'z'"):
        DeterministicAllocation(("1", "2"), ("a", "b", "c"), ("1", "z", "y"))


def test_integer_rows_scale_each_agent_by_its_lcm():
    inst = Instance(("1", "2"), ("a", "b", "c"),
                    ((F(1, 2), F(0), F(2, 3)), (F(4), F(1, 4), F(5, 6))))
    assert inst.integer_rows() == (((3, 0, 4), 6), ((48, 3, 10), 12))


def test_ordinal_from_utilities(example_instance):
    prof = ordinal_from_utilities(example_instance)
    # utilities (4,3,2,1) give a strict chain; (4,2,3,1) swaps b and c
    assert prof.tiers["1"] == (("a",), ("b",), ("c",), ("d",))
    assert prof.tiers["2"] == (("a",), ("c",), ("b",), ("d",))
    tied = Instance.from_utilities({"1": {"a": 1, "b": 1}}, agents=["1"], items=["a", "b"])
    assert ordinal_from_utilities(tied).tiers["1"] == (("a", "b"),)


def test_strictified_breaks_ties_lexicographically():
    inst = Instance.from_utilities(
        {"1": {"x": 2, "b": 2, "a": 2, "z": 5}}, agents=["1"], items=["x", "b", "a", "z"]
    )
    strict = ordinal_from_utilities(inst).strictified()
    assert strict.tiers["1"] == (("z",), ("a",), ("b",), ("x",))


def test_utility_of_bundle(example_instance):
    row = {"a": F(1, 2), "b": F(1), "c": F(0), "d": F(1, 2)}
    assert utility_of_bundle(example_instance, "1", row) == F(11, 2)
    assert utility_of_bundle(example_instance, "1", {}) == 0
    other = {"a": F(1, 2), "b": F(0), "c": F(1), "d": F(1, 2)}
    assert utility_of_bundle(example_instance, "1", other) == F(9, 2)
    # amounts may be any exact rational literal
    assert utility_of_bundle(example_instance, "1", {"a": "1/2", "b": 1, "d": "1/2"}) == F(11, 2)


def test_sd_compare_examples(example_instance):
    prof = ordinal_from_utilities(example_instance)
    x = {"a": "1/2", "b": 1, "c": 0, "d": "1/2"}
    y = {"a": "1/2", "b": 0, "c": 1, "d": "1/2"}
    assert sd_compare(prof, "1", x, y) is SdRelation.DOMINATES
    assert sd_compare(prof, "1", y, x) is SdRelation.DOMINATED
    assert sd_compare(prof, "1", x, x) is SdRelation.EQUIVALENT
    two = Instance.from_utilities(
        {"1": {"a": 2, "b": 1}}, agents=["1"], items=["a", "b"]
    )
    p2 = ordinal_from_utilities(two)
    assert sd_compare(p2, "1", {"a": 1}, {"b": 1}) is SdRelation.DOMINATES


def test_sd_compare_partial_order_properties():
    rng = random.Random(5)
    for _ in range(60):
        inst = weak_instance(rng, 1, rng.randint(2, 6))
        prof = ordinal_from_utilities(inst)
        agent = inst.agents[0]
        rows = []
        for _ in range(3):
            raw = [F(rng.randint(0, 3)) for _ in inst.items]
            rows.append(dict(zip(inst.items, raw)))
        x, y, z = rows
        assert sd_compare(prof, agent, x, x) is SdRelation.EQUIVALENT
        rel_xy = sd_compare(prof, agent, x, y)
        rel_yx = sd_compare(prof, agent, y, x)
        flip = {
            SdRelation.DOMINATES: SdRelation.DOMINATED,
            SdRelation.DOMINATED: SdRelation.DOMINATES,
            SdRelation.EQUIVALENT: SdRelation.EQUIVALENT,
            SdRelation.INCOMPARABLE: SdRelation.INCOMPARABLE,
        }
        assert rel_yx is flip[rel_xy]
        # transitivity of weak dominance
        weak = (SdRelation.DOMINATES, SdRelation.EQUIVALENT)
        if rel_xy in weak and sd_compare(prof, agent, y, z) in weak:
            assert sd_compare(prof, agent, x, z) in weak


def test_sd_dominance_implies_utility_dominance():
    rng = random.Random(17)
    for _ in range(20):
        inst = weak_instance(rng, 1, rng.randint(2, 6))
        prof = ordinal_from_utilities(inst)
        agent = inst.agents[0]
        x = {o: F(rng.randint(0, 2)) for o in inst.items}
        y = {o: F(rng.randint(0, 2)) for o in inst.items}
        if sd_compare(prof, agent, x, y) not in (SdRelation.DOMINATES, SdRelation.EQUIVALENT):
            continue
        for _ in range(20):
            consistent = consistent_utilities(rng, inst)
            assert utility_of_bundle(consistent, agent, x) >= utility_of_bundle(
                consistent, agent, y
            )


def test_random_allocation_validation():
    half = F(1, 2)
    RandomAllocation(("1", "2"), ("a",), ((half,), (half,)))
    RandomAllocation(("1", "2", "3"), ("a",), ((F(1, 3),), (F(1, 6),), (half,)))
    with pytest.raises(ValueError):
        RandomAllocation(("1", "2"), ("a",), ((half,), (F(1, 3),)))
    with pytest.raises(ValueError, match=r"^entries must lie in \[0, 1\]$"):
        RandomAllocation(("1",), ("a",), ((F(2),),))
    with pytest.raises(ValueError, match=r"^entries must lie in \[0, 1\]$"):
        RandomAllocation(("1", "2"), ("a",), ((F(-1, 2),), (F(3, 2),)))
    with pytest.raises(ValueError, match=r"^column 'a' sums to 3/2, expected 1$"):
        RandomAllocation(("1", "2"), ("a", "b"), ((F(1), F(1, 3)), (half, F(2, 3))))
    with pytest.raises(ValueError, match=r"^column 'b' sums to 13/12, expected 1$"):
        RandomAllocation(("1", "2", "3"), ("a", "b"),
                         ((F(1), F(1, 3)), (F(0), F(1, 4)), (F(0), half)))
    with pytest.raises(ValueError, match=r"^column 'a' sums to 0, expected 1$"):
        RandomAllocation(("1",), ("a",), ((F(0),),))
    with pytest.raises(TypeError):
        RandomAllocation(("1",), ("a",), ((0.5,),))
    # With several faults, the first in row order is named, as an entry
    # by entry scan would meet it.
    with pytest.raises(ValueError, match=r"^entries must lie in \[0, 1\]$"):
        RandomAllocation(("1",), ("a", "b"), ((F(2), 0.5),))
    with pytest.raises(TypeError, match="^entries must be Fractions$"):
        RandomAllocation(("1",), ("a", "b"), ((0.5, F(2)),))
    with pytest.raises(ValueError, match=r"^entries must lie in \[0, 1\]$"):
        RandomAllocation(("1", "2"), ("a", "b"), ((F(2), F(0)), (F(0),)))
    with pytest.raises(ValueError, match="^row length must match the item count$"):
        RandomAllocation(("1", "2"), ("a", "b"), ((F(1), F(0)), (F(2),)))


def test_deterministic_allocation_views():
    alloc = DeterministicAllocation(("1", "2"), ("a", "b"), ("1", "2"))
    assert alloc.bundle("1") == ("a",)
    assert alloc.owner_map()["b"] == "2"
    assert alloc.row("1") == {"a": 1, "b": 0}


def test_lottery_validation_and_expected(example_instance):
    agents, items = example_instance.agents, example_instance.items
    first = DeterministicAllocation.from_mapping(
        agents, items, {"a": "1", "b": "1", "c": "2", "d": "2"}
    )
    second = DeterministicAllocation.from_mapping(
        agents, items, {"a": "2", "b": "1", "c": "2", "d": "1"}
    )
    half = F(1, 2)
    lottery = Lottery(((half, first), (half, second)))
    expected = expected_allocation(lottery)
    assert expected.entries == (
        (half, F(1), F(0), half),
        (half, F(0), F(1), half),
    )
    single = Lottery(((F(1), first),))
    assert expected_allocation(single).entries == ((F(1), F(1), F(0), F(0)),
                                                   (F(0), F(0), F(1), F(1)))
    with pytest.raises(ValueError):
        Lottery(((F(1, 2), first),))
    with pytest.raises(ValueError):
        Lottery(((F(0), first), (F(1), second)))


def test_lottery_merge_duplicates(example_instance):
    agents, items = example_instance.agents, example_instance.items
    a = DeterministicAllocation.from_mapping(
        agents, items, {"a": "1", "b": "1", "c": "2", "d": "2"}
    )
    b = DeterministicAllocation.from_mapping(
        agents, items, {"a": "2", "b": "1", "c": "2", "d": "1"}
    )
    duplicated = Lottery(((F(1, 4), a), (F(1, 4), a), (F(1, 2), b)))
    reference = Lottery(((F(1, 2), a), (F(1, 2), b)))
    assert expected_allocation(duplicated) == expected_allocation(reference)
    lottery = duplicated.merged()
    assert len(lottery.entries) == 2
    assert lottery.entries[0][0] == F(1, 2)
    assert expected_allocation(lottery) == expected_allocation(reference)
    # No repeats left: merging again rebuilds nothing.
    assert lottery.merged() is lottery
    assert reference.merged() is reference


def test_expected_allocation_linearity():
    rng = random.Random(23)
    agents = ("1", "2")
    items = ("a", "b", "c")
    def rand_alloc():
        return DeterministicAllocation(agents, items, tuple(rng.choice(agents) for _ in items))
    lot1 = Lottery(((F(1), rand_alloc()),))
    lot2 = Lottery(((F(1, 2), rand_alloc()), (F(1, 2), rand_alloc())))
    alpha = F(1, 3)
    combined = Lottery(
        tuple((alpha * w, al) for w, al in lot1.entries)
        + tuple(((1 - alpha) * w, al) for w, al in lot2.entries)
    ).merged()
    e1, e2, ec = (expected_allocation(x) for x in (lot1, lot2, combined))
    for i, a in enumerate(agents):
        for j, o in enumerate(items):
            assert ec.entries[i][j] == alpha * e1.entries[i][j] + (1 - alpha) * e2.entries[i][j]
