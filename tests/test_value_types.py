"""The contract of the package's frozen value types: positional and
keyword construction, structural equality, hashing, a field-by-field
``repr``, immutability, validation messages, and the caches some of them
keep in their ``__dict__``.
"""

import random
from fractions import Fraction as F

import pytest

from fairlot import fairness
from fairlot.fairness import Report
from fairlot.model import (
    DeterministicAllocation,
    EatingTrace,
    Instance,
    Lottery,
    OrdinalProfile,
    RandomAllocation,
    TraceSegment,
    ordinal_from_utilities,
)
from fairlot.oracle import InfeasibilityCertificate
from fairlot.pslottery import Plan, implement, pad_with_dummies, plan
from fairlot.simplex import LpResult

HALF = F(1, 2)
AGENTS, ITEMS = ("1", "2"), ("a", "b")
INSTANCE = Instance(AGENTS, ITEMS, ((F(2), F(1)), (F(1), F(3))))
MATRIX = RandomAllocation(AGENTS, ITEMS, ((HALF, HALF), (HALF, HALF)))
X = DeterministicAllocation(AGENTS, ITEMS, ("1", "2"))
Y = DeterministicAllocation(AGENTS, ITEMS, ("2", "1"))
PADDED = pad_with_dummies(INSTANCE, 1)


def trace(horizon):
    segments = (TraceSegment("a", F(0), HALF, HALF), TraceSegment("b", HALF, F(1), HALF))
    return {"agents": AGENTS, "items": ITEMS, "segments": {"1": segments, "2": segments},
            "horizon": horizon}


# (class, fields in order, a variant differing in one field, hashable)
CASES = [
    (Instance, {"agents": AGENTS, "items": ITEMS, "values": INSTANCE.values},
     {"values": ((F(2), F(1)), (F(1), F(4)))}, True),
    (OrdinalProfile, {"agents": AGENTS, "items": ITEMS,
                      "tiers": {"1": (("a",), ("b",)), "2": (("a", "b"),)}},
     {"tiers": {"1": (("a", "b"),), "2": (("a", "b"),)}}, False),
    (RandomAllocation, {"rows": AGENTS, "items": ITEMS, "entries": MATRIX.entries},
     {"entries": ((F(1), F(0)), (F(0), F(1)))}, True),
    (DeterministicAllocation, {"agents": AGENTS, "items": ITEMS, "owners": ("1", "2")},
     {"owners": ("2", "1")}, True),
    (Lottery, {"entries": ((HALF, X), (HALF, Y))},
     {"entries": ((HALF, Y), (HALF, X))}, True),
    (EatingTrace, trace(F(1)), {"horizon": F(2)}, False),
    (Report, {"prop": "ef1", "ok": False, "witness": None,
              "violation": {"envious": "1", "envied": "2"}},
     {"ok": True}, False),
    (InfeasibilityCertificate, {"farkas": (F(1), F(-1)), "rows": ((F(1),), (F(2),)),
                                "rhs": (F(1), F(0))},
     {"rhs": (F(2), F(0))}, True),
    (LpResult, {"status": "optimal", "x": (F(1), F(0)), "objective": F(3), "farkas": None},
     {"objective": F(4)}, True),
    (Plan, {"expected": MATRIX, "padded": PADDED,
            "bundles": {"1": {"a": HALF, "b": HALF}, "2": {"a": HALF, "b": HALF}}},
     {"expected": RandomAllocation(AGENTS, ITEMS, ((F(1), F(0)), (F(0), F(1))))}, False),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, variant, hashable", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, variant, hashable):
    by_keyword = cls(**fields)
    assert cls(*fields.values()) == by_keyword
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_keyword) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls, fields, variant, hashable", CASES, ids=IDS)
def test_equality_is_by_class_and_fields(cls, fields, variant, hashable):
    obj = cls(**fields)
    assert obj == cls(**fields) and not obj != cls(**fields)
    other = cls(**{**fields, **variant})
    assert obj != other and not obj == other
    assert obj != tuple(fields.values())
    assert obj.__eq__(object()) is NotImplemented
    for other_cls, other_fields, _, _ in CASES:
        if other_cls is not cls:
            assert obj != other_cls(**other_fields)


@pytest.mark.parametrize("cls, fields, variant, hashable", CASES, ids=IDS)
def test_hash_follows_equality(cls, fields, variant, hashable):
    obj, twin = cls(**fields), cls(**fields)
    if hashable:
        assert hash(obj) == hash(twin)
        assert len({obj, twin, cls(**{**fields, **variant})}) == 2
    else:  # a dict among the fields
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


@pytest.mark.parametrize("cls, fields, variant, hashable", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, variant, hashable):
    obj = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert obj == cls(**fields)


def test_defaults():
    assert Report("ef", True) == Report(prop="ef", ok=True, witness=None, violation=None)
    assert LpResult("infeasible") == LpResult("infeasible", None, None, None)


def message(exc_type, build):
    with pytest.raises(exc_type) as caught:
        build()
    return str(caught.value)


BAD = [
    (ValueError, lambda: Instance((), ITEMS, ()),
     "an instance needs at least one agent and one item"),
    (ValueError, lambda: Instance(("1", "1"), ITEMS, INSTANCE.values), "duplicate agent ids"),
    (ValueError, lambda: Instance(AGENTS, ("a", "a"), INSTANCE.values), "duplicate item ids"),
    (ValueError, lambda: Instance(AGENTS, ITEMS, INSTANCE.values[:1]),
     "one utility row per agent required"),
    (ValueError, lambda: Instance(AGENTS, ITEMS, ((F(1),), (F(1), F(2)))),
     "one utility per item required in every row"),
    (TypeError, lambda: Instance(AGENTS, ITEMS, ((F(1), 2), (F(1), F(2)))),
     "utilities must be Fractions; use Instance.from_utilities"),
    (ValueError, lambda: Instance(AGENTS, ITEMS, ((F(1), F(-1)), (F(1), F(2)))),
     "utilities must be nonnegative"),
    (ValueError, lambda: OrdinalProfile(AGENTS, ITEMS, {"1": (("a", "b"),)}),
     "no preference tiers for agent '2'"),
    (ValueError, lambda: OrdinalProfile(AGENTS, ITEMS, {"1": (("a", "b"), ()), "2": ()}),
     "empty preference tier"),
    (ValueError, lambda: OrdinalProfile(AGENTS, ITEMS, {"1": (("a", "a"),), "2": ()}),
     "tiers of '1' do not partition the item set"),
    (ValueError, lambda: OrdinalProfile(AGENTS, ITEMS, {"1": (("a",),), "2": ()}),
     "tiers of '1' do not cover the item set"),
    (ValueError, lambda: RandomAllocation(("1", "1"), ITEMS, MATRIX.entries),
     "duplicate row labels"),
    (ValueError, lambda: RandomAllocation(AGENTS, ITEMS, MATRIX.entries[:1]),
     "one entry row per row label required"),
    (ValueError, lambda: RandomAllocation(AGENTS, ITEMS, ((HALF,), (HALF, HALF))),
     "row length must match the item count"),
    (TypeError, lambda: RandomAllocation(AGENTS, ITEMS, ((HALF, 0), (HALF, F(1)))),
     "entries must be Fractions"),
    (ValueError, lambda: RandomAllocation(AGENTS, ITEMS, ((F(3, 2), HALF), (HALF, HALF))),
     "entries must lie in [0, 1]"),
    (ValueError, lambda: RandomAllocation(AGENTS, ITEMS, ((HALF, HALF), (F(0), HALF))),
     "column 'a' sums to 1/2, expected 1"),
    (ValueError, lambda: DeterministicAllocation(AGENTS, ITEMS, ("1",)),
     "every item needs exactly one owner"),
    (ValueError, lambda: DeterministicAllocation(AGENTS, ITEMS, ("1", "z")),
     "unknown owner 'z'"),
    (ValueError, lambda: Lottery(()), "a lottery needs at least one outcome"),
    (TypeError, lambda: Lottery(((1, X),)), "weights must be Fractions"),
    (ValueError, lambda: Lottery(((F(0), X), (F(1), Y))), "weights must lie in (0, 1]"),
    (ValueError, lambda: Lottery(((HALF, X), (HALF, DeterministicAllocation(("1",), ITEMS,
                                                                           ("1", "1"))))),
     "all support allocations must share one universe"),
    (ValueError, lambda: Lottery(((HALF, X),)), "weights sum to 1/2, expected 1"),
]


@pytest.mark.parametrize("exc_type, build, expected", BAD, ids=[b[2] for b in BAD])
def test_validation_messages(exc_type, build, expected):
    assert message(exc_type, build) == expected


def test_caches_live_on_the_frozen_objects():
    instance = Instance(AGENTS, ITEMS, INSTANCE.values)
    assert instance.integer_rows() is instance.integer_rows()
    assert instance.integer_rows() == (((2, 1), 1), ((1, 3), 1))
    assert instance.integer_columns() is instance.integer_columns() == {"a": (2, 1),
                                                                        "b": (1, 3)}
    profile = ordinal_from_utilities(instance)
    assert ordinal_from_utilities(instance) is profile
    assert profile.tier_rank("2") is profile.tier_rank("2") == {"b": 0, "a": 1}
    matrix = RandomAllocation(AGENTS, ITEMS, MATRIX.entries)
    assert matrix.integer_form() is matrix.integer_form() == (({0: 1, 1: 1}, {0: 1, 1: 1}), 2)
    # caches take no part in equality or hashing
    assert instance == INSTANCE and hash(instance) == hash(Instance(AGENTS, ITEMS,
                                                                    INSTANCE.values))
    assert matrix == MATRIX


def test_verifying_a_lottery_leaves_no_per_bundle_state():
    # Every ex-post checker on the four support allocations of a c = 3 ps
    # lottery, which pass the balanced-rounds test, and on twenty random
    # allocations, which fail it: the instance keeps only its own caches
    # (index maps, integer columns, ordinal profile, Pareto front), and the
    # profile one tier-rank map per agent.
    rng = random.Random(5)
    agents, items = ("1", "2", "3"), tuple("abcdefg")
    instance = Instance.from_utilities(
        {a: dict(zip(items, rng.sample(range(1, 30), len(items)))) for a in agents},
        agents=agents, items=items)
    profile = ordinal_from_utilities(instance)
    support = [allocation for _, allocation in implement(plan(instance, "ps", False)).entries]
    support += [DeterministicAllocation(agents, items, tuple(rng.choice(agents) for _ in items))
                for _ in range(20)]
    for allocation in support:
        for k in (0, 1, 2):
            fairness.check_efk(allocation, instance, k)
        fairness.check_sd_ef1(allocation, profile)
        fairness.check_strong_ef1(allocation, instance)
        fairness.check_rb(allocation, profile, 3)
        fairness.check_po_bruteforce(allocation, instance)
    assert set(instance.__dict__) == {"agents", "items", "values", "_int", "_idx", "_cols",
                                      "_ordinal", "_pareto"}
    assert set(instance.__dict__["_cols"]) == set(items)
    assert set(profile.__dict__) == {"agents", "items", "tiers", "_ranks"}
    assert set(profile.__dict__["_ranks"]) == set(agents)


def test_merged_is_a_class_attribute_that_can_be_rebound():
    original = Lottery.merged
    calls = []

    def wrapper(self):
        calls.append(self)
        return original(self)

    lottery = Lottery(((HALF, X), (HALF, X)))
    Lottery.merged = wrapper
    try:
        assert lottery.merged() == Lottery(((F(1), X),))
    finally:
        Lottery.merged = original
    assert calls == [lottery] and Lottery.merged is original
