import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fairlot import (
    EatingNetwork,
    Instance,
    TraceSegment,
    eps_outcome,
    globally_unwanted,
    max_eating_duration,
    ordinal_from_utilities,
    ps_outcome,
    utility_of_bundle,
)
from fairlot.eps import _Flow
from fairlot.oracle import leximin_bruteforce, sd_improvement_exists
from conftest import binary_instance, strict_instance, weak_instance


def test_matches_serial_eating_on_strict_profiles(example_instance):
    prof = ordinal_from_utilities(example_instance)
    serial, _ = ps_outcome(example_instance.agents, example_instance.items, prof)
    coord, _ = eps_outcome(example_instance, mode="standard")
    assert serial == coord


def test_matches_serial_eating_fuzz():
    # Strict profiles take the single-item step in every eating step; the
    # outcome and the trace must both be the serial rule's.
    rng = random.Random(61)
    for _ in range(60):
        inst = strict_instance(rng, rng.randint(1, 8), rng.randint(1, 12))
        prof = ordinal_from_utilities(inst)
        assert eps_outcome(inst, mode="standard") == ps_outcome(inst.agents, inst.items, prof)


def test_full_indifference_splits_evenly():
    inst = Instance.from_utilities(
        {"1": {"a": 1, "b": 1}, "2": {"a": 1, "b": 1}},
        agents=["1", "2"], items=["a", "b"],
    )
    out, _ = eps_outcome(inst, mode="standard")
    for a in inst.agents:
        assert out.row(a) == {"a": F(1, 2), "b": F(1, 2)}


def test_coordination_respects_later_demand():
    # Agent 2 is indifferent between b and c while agent 1 will want b
    # after finishing a; a stage-by-stage split could strand agent 1.
    inst = Instance.from_utilities(
        {
            "1": {"a": 4, "b": 3, "c": 2, "d": 1},
            "2": {"a": 2, "b": 4, "c": 4, "d": 1},
        },
        agents=["1", "2"], items=["a", "b", "c", "d"],
    )
    out, _ = eps_outcome(inst, mode="standard")
    assert out.row("1") == {"a": F(1), "b": F(1, 2), "c": F(0), "d": F(1, 2)}
    assert out.row("2") == {"a": F(0), "b": F(1, 2), "c": F(1), "d": F(1, 2)}
    assert sd_improvement_exists(out, ordinal_from_utilities(inst)) is None


def test_groups_finishing_together_share_the_even_split_decision():
    # a1 and a2 eat the tier {x, y}; b1 eats p, and b2 eats the tier
    # {p, q}.  Both groups run out at time 1.  An even split fills x and y
    # exactly but would give p 3/2, so neither group takes it: a1 and a2
    # keep the max-flow witness and get one item each.
    inst = Instance.from_utilities(
        {
            "a1": {"x": 3, "y": 3, "p": 1, "q": 1},
            "a2": {"x": 3, "y": 3, "p": 1, "q": 1},
            "b1": {"p": 3, "q": 2, "x": 1, "y": 1},
            "b2": {"p": 3, "q": 3, "x": 1, "y": 1},
        },
        agents=["a1", "a2", "b1", "b2"], items=["x", "y", "p", "q"],
    )
    out, _ = eps_outcome(inst, mode="standard")
    assert out.entries == (
        (F(1), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(1), F(0)),
        (F(0), F(0), F(0), F(1)),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_eating_is_anonymous_and_neutral_on_strict_profiles(data):
    # Reordering the agents and renaming the items (the new names sort in
    # another order) permutes the ps and eps outcomes and traces alike.
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    inst = strict_instance(rng, data.draw(st.integers(1, 8)), data.draw(st.integers(1, 16)))
    agents = tuple(data.draw(st.permutations(inst.agents)))
    names = dict(zip(inst.items, data.draw(st.permutations([f"x{j:02d}" for j in range(inst.m)]))))
    items = tuple(data.draw(st.permutations([names[o] for o in inst.items])))
    renamed = Instance.from_utilities(
        {a: {names[o]: inst.utility(a, o) for o in inst.items} for a in agents},
        agents=agents, items=items)
    for eat in (
        lambda i: ps_outcome(i.agents, i.items, ordinal_from_utilities(i)),
        lambda i: eps_outcome(i, mode="standard"),
    ):
        out, trace = eat(inst)
        out2, trace2 = eat(renamed)
        for a in inst.agents:
            assert out2.row(a) == {names[o]: v for o, v in out.row(a).items()}
            assert trace2.segments[a] == tuple(
                TraceSegment(names[s.item], s.start, s.end, s.amount) for s in trace.segments[a])


def test_sd_efficiency_fuzz():
    rng = random.Random(62)
    for _ in range(40):
        inst = weak_instance(rng, rng.randint(1, 4), rng.randint(1, 6))
        out, _ = eps_outcome(inst, mode="standard")
        assert sd_improvement_exists(out, ordinal_from_utilities(inst)) is None


def test_standard_trace_covers_horizon():
    rng = random.Random(64)
    for _ in range(30):
        inst = weak_instance(rng, rng.randint(1, 4), rng.randint(1, 8))
        out, trace = eps_outcome(inst, mode="standard")
        assert trace.horizon == F(inst.m, inst.n)
        for a in inst.agents:
            segs = trace.segments[a]
            assert segs[0].start == 0 and segs[-1].end == trace.horizon
            for prev, cur in zip(segs, segs[1:]):
                assert prev.end == cur.start
            for seg in segs:
                assert seg.amount == seg.end - seg.start > 0
        integrated = trace.integrate()
        for a in inst.agents:
            assert integrated[a] == {o: v for o, v in out.row(a).items() if v > 0}


def test_skip_zero_requires_binary(example_instance):
    with pytest.raises(ValueError):
        eps_outcome(example_instance, mode="skip_zero")
    with pytest.raises(ValueError):
        eps_outcome(example_instance, mode="bogus")


def test_skip_zero_example():
    inst = Instance.from_utilities(
        {"1": {"a": 1, "b": 0}, "2": {"a": 1, "b": 1}},
        agents=["1", "2"], items=["a", "b"],
    )
    out, _ = eps_outcome(inst, mode="skip_zero")
    assert out.row("1") == {"a": F(1), "b": F(0)}
    assert out.row("2") == {"a": F(0), "b": F(1)}


def test_skip_zero_forced_coordination():
    # Agent 2 can only use x; agent 1 must wait on y even though both are
    # equally liked: pinning agent 1's split early would be wrong.
    inst = Instance.from_utilities(
        {"1": {"x": 1, "y": 1}, "2": {"x": 1, "y": 0}},
        agents=["1", "2"], items=["x", "y"],
    )
    out, _ = eps_outcome(inst, mode="skip_zero")
    assert out.row("1") == {"x": F(0), "y": F(1)}
    assert out.row("2") == {"x": F(1), "y": F(0)}


def test_skip_zero_zero_entries_and_padding():
    inst = Instance.from_utilities(
        {"1": {"a": 1, "b": 0, "c": 0}, "2": {"a": 1, "b": 1, "c": 0}},
        agents=["1", "2"], items=["a", "b", "c"],
    )
    out, trace = eps_outcome(inst, mode="skip_zero")
    assert globally_unwanted(inst) == ("c",)
    # zero-utility entries stay zero except for the uniformly split leftover
    assert out.entry("1", "b") == 0
    assert out.entry("1", "c") == out.entry("2", "c") == F(1, 2)
    pads = [s for a in inst.agents for s in trace.segments[a] if s.start >= trace.horizon]
    assert {s.item for s in pads} == {"c"}
    integrated = trace.integrate()
    for a in inst.agents:
        assert integrated[a] == {o: v for o, v in out.row(a).items() if v > 0}


def test_skip_zero_agent_with_no_liked_items():
    inst = Instance.from_utilities(
        {"1": {"a": 0}, "2": {"a": 1}}, agents=["1", "2"], items=["a"]
    )
    out, _ = eps_outcome(inst, mode="skip_zero")
    assert out.row("2") == {"a": F(1)}


def test_skip_zero_matches_leximin_fuzz():
    rng = random.Random(63)
    for _ in range(40):
        inst = binary_instance(rng, rng.randint(1, 4), rng.randint(1, 6))
        out, _ = eps_outcome(inst, mode="skip_zero")
        vector, _witness = leximin_bruteforce(inst)
        got = tuple(sorted(utility_of_bundle(inst, a, out.row(a)) for a in inst.agents))
        assert got == vector


def test_duration_shared_fresh_item():
    net = EatingNetwork(
        eaters=("1", "2"),
        eligible={"1": frozenset({"a"}), "2": frozenset({"a"})},
        capacity={"a": F(1)},
    )
    res = max_eating_duration(net)
    assert res.duration == F(1, 2)
    assert res.tight_eaters == ("1", "2")
    assert res.tight_items == ("a",)


def test_duration_single_eater_two_items():
    net = EatingNetwork(
        eaters=("1",),
        eligible={"1": frozenset({"a", "b"})},
        capacity={"a": F(1), "b": F(1)},
    )
    res = max_eating_duration(net)
    assert res.duration == F(2)
    assert res.tight_items == ("a", "b")


def test_duration_bottleneck_subset():
    net = EatingNetwork(
        eaters=("1", "2", "3"),
        eligible={
            "1": frozenset({"a"}),
            "2": frozenset({"a"}),
            "3": frozenset({"a", "b"}),
        },
        capacity={"a": F(1), "b": F(1)},
    )
    res = max_eating_duration(net)
    assert res.duration == F(1, 2)
    assert res.tight_eaters == ("1", "2")
    assert res.tight_items == ("a",)
    flow_into_a = sum(res.flow[e].get("a", F(0)) for e in ("1", "2", "3"))
    assert flow_into_a == F(1)


def test_duration_rejects_starved_eater():
    net = EatingNetwork(
        eaters=("1",),
        eligible={"1": frozenset({"a"})},
        capacity={"a": F(0)},
    )
    with pytest.raises(ValueError):
        max_eating_duration(net)


def test_duration_accounts_for_prior_demand():
    # One unit already eaten fluidly from {a, b} leaves room for one more.
    net = EatingNetwork(
        eaters=("1",),
        eligible={"1": frozenset({"a", "b"})},
        capacity={"a": F(1), "b": F(1)},
        demands={"1": F(1)},
    )
    res = max_eating_duration(net)
    assert res.duration == F(1)
    assert sum(res.flow["1"].values()) == F(2)


def random_singleton_network(rng):
    """Eaters with one eligible item each, random prior demands and
    capacities no smaller than the demand already on each item."""
    items = [f"o{j}" for j in range(rng.randint(1, 4))]
    eaters = tuple(f"e{i}" for i in range(rng.randint(1, 6)))
    eligible = {e: frozenset({rng.choice(items)}) for e in eaters}
    demands = {e: F(rng.randint(0, 4), rng.randint(1, 4)) for e in eaters
               if rng.random() < 0.7}
    capacity = {}
    for o in items:
        prior = sum((demands.get(e, F(0)) for e in eaters if o in eligible[e]), F(0))
        extra = F(rng.randint(0, 4), rng.randint(1, 4)) if rng.random() < 0.8 else F(0)
        capacity[o] = prior + extra if prior + extra > 0 else F(1)
    return EatingNetwork(eaters, eligible, capacity, demands)


def hall_bruteforce(net):
    """Duration as the smallest Hall ratio over eater subsets, and the
    union of the subsets that ratio leaves with zero slack."""
    subsets = [S for k in range(1, len(net.eaters) + 1)
               for S in combinations(net.eaters, k)]

    def slack(S, duration):
        items = set().union(*(net.eligible[e] for e in S))
        return (sum(net.capacity[o] for o in items)
                - sum(net.demand_of(e) for e in S)
                - duration * len(S))

    duration = min(slack(S, 0) / len(S) for S in subsets)
    tight = {e for S in subsets if slack(S, duration) == 0 for e in S}
    return duration, tight


def test_singleton_duration_matches_hall_bruteforce():
    rng = random.Random(64)
    for _ in range(400):
        net = random_singleton_network(rng)
        duration, tight = hall_bruteforce(net)
        res = max_eating_duration(net)
        assert res.duration == duration
        assert res.tight_eaters == tuple(sorted(tight))
        assert res.tight_items == tuple(sorted({o for e in tight for o in net.eligible[e]}))
        for e in net.eaters:
            (o,) = net.eligible[e]
            amount = net.demand_of(e) + duration
            assert res.flow[e] == ({o: amount} if amount > 0 else {})


def test_singleton_duration_rejects_excess_demand():
    net = EatingNetwork(
        eaters=("1", "2"),
        eligible={"1": frozenset({"a"}), "2": frozenset({"b"})},
        capacity={"a": F(1), "b": F(1)},
        demands={"1": F(3, 2)},
    )
    with pytest.raises(ValueError):
        max_eating_duration(net)



def test_one_residual_search_per_failing_dinkelbach_round(monkeypatch):
    # Each Dinkelbach round runs one max-flow; a round that falls short
    # reads its violator set off one search from the source, and a
    # multi-item step ends with one search towards the sink.
    calls = {"maxflow": 0, "reachable_from": 0, "cannot_reach": 0}
    for name in calls:
        original = getattr(_Flow, name)

        def counted(self, node, *rest, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, node, *rest)

        monkeypatch.setattr(_Flow, name, counted)
    inst = weak_instance(random.Random(2), 30, 60, 20)
    out, _ = eps_outcome(inst, mode="standard")
    assert all(sum(out.row(a).values()) == 2 for a in inst.agents)
    failing = calls["maxflow"] - calls["cannot_reach"]
    assert calls["maxflow"] >= 10 and failing >= 10
    assert calls["reachable_from"] <= failing
