import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fairlot import (
    Instance,
    TraceSegment,
    eps_outcome,
    globally_unwanted,
    ordinal_from_utilities,
    ps_outcome,
)
from fairlot import eps
from fairlot.eps import _Flow
from fairlot.oracle import sd_improvement_exists
from conftest import binary_instance, max_eating_duration, strict_instance, weak_instance
from references import integrate, leximin_bruteforce, utility_of_bundle


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


TWO_GROUPS = {
    "a1": {"x": 3, "y": 3, "p": 1, "q": 1},
    "a2": {"x": 3, "y": 3, "p": 1, "q": 1},
    "b1": {"p": 3, "q": 2, "x": 1, "y": 1},
    "b2": {"p": 3, "q": 3, "x": 1, "y": 1},
}


@pytest.mark.parametrize("agents", [["a1", "a2", "b1", "b2"], ["b1", "b2", "a1", "a2"]],
                         ids=["a-first", "b-first"])
def test_equal_eaters_share_their_rows_whatever_finishes_with_them(agents):
    # a1 and a2 eat the tier {x, y}; b1 eats p, and b2 eats the tier
    # {p, q}.  Both groups run out at time 1.  a1 and a2 share their rows
    # whichever vertex the max-flow finds, and whichever group is seated
    # first; b1 and b2 eat from different items, so each keeps its witness.
    inst = Instance.from_utilities(
        {a: TWO_GROUPS[a] for a in agents}, agents=agents, items=["x", "y", "p", "q"])
    out, _ = eps_outcome(inst, mode="standard")
    half = F(1, 2)
    assert out.row("a1") == {"x": half, "y": half, "p": F(0), "q": F(0)}
    assert out.row("a2") == {"x": half, "y": half, "p": F(0), "q": F(0)}
    assert out.row("b1") == {"x": F(0), "y": F(0), "p": F(1), "q": F(0)}
    assert out.row("b2") == {"x": F(0), "y": F(0), "p": F(0), "q": F(1)}


def test_every_class_of_equal_eaters_shares_its_rows():
    # Two groups of equal eaters run out at time 1: each class averages
    # its own witness rows, so every eater gets half of each of its items.
    inst = Instance.from_utilities(
        {
            "a1": {"x": 3, "y": 3, "p": 1, "q": 1},
            "b1": {"p": 3, "q": 3, "x": 1, "y": 1},
            "a2": {"x": 3, "y": 3, "p": 1, "q": 1},
            "b2": {"p": 3, "q": 3, "x": 1, "y": 1},
        },
        agents=["a1", "b1", "a2", "b2"], items=["x", "y", "p", "q"],
    )
    out, _ = eps_outcome(inst, mode="standard")
    half = F(1, 2)
    assert out.entries == (
        (half, half, F(0), F(0)),
        (F(0), F(0), half, half),
        (half, half, F(0), F(0)),
        (F(0), F(0), half, half),
    )


def test_eaters_with_different_items_keep_the_witness():
    # b1 eats only p and b2 eats {p, q}; both are tight at time 1, in
    # classes of one, so each keeps its one whole item.
    inst = Instance.from_utilities(
        {"b1": {"p": 2, "q": 1}, "b2": {"p": 1, "q": 1}}, agents=["b1", "b2"], items=["p", "q"])
    out, trace = eps_outcome(inst, mode="standard")
    assert out.entries == ((F(1), F(0)), (F(0), F(1)))
    assert trace.segments["b2"] == (TraceSegment("q", F(0), F(1), F(1)),)


@st.composite
def repeated_profiles(draw, binary):
    """Up to six agents whose utility rows come from at most three base
    rows; outside binary mode each agent scales its base by its own
    positive factor, which keeps the tiers."""
    items = [f"o{j}" for j in range(draw(st.integers(1, 9)))]
    agents = [f"a{i}" for i in range(draw(st.integers(2, 6)))]
    row = st.lists(st.integers(0, 1) if binary else st.integers(1, 3),
                   min_size=len(items), max_size=len(items))
    bases = draw(st.lists(row, min_size=1, max_size=3))
    factor = st.just(F(1)) if binary else st.builds(F, st.integers(1, 6), st.integers(1, 4))
    table = {}
    for a in agents:
        base, k = draw(st.sampled_from(bases)), draw(factor)
        table[a] = dict(zip(items, (k * v for v in base)))
    return Instance.from_utilities(table, agents=agents, items=items)


@pytest.mark.parametrize("mode", ["standard", "skip_zero"])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_equal_agents_get_equal_rows(mode, data):
    # Standard mode: equal tiers give equal rows.  Skip-zero mode: equal
    # liked sets give equal rows.
    inst = data.draw(repeated_profiles(mode == "skip_zero"))
    out, _ = eps_outcome(inst, mode=mode)
    tiers = ordinal_from_utilities(inst).tiers
    if mode == "skip_zero":
        tiers = {a: {o for o, v in inst.utility_row(a).items() if v == 1} for a in inst.agents}
    for a, b in combinations(inst.agents, 2):
        if tiers[a] == tiers[b]:
            assert out.row(a) == out.row(b)


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
        {a: {names[o]: v for o, v in inst.utility_row(a).items()} for a in agents},
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
        integrated = integrate(trace)
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
    assert out.row("1")["b"] == 0
    assert out.row("1")["c"] == out.row("2")["c"] == F(1, 2)
    pads = [s for a in inst.agents for s in trace.segments[a] if s.start >= trace.horizon]
    assert {s.item for s in pads} == {"c"}
    integrated = integrate(trace)
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
    duration, tight, tight_items, _ = max_eating_duration(("1", "2"), {"1": "a", "2": "a"})
    assert duration == F(1, 2)
    assert tight == ("1", "2")
    assert tight_items == ("a",)


def test_duration_single_eater_two_items():
    duration, _, tight_items, _ = max_eating_duration(("1",), {"1": "ab"})
    assert duration == F(2)
    assert tight_items == ("a", "b")


def test_duration_bottleneck_subset():
    duration, tight, tight_items, flow = max_eating_duration(
        ("1", "2", "3"), {"1": "a", "2": "a", "3": "ab"})
    assert duration == F(1, 2)
    assert tight == ("1", "2")
    assert tight_items == ("a",)
    assert sum(flow[e].get("a", F(0)) for e in ("1", "2", "3")) == F(1)


def test_duration_accounts_for_prior_demand():
    # One unit already eaten fluidly from {a, b} leaves room for one more.
    duration, _, _, flow = max_eating_duration(("1",), {"1": "ab"}, {"1": F(1)})
    assert duration == F(1)
    assert sum(flow["1"].values()) == F(2)


def random_singleton_group(rng):
    """Eaters with one unit item each, and random prior demands that leave
    every item room for the demand already on it."""
    items = [f"o{j}" for j in range(rng.randint(1, 4))]
    eaters = tuple(f"e{i}" for i in range(rng.randint(1, 6)))
    eligible = {e: (rng.choice(items),) for e in eaters}
    demand = {e: F(0) for e in eaters}
    for e in eaters:
        room = 1 - sum(demand[d] for d in eaters if eligible[d] == eligible[e])
        if room > 0 and rng.random() < 0.7:
            demand[e] = room * F(rng.randint(0, 4), 4)
    return eaters, eligible, demand


def hall_bruteforce(eaters, eligible, demand):
    """Duration as the smallest Hall ratio over eater subsets, and the
    union of the subsets that ratio leaves with zero slack."""
    subsets = [S for k in range(1, len(eaters) + 1) for S in combinations(eaters, k)]

    def slack(S, duration):
        items = set().union(*(eligible[e] for e in S))
        return len(items) - sum(demand[e] for e in S) - duration * len(S)

    duration = min(slack(S, 0) / len(S) for S in subsets)
    tight = {e for S in subsets if slack(S, duration) == 0 for e in S}
    return duration, tight


def test_singleton_duration_matches_hall_bruteforce():
    rng = random.Random(64)
    for _ in range(400):
        eaters, eligible, demand = random_singleton_group(rng)
        duration, tight = hall_bruteforce(eaters, eligible, demand)
        got, got_tight, tight_items, flow = max_eating_duration(eaters, eligible, demand)
        assert got == duration
        assert got_tight == tuple(sorted(tight))
        assert tight_items == tuple(sorted({o for e in tight for o in eligible[e]}))
        for e in eaters:
            (o,) = eligible[e]
            amount = demand[e] + duration
            assert flow[e] == ({o: amount} if amount > 0 else {})


def test_singleton_duration_rejects_excess_demand():
    with pytest.raises(ValueError, match="prior demands are infeasible"):
        max_eating_duration(("1", "2"), {"1": "a", "2": "b"}, {"1": F(3, 2)})


def test_duration_rejects_demand_beyond_every_item():
    with pytest.raises(ValueError, match="prior demands already exceed the available capacity"):
        max_eating_duration(("1", "2"), {"1": "a", "2": "a"}, {"1": F(1), "2": F(1, 2)})


def test_duration_flow_is_exact_on_mixed_denominators():
    # Demands over 2, 3 and 5: the step runs on their lcm scale, and the
    # witness gives each eater exactly its demand plus the duration and
    # each item exactly its one unit.
    eligible = {"1": "ab", "2": "abc", "3": "c"}
    demand = {"1": F(1, 2), "2": F(1, 3), "3": F(1, 5)}
    duration, tight, tight_items, flow = max_eating_duration(("1", "2", "3"), eligible, demand)
    assert duration == F(59, 90)
    assert tight == ("1", "2", "3") and tight_items == ("a", "b", "c")
    for e, row in flow.items():
        assert set(row) <= set(eligible[e])
        assert sum(row.values()) == demand[e] + duration
    assert all(sum(row.get(o, F(0)) for row in flow.values()) == 1 for o in "abc")


def test_no_residual_search_beyond_maxflow_and_one_towards_the_sink_per_step(monkeypatch):
    # Each Dinkelbach round runs one max-flow; a round that falls short
    # reads its violator set off the max-flow's own last search, and a
    # multi-item step ends with one search towards the sink.  Every
    # search starts a deque: none starts outside those two methods.
    calls = {"deque": 0, "in_flow": 0, "maxflow": 0, "cannot_reach": 0, "step": 0}
    real_deque, real_step = eps.deque, eps._bottleneck

    def counted_deque(*args):
        calls["deque"] += 1
        return real_deque(*args)

    def counted_step(*args):
        calls["step"] += 1
        return real_step(*args)

    for name in ("maxflow", "cannot_reach"):
        original = getattr(_Flow, name)

        def counted(self, node, *rest, _name=name, _original=original):
            calls[_name] += 1
            before = calls["deque"]
            result = _original(self, node, *rest)
            calls["in_flow"] += calls["deque"] - before
            return result

        monkeypatch.setattr(_Flow, name, counted)
    monkeypatch.setattr(eps, "deque", counted_deque)
    monkeypatch.setattr(eps, "_bottleneck", counted_step)
    inst = weak_instance(random.Random(2), 30, 60, 20)
    out, _ = eps_outcome(inst, mode="standard")
    assert all(sum(out.row(a).values()) == 2 for a in inst.agents)
    assert calls["deque"] == calls["in_flow"]
    assert calls["cannot_reach"] == calls["step"] >= 1
    assert calls["maxflow"] - calls["step"] >= 10  # rounds that fell short
