import random
from fractions import Fraction as F

import pytest

from fairlot import OrdinalProfile, ordinal_from_utilities, ps_outcome
from conftest import strict_instance
from references import integrate


def orders(items, by_agent):
    """Strict profile from each agent's best-first item order."""
    tiers = {a: tuple((o,) for o in order) for a, order in by_agent.items()}
    return OrdinalProfile(tuple(by_agent), tuple(items), tiers)


def test_example_profile():
    items = ["a", "b", "c", "d"]
    out, _ = ps_outcome(["1", "2"], items, orders(items, {"1": "abcd", "2": "acbd"}))
    assert out.row("1") == {"a": F(1, 2), "b": F(1), "c": F(0), "d": F(1, 2)}
    assert out.row("2") == {"a": F(1, 2), "b": F(0), "c": F(1), "d": F(1, 2)}


def test_single_eater_gets_everything():
    out, trace = ps_outcome(["1"], ["a", "b"], orders("ab", {"1": "ab"}))
    assert out.row("1") == {"a": F(1), "b": F(1)}
    segs = trace.segments["1"]
    assert [s.item for s in segs] == ["a", "b"]
    assert segs[-1].end == trace.horizon == F(2)


def test_identical_orders_split_evenly():
    out, _ = ps_outcome(["1", "2"], ["a", "b"], orders("ab", {"1": "ab", "2": "ab"}))
    for agent in ("1", "2"):
        assert out.row(agent) == {"a": F(1, 2), "b": F(1, 2)}


def test_rejects_ties():
    tied = OrdinalProfile(("1", "2"), ("a", "b"), {"1": (("a", "b"),), "2": (("a",), ("b",))})
    with pytest.raises(ValueError, match="ties"):
        ps_outcome(["1", "2"], ["a", "b"], tied)


def test_rejects_profile_over_other_items():
    prefs = orders("abc", {"1": "abc", "2": "cba"})
    with pytest.raises(ValueError, match="other items"):
        ps_outcome(["1", "2"], ["a", "b"], prefs)
    with pytest.raises(ValueError, match="other items"):
        ps_outcome(["1", "2"], ["a", "b", "c", "d"], prefs)


def test_example_trace_stages():
    # Both agents eat a, which runs out at 1/2; then agent 1 eats b and
    # agent 2 eats c, and both finish together at 3/2; d is shared last.
    items = ["a", "b", "c", "d"]
    _, trace = ps_outcome(["1", "2"], items, orders(items, {"1": "abcd", "2": "acbd"}))
    assert trace.segments["1"] == (
        ("a", F(0), F(1, 2), F(1, 2)),
        ("b", F(1, 2), F(3, 2), F(1)),
        ("d", F(3, 2), F(2), F(1, 2)),
    )
    assert trace.segments["2"] == (
        ("a", F(0), F(1, 2), F(1, 2)),
        ("c", F(1, 2), F(3, 2), F(1)),
        ("d", F(3, 2), F(2), F(1, 2)),
    )


def test_conservation_and_trace_fuzz():
    rng = random.Random(101)
    for _ in range(80):
        n, m = rng.randint(1, 5), rng.randint(1, 10)
        inst = strict_instance(rng, n, m)
        prof = ordinal_from_utilities(inst)
        out, trace = ps_outcome(inst.agents, inst.items, prof)
        # column sums are enforced by the RandomAllocation constructor;
        # row sums must be m/n exactly
        for i in range(n):
            assert sum(out.entries[i]) == F(m, n)
        integrated = integrate(trace)
        for a in inst.agents:
            row = out.row(a)
            assert integrated[a] == {o: v for o, v in row.items() if v > 0}
            segs = trace.segments[a]
            assert segs[0].start == 0 and segs[-1].end == trace.horizon
            for prev, cur in zip(segs, segs[1:]):
                assert prev.end == cur.start
            for seg in segs:
                assert seg.amount == seg.end - seg.start > 0
            # eating follows the preference order downward
            order = [o for (o,) in prof.tiers[a]]
            positions = [order.index(s.item) for s in segs]
            assert positions == sorted(positions)
        # segment count stays linear in n*m
        assert sum(len(trace.segments[a]) for a in inst.agents) <= n * m
