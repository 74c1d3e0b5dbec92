"""Differential property tests: the ex-post checkers and the oracle's
Pareto filter against brute force written from the definitions.

The checkers compare per-agent integer-scaled utilities, so instances
here carry fractional utilities (denominators up to 12), zeros and ties:
a wrong scale would pass every integer-utility test.  Certificates are
replayed with exact ``Fraction`` arithmetic.
"""

from fractions import Fraction as F
from itertools import product

from hypothesis import given, settings, strategies as st

from fairlot import (
    DeterministicAllocation,
    Instance,
    Lottery,
    check_efk,
    check_po_bruteforce,
    check_sd_ef,
    check_sd_ef1,
    check_strong_ef1,
    expected_allocation,
    ordinal_from_utilities,
    utility_of_bundle,
)
from fairlot.cli import _pareto_flags
from fairlot.oracle import enumerate_allocations
from test_fairness import slow_efk, slow_sd_ef1

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

utilities = st.builds(F, st.integers(0, 12), st.integers(1, 12))


@st.composite
def instances(draw, max_agents=4, max_items=6):
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(1, max_items))
    agents = [f"a{i}" for i in range(1, n + 1)]
    items = [f"o{j}" for j in range(1, m + 1)]
    table = {a: {o: draw(utilities) for o in items} for a in agents}
    return Instance.from_utilities(table, agents=agents, items=items)


@st.composite
def allocated(draw, max_agents=4, max_items=6):
    inst = draw(instances(max_agents, max_items))
    owners = tuple(draw(st.sampled_from(inst.agents)) for _ in inst.items)
    return inst, DeterministicAllocation(inst.agents, inst.items, owners)


def utility(inst, agent, bundle):
    return sum((inst.utility(agent, o) for o in bundle), F(0))


def vector(inst, alloc):
    return tuple(utility(inst, a, alloc.bundle(a)) for a in inst.agents)


def dominates(v, w):
    return all(x >= y for x, y in zip(v, w)) and v != w


def upper_contour_dominates(inst, agent, x, y):
    """x weakly SD-dominates y for the agent: on every set of the items it
    values at least some u, x puts at least as much mass as y."""
    for level in {inst.utility(agent, o) for o in inst.items}:
        upper = [o for o in inst.items if inst.utility(agent, o) >= level]
        if sum(x[o] for o in upper) < sum(y[o] for o in upper):
            return False
    return True


def slow_strong_ef1(alloc, inst):
    for i in inst.agents:
        bundle = alloc.bundle(i)
        if not any(utility(inst, j, alloc.bundle(j)) < utility(inst, j, bundle)
                   for j in inst.agents if j != i):
            continue
        if not any(
            all(utility(inst, j, alloc.bundle(j))
                >= utility(inst, j, [x for x in bundle if x != o])
                for j in inst.agents if j != i)
            for o in bundle
        ):
            return False
    return True


@SETTINGS
@given(allocated())
def test_efk_matches_definition(case):
    inst, alloc = case
    for k in (0, 1, 2):
        report = check_efk(alloc, inst, k)
        assert report.ok == slow_efk(alloc, inst, k)
        if not report.ok:
            # The gap is the exact envy left after the reported removal.
            i, j = report.violation["envious"], report.violation["envied"]
            removal = report.violation["best_removal"]
            own, other = alloc.row(i), alloc.row(j)
            for o in removal:
                own[o] = F(0)
                other[o] = F(0)
            gap = utility_of_bundle(inst, i, other) - utility_of_bundle(inst, i, own)
            assert report.violation["gap"] == gap > 0


@SETTINGS
@given(allocated())
def test_sd_ef1_matches_definition(case):
    inst, alloc = case
    prefs = ordinal_from_utilities(inst)
    report = check_sd_ef1(alloc, prefs)
    assert report.ok == slow_sd_ef1(alloc, prefs)
    if report.ok:
        for pair, o in report.witness["removals"].items():
            i, j = pair.split("->")
            reduced = alloc.row(j)
            assert reduced[o] == 1
            reduced[o] = F(0)
            assert upper_contour_dominates(inst, i, alloc.row(i), reduced)


@SETTINGS
@given(allocated(), st.data())
def test_sd_ef_matches_definition(case, data):
    inst, alloc = case
    others = [
        DeterministicAllocation(
            inst.agents, inst.items,
            tuple(data.draw(st.sampled_from(inst.agents)) for _ in inst.items),
        )
        for _ in range(2)
    ]
    p = expected_allocation(Lottery(((F(1, 2), alloc), (F(1, 3), others[0]),
                                     (F(1, 6), others[1]))))
    expected = all(
        upper_contour_dominates(inst, i, p.row(i), p.row(j))
        for i in inst.agents for j in inst.agents if i != j
    )
    assert check_sd_ef(p, ordinal_from_utilities(inst)).ok == expected


@SETTINGS
@given(allocated())
def test_strong_ef1_matches_definition(case):
    inst, alloc = case
    report = check_strong_ef1(alloc, inst)
    assert report.ok == slow_strong_ef1(alloc, inst)
    if report.ok:
        for i, o in report.witness["common_removals"].items():
            rest = [x for x in alloc.bundle(i) if x != o]
            for j in inst.agents:
                if j != i:
                    assert utility(inst, j, alloc.bundle(j)) >= utility(inst, j, rest)


@SETTINGS
@given(allocated(max_agents=3, max_items=5))
def test_po_matches_definition(case):
    inst, alloc = case
    base = vector(inst, alloc)
    improvable = any(
        dominates(vector(inst, DeterministicAllocation(inst.agents, inst.items, owners)), base)
        for owners in product(inst.agents, repeat=inst.m)
    )
    report = check_po_bruteforce(alloc, inst)
    assert report.ok == (not improvable)
    if not report.ok:
        better = DeterministicAllocation.from_mapping(
            inst.agents, inst.items, report.violation["improving_allocation"]
        )
        utilities = report.violation["utilities"]
        assert utilities == {
            a: utility_of_bundle(inst, a, better.row(a)) for a in inst.agents
        }
        assert dominates(tuple(utilities[a] for a in inst.agents), base)


@SETTINGS
@given(instances(max_agents=3, max_items=4))
def test_pareto_flags_match_definition(inst):
    allocations = enumerate_allocations(inst.agents, inst.items)
    vectors = [vector(inst, alloc) for alloc in allocations]
    expected = [not any(dominates(w, v) for w in vectors) for v in vectors]
    assert _pareto_flags(inst, allocations) == expected
