"""Differential property tests: the ex-post checkers and the oracle's
Pareto filter against brute force written from the definitions,
support reduction against a dense full-width elimination, and the eating
engine's max-flow against networkx.

The checkers compare per-agent integer-scaled utilities, so instances
here carry fractional utilities (denominators up to 12), zeros and ties:
a wrong scale would pass every integer-utility test.  Certificates are
replayed with exact ``Fraction`` arithmetic.
"""

from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
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
    reduce_support,
    utility_of_bundle,
)
from fairlot.cli import _pareto_flags
from fairlot.eps import _Flow
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


@st.composite
def lotteries(draw):
    """Lotteries over n <= 3 agents and m <= 5 items, drawn from all n^m
    allocations with repeats.  Crossed pairs make supports affinely
    dependent on purpose: x + y = x' + y' when x' and y' swap the owners
    of x and y on a set of items."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    agents = tuple(f"a{i}" for i in range(1, n + 1))
    items = tuple(f"o{j}" for j in range(1, m + 1))
    owners = st.tuples(*[st.sampled_from(agents)] * m)
    support = draw(st.lists(owners, min_size=1, max_size=12))
    for x, y in draw(st.lists(st.tuples(owners, owners), max_size=3)):
        swap = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        support += [x, y,
                    tuple(b if s else a for a, b, s in zip(x, y, swap)),
                    tuple(a if s else b for a, b, s in zip(x, y, swap))]
    raw = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    return Lottery(tuple(
        (F(w, sum(raw)), DeterministicAllocation(agents, items, o))
        for w, o in zip(raw, support)
    ))


def dense_vector(alloc):
    """The full-width 0/1 vectorization: coordinate (i, j) at i*m + j,
    then the affine 1."""
    return [int(owner == a) for a in alloc.agents for owner in alloc.owners] + [1]


def dense_dependency(vectors):
    """Integer elimination over every coordinate; the coefficients of the
    first vector that reduces to zero, or None."""
    basis = []  # (pivot, row, coefficients)
    for t, vec in enumerate(vectors):
        row, expr = list(vec), {t: F(1)}
        for pivot, brow, bexpr in basis:
            q = row[pivot]
            if q:
                p = brow[pivot]
                row = [p * x - q * y for x, y in zip(row, brow)]
                expr = {k: p * v for k, v in expr.items()}
                for k, v in bexpr.items():
                    expr[k] = expr.get(k, F(0)) - q * v
        if not any(row):
            return [expr.get(k, F(0)) for k in range(len(vectors))]
        g = 0
        for v in row:
            g = gcd(g, abs(v))
        basis.append((next(i for i, v in enumerate(row) if v),
                      [v // g for v in row], {k: v / g for k, v in expr.items()}))
    return None


def dense_reduce(lottery):
    """Shift weight along kernel vectors of the dense vectorization until
    the support is affinely independent."""
    entries = list(lottery.merged().entries)
    while (gamma := dense_dependency([dense_vector(a) for _, a in entries])) is not None:
        if all(g <= 0 for g in gamma):
            gamma = [-g for g in gamma]
        step = min(w / g for (w, _), g in zip(entries, gamma) if g > 0)
        entries = [(w - step * g, a) for (w, a), g in zip(entries, gamma) if w != step * g]
    return tuple(entries)


def rank(rows):
    rows = [[F(v) for v in row] for row in rows]
    r = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


@SETTINGS
@given(lotteries())
def test_reduce_support_matches_dense_elimination(lottery):
    slim = reduce_support(lottery)
    assert expected_allocation(slim) == expected_allocation(lottery)
    assert {a.owners for a in slim.support} <= {a.owners for a in lottery.support}
    vectors = [dense_vector(a) for a in slim.support]
    assert rank(vectors) == len(vectors)
    assert slim.entries == dense_reduce(lottery)


@st.composite
def flow_networks(draw):
    """Small directed graphs with parallel and antiparallel edges and
    rational capacities; node 0 is the source, node 1 the sink."""
    size = draw(st.integers(2, 7))
    node = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(node, node, utilities), max_size=18))
    return size, [(u, v, cap) for u, v, cap in edges if u != v]


def cut_capacity(edges, side):
    return sum((cap for u, v, cap in edges if u in side and v not in side), F(0))


@SETTINGS
@given(flow_networks())
def test_maxflow_matches_networkx(network):
    nx = pytest.importorskip("networkx")
    size, edges = network
    flow = _Flow(size)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(size))
    for u, v, cap in edges:
        flow.add(u, v, cap)
        if graph.has_edge(u, v):
            graph[u][v]["capacity"] += cap
        else:
            graph.add_edge(u, v, capacity=cap)
    value = flow.maxflow(0, 1)
    assert value == nx.maximum_flow_value(graph, 0, 1)
    # Both residual cuts certify the value: the smallest source side and
    # the largest one.
    smallest, largest = flow.reachable_from(0), flow.cannot_reach(1)
    assert 0 in smallest <= largest and 1 not in largest
    assert cut_capacity(edges, smallest) == cut_capacity(edges, largest) == value
