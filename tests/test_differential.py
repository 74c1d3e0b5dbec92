"""Differential property tests: the ex-post checkers and the oracle's
Pareto filter against brute force written from the definitions,
support reduction against a dense full-width elimination, the eating
engine's max-flow against networkx, and the integer-scaled Birkhoff
decomposition, bistochasticity test and ordinal profile against their
``Fraction`` formulations.

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
    birkhoff_decompose,
    check_efk,
    check_po_bruteforce,
    check_sd_ef,
    check_sd_ef1,
    check_strong_ef1,
    expected_allocation,
    is_bistochastic,
    ordinal_from_utilities,
    reduce_support,
    utility_of_bundle,
)
from fairlot.birkhoff import _complete_matching
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


def fraction_is_bistochastic(matrix):
    """Square, entries in [0, 1], rows and columns summing to 1, all in
    ``Fraction`` arithmetic."""
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        return False
    for row in matrix:
        if any(v < 0 or v > 1 for v in row):
            return False
        if sum(row) != 1:
            return False
    for j in range(k):
        if sum(row[j] for row in matrix) != 1:
            return False
    return True


def fraction_birkhoff(matrix):
    """The decomposition loop on a dense ``Fraction`` residual, as the
    library ran it before it moved to one integer scale."""
    if not fraction_is_bistochastic(matrix):
        raise ValueError("matrix is not bistochastic")
    residual = [list(row) for row in matrix]
    k = len(residual)
    adjacency = [sorted(j for j, v in enumerate(row) if v > 0) for row in residual]
    parts = []
    match_col = [-1] * k
    if not _complete_matching(adjacency, match_col, range(k)):
        raise ValueError("no perfect matching: input was not bistochastic")

    remaining = F(1)
    while remaining > 0:
        perm = [-1] * k
        for col, row in enumerate(match_col):
            perm[row] = col
        perm = tuple(perm)

        weight = min(residual[r][perm[r]] for r in range(k))
        if weight <= 0:
            raise AssertionError("matched entry is not positive")
        dead_rows = []
        for r in range(k):
            c = perm[r]
            residual[r][c] -= weight
            if residual[r][c] == 0:
                adjacency[r].remove(c)
                dead_rows.append(r)
        parts.append((weight, perm))
        remaining -= weight
        if remaining == 0:
            break
        for r in dead_rows:
            match_col[perm[r]] = -1
        if not _complete_matching(adjacency, match_col, dead_rows):
            raise ValueError("no perfect matching: input was not bistochastic")

    if any(v != 0 for row in residual for v in row):
        raise AssertionError("residual nonzero after full decomposition")
    return parts


proper = st.integers(2, 60).flatmap(lambda d: st.builds(F, st.integers(1, d - 1), st.just(d)))


@st.composite
def bistochastic(draw):
    """Mixtures of up to 12 permutation matrices of size k <= 8, repeats
    included.  The weights are the gaps between cut points in (0, 1) with
    denominators up to 60, so an entry's denominator is often not the
    largest one (1/6, 4/15 cut 1 into 1/6, 1/10, 11/15; lcm 30)."""
    k = draw(st.integers(1, 8))
    perms = draw(st.lists(st.permutations(range(k)), min_size=1, max_size=9))
    perms += draw(st.lists(st.sampled_from(perms), max_size=3))
    cuts = sorted(draw(st.lists(proper, min_size=len(perms) - 1,
                                max_size=len(perms) - 1, unique=True)))
    weights = [b - a for a, b in zip([F(0), *cuts], [*cuts, F(1)])]
    matrix = [[F(0)] * k for _ in range(k)]
    for w, perm in zip(weights, perms):
        for r, c in enumerate(perm):
            matrix[r][c] += w
    return matrix


@SETTINGS
@given(bistochastic())
def test_birkhoff_matches_fraction_loop(matrix):
    assert birkhoff_decompose(matrix) == fraction_birkhoff(matrix)


@st.composite
def perturbed(draw):
    """A bistochastic matrix, untouched or broken one way: a ragged row,
    a missing row or an extra column, a negative entry offset by one above
    1 (rows and columns keep their sums), or one entry off by 1/L, where
    L is the lcm of the denominators."""
    matrix = draw(bistochastic())
    k = len(matrix)
    how = draw(st.sampled_from(["none", "ragged", "short", "wide", "sign", "off"]))
    r, c = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    if how == "ragged":
        matrix[r] = matrix[r][:-1]
    elif how == "short":
        del matrix[r]
    elif how == "wide":
        matrix = [row + [F(0)] for row in matrix]
    elif how == "sign" and k > 1:
        r2, c2 = (r + 1) % k, (c + 1) % k
        shift = matrix[r][c] + draw(proper)
        matrix[r][c] -= shift
        matrix[r2][c2] -= shift
        matrix[r][c2] += shift
        matrix[r2][c] += shift
    elif how == "off":
        scale = 1
        for row in matrix:
            for v in row:
                scale = scale * v.denominator // gcd(scale, v.denominator)
        delta = draw(st.sampled_from([F(1, scale), F(-1, scale)]))
        if matrix[r][c] + delta >= 0:
            matrix[r][c] += delta
    return matrix


@SETTINGS
@given(perturbed())
def test_is_bistochastic_matches_fraction_definition(matrix):
    expected = fraction_is_bistochastic(matrix)
    assert is_bistochastic(matrix) == expected
    if not expected:
        with pytest.raises(ValueError, match="^matrix is not bistochastic$"):
            birkhoff_decompose(matrix)


def fraction_tiers(inst):
    """Tiers from sorting the ``Fraction`` utilities, best first."""
    tiers = {}
    for a in inst.agents:
        values = sorted({inst.utility(a, o) for o in inst.items}, reverse=True)
        tiers[a] = tuple(
            tuple(sorted(o for o in inst.items if inst.utility(a, o) == v))
            for v in values
        )
    return tiers


@SETTINGS
@given(instances())
def test_ordinal_profile_matches_fraction_sort(inst):
    assert dict(ordinal_from_utilities(inst).tiers) == fraction_tiers(inst)
