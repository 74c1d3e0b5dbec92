"""Differential property tests: the ex-post checkers and the item-by-item
Pareto front against brute force written from the definitions, the
simplex's sparse pivot against the dense one, the
SD-efficiency graph test against the exact improvement LP,
support reduction against a dense full-width elimination and its
last-use independence test against the exact one, the eating engine's
max-flow against networkx and its one-pass first phase against plain
Edmonds–Karp, and the integer-scaled Birkhoff
decomposition, bistochasticity test, ordinal profile and eating-step
duration against their ``Fraction`` formulations; the eating loop, as
``ps_outcome`` and as ``eps_outcome`` on strict profiles, against the
serial rule's own loop, and against its stage-by-stage loop; the lottery plan, which eats before it
pads, against the pad-first plan; the strictified profile against the
rebuilt one; the literal reader against its grammar-only form, the
matrix and instance readers against conversion cell by cell, and
the document writer against ``json.dumps``; the integer re-eat and the
decomposition of its sparse rows against the ``Fraction`` loops they
replaced; and the first fault ``Instance`` and ``OrdinalProfile`` name
against their cell-by-cell checks.

The checkers compare per-agent integer-scaled utilities, so instances
here carry fractional utilities (denominators up to 12), zeros and ties:
a wrong scale would pass every integer-utility test.  Certificates are
replayed with exact ``Fraction`` arithmetic.
"""

import contextlib
import io
import json
import random
import re
import sys
from fractions import Fraction as F
from itertools import product
from math import gcd, lcm
from operator import ge, le, mul
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st, target

from fairlot import (
    DeterministicAllocation,
    Instance,
    Lottery,
    OrdinalProfile,
    RandomAllocation,
    Report,
    birkhoff_decompose,
    check_ef,
    check_efk,
    check_po_bruteforce,
    check_rb,
    check_sd_ef,
    check_sd_ef1,
    check_sd_efficient,
    check_strong_ef1,
    eps_outcome,
    expected_allocation,
    ordinal_from_utilities,
    ps_outcome,
    reduce_support,
)
from fairlot.eps import _Flow, _network
from fairlot.fairness import _topological_order, pareto_front
from fairlot.cli import main
from fairlot.fileio import FormatError, dumps, instance_from_obj, matrix_from_obj
from fairlot.model import (
    EatingTrace,
    TraceSegment,
    format_rational,
    rational,
)
from fairlot.oracle import enumerate_allocations, sd_improvement_exists
from fairlot.birkhoff import _extract
from fairlot.pslottery import (
    _find_affine_dependency,
    _fresh_dummy_ids,
    _independent_mod2,
    _last_users_cover,
    _re_eat_scaled,
    implement,
    plan,
    project,
    re_eat,
)
from fairlot.simplex import solve_lp, verify_farkas
from conftest import max_eating_duration, strict_instance
from references import (SdRelation, fraction_re_eat, is_bistochastic, sd_compare, sd_relation,
                        tier_prefixes, utility_of_bundle)
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
    values = inst.utility_row(agent)
    return sum((values[o] for o in bundle), F(0))


def vector(inst, alloc):
    return tuple(utility(inst, a, alloc.bundle(a)) for a in inst.agents)


def dominates(v, w):
    return all(x >= y for x, y in zip(v, w)) and v != w


def upper_contour_dominates(inst, agent, x, y):
    """x weakly SD-dominates y for the agent: on every set of the items it
    values at least some u, x puts at least as much mass as y."""
    values = inst.utility_row(agent)
    for level in set(values.values()):
        upper = [o for o in inst.items if values[o] >= level]
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


def replay_sd_ef1(inst, alloc, report):
    """Each removal a PASS names leaves the envier's row SD-dominating
    the other row.  The balanced-rounds witness names one by rule: for
    every pair with a nonempty other bundle, the envier's best item of
    it (by rank, then id)."""
    if not report.ok:
        return
    prefs = ordinal_from_utilities(inst)
    if "balanced_rounds" in report.witness:
        assert report.witness == {"balanced_rounds": -(-inst.m // inst.n)}
        removals = {
            f"{i}->{j}": min(alloc.bundle(j), key=lambda o: (prefs.tier_rank(i)[o], o))
            for i in inst.agents for j in inst.agents if j != i and alloc.bundle(j)}
    else:
        removals = report.witness["removals"]
    for pair, o in removals.items():
        i, j = pair.split("->")
        reduced = alloc.row(j)
        assert reduced[o] == 1
        reduced[o] = F(0)
        assert upper_contour_dominates(inst, i, alloc.row(i), reduced)


@SETTINGS
@given(allocated())
def test_sd_ef1_matches_definition(case):
    inst, alloc = case
    prefs = ordinal_from_utilities(inst)
    report = check_sd_ef1(alloc, prefs)
    assert report.ok == slow_sd_ef1(alloc, prefs)
    replay_sd_ef1(inst, alloc, report)


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


@st.composite
def sd_efficiency_cases(draw):
    """A tied profile (utility levels 0 to 3, n <= 4, m <= 6) and a
    matrix on it: a random column-stochastic matrix with zeros, the eps
    outcome, or the ps outcome of the strictified profile."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    agents = [f"a{i}" for i in range(1, n + 1)]
    items = [f"o{j}" for j in range(1, m + 1)]
    table = {a: {o: draw(st.integers(0, 3)) for o in items} for a in agents}
    inst = Instance.from_utilities(table, agents=agents, items=items)
    prefs = ordinal_from_utilities(inst)
    source = draw(st.sampled_from(["random", "eps", "ps"]))
    if source == "eps":
        return prefs, eps_outcome(inst)[0]
    if source == "ps":
        return prefs, ps_outcome(inst.agents, inst.items, prefs.strictified())[0]
    columns = []
    for _ in items:
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if not any(weights):
            weights[draw(st.integers(0, n - 1))] = 1
        columns.append([F(w, sum(weights)) for w in weights])
    return prefs, RandomAllocation(
        inst.agents, inst.items, tuple(tuple(col[i] for col in columns) for i in range(n))
    )


def trade_edges(p, prefs):
    """(x, y) -> whether the edge is strict, for every x != y that some
    agent holding y ranks at or above y."""
    edges = {}
    for a in p.rows:
        rank, row = prefs.tier_rank(a), p.row(a)
        for y in p.items:
            if row[y] > 0:
                for x in p.items:
                    if x != y and rank[x] <= rank[y]:
                        edges[x, y] = edges.get((x, y), False) or rank[x] < rank[y]
    return edges


@SETTINGS
@given(sd_efficiency_cases())
def test_sd_efficient_matches_lp(case):
    prefs, p = case
    report = check_sd_efficient(p, prefs)
    assert report.ok == (sd_improvement_exists(p, prefs) is None)
    edges = trade_edges(p, prefs)
    if report.ok:
        order = report.witness["topological_order"]
        assert sorted(order) == sorted(p.items)
        position = {o: k for k, o in enumerate(order)}
        classes = report.witness.get("classes", [])
        assert all(len(c) > 1 for c in classes)
        label = {o: k for k, c in enumerate(classes) for o in c}
        for c in classes:
            assert order[position[c[0]]:position[c[0]] + len(c)] == c == sorted(c)
        for (x, y), strict in edges.items():
            inside = x in label and label.get(y) == label[x]
            assert position[x] < position[y] or inside
            assert not (strict and inside)
        return
    better = report.violation["dominating_allocation"]
    relations = [sd_compare(prefs, a, better.row(a), p.row(a)) for a in p.rows]
    assert set(relations) <= {SdRelation.DOMINATES, SdRelation.EQUIVALENT}
    assert SdRelation.DOMINATES in relations
    cycle = report.violation["trading_cycle"]
    assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1 >= 2
    steps = list(zip(cycle, cycle[1:]))
    assert all(step in edges for step in steps)
    assert any(edges[step] for step in steps)


def replay_strong_ef1(inst, alloc, report):
    """Each common removal a PASS names leaves nobody envying the rest of
    the bundle.  The balanced-rounds witness names one by rule: every
    nonempty bundle's owner's own best item (by rank, then id)."""
    if not report.ok:
        return
    if "balanced_rounds" in report.witness:
        assert report.witness == {"balanced_rounds": -(-inst.m // inst.n)}
        prefs = ordinal_from_utilities(inst)
        removals = {i: min(alloc.bundle(i), key=lambda o: (prefs.tier_rank(i)[o], o))
                    for i in inst.agents if alloc.bundle(i)}
    else:
        removals = report.witness["common_removals"]
    for i, o in removals.items():
        rest = [x for x in alloc.bundle(i) if x != o]
        for j in inst.agents:
            if j != i:
                assert utility(inst, j, alloc.bundle(j)) >= utility(inst, j, rest)


@SETTINGS
@given(allocated())
def test_strong_ef1_matches_definition(case):
    inst, alloc = case
    report = check_strong_ef1(alloc, inst)
    assert report.ok == slow_strong_ef1(alloc, inst)
    replay_strong_ef1(inst, alloc, report)


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


def scaled_vector(inst, alloc):
    """Every agent's utility of its bundle in its ``integer_rows`` scale."""
    scales = [scale for _, scale in inst.integer_rows()]
    return tuple(int(u * s) for u, s in zip(vector(inst, alloc), scales))


def reference_pareto_front(inst):
    """Every allocation in ``enumerate_allocations`` order, its integer
    utility vector, and the set of Pareto-maximal vectors, by brute force."""
    allocations = enumerate_allocations(inst.agents, inst.items)
    vectors = [scaled_vector(inst, alloc) for alloc in allocations]
    maxima = []
    for v in sorted(set(vectors), key=sum, reverse=True):
        if not any(all(map(ge, w, v)) for w in maxima):
            maxima.append(v)
    return allocations, vectors, set(maxima)


@st.composite
def tied_instances(draw):
    """n <= 4 agents, m <= 6 items, values drawn from a palette of at most
    three (zero included), rows repeated or all zero."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    palette = [F(0)] + draw(st.lists(utilities, min_size=1, max_size=3))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["drawn", "drawn", "repeat", "zero"]))
        if kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "zero":
            rows.append([F(0)] * m)
        else:
            rows.append([draw(st.sampled_from(palette)) for _ in range(m)])
    agents = [f"a{i}" for i in range(1, n + 1)]
    items = [f"o{j}" for j in range(1, m + 1)]
    table = {a: dict(zip(items, row)) for a, row in zip(agents, rows)}
    return Instance.from_utilities(table, agents=agents, items=items)


@SETTINGS
@given(tied_instances(), st.data())
def test_pareto_flags_match_definition(inst, data):
    allocations, vectors, maximal = reference_pareto_front(inst)
    front, scaled, maxima = pareto_front(inst)
    assert [(a, v) for a, v in zip(allocations, vectors) if v in maximal] == list(
        zip(front, scaled))
    assert maxima == maximal
    assert pareto_front(inst)[0] is front  # computed once per instance
    event("some allocation dominated" if len(front) < len(allocations) else "all optimal")
    # A FAIL certificate names the first dominating allocation in order.
    base_alloc = data.draw(st.sampled_from(allocations))
    base = scaled_vector(inst, base_alloc)
    first = next(((a, v) for a, v in zip(allocations, vectors)
                  if v != base and all(map(ge, v, base))), None)
    report = check_po_bruteforce(base_alloc, inst)
    event("po PASS" if report.ok else "po FAIL")
    assert report.ok == (first is None)
    if first is not None:
        better, values = first
        scales = [scale for _, scale in inst.integer_rows()]
        assert report.violation == {
            "improving_allocation": better.owner_map(),
            "utilities": {a: F(v, s) for a, v, s in zip(inst.agents, values, scales)},
        }
    # A lottery may list the agents and items in another order.
    reordered = DeterministicAllocation(inst.agents[::-1], inst.items[::-1],
                                        base_alloc.owners[::-1])
    assert check_po_bruteforce(reordered, inst) == report


def dense_pivot(tableau, cost, row, col, basis):
    """The simplex pivot updating every column of every row."""
    pivot_value = tableau[row][col]
    tableau[row] = [v / pivot_value for v in tableau[row]]
    for r, other in enumerate(tableau):
        if r != row and other[col] != 0:
            factor = other[col]
            tableau[r] = [v - factor * w for v, w in zip(other, tableau[row])]
    if cost[col] != 0:
        factor = cost[col]
        for j, w in enumerate(tableau[row]):
            cost[j] -= factor * w
    basis[row] = col


@st.composite
def linear_programs(draw):
    """min c.x, A x = b, x >= 0 with up to 4 rows and 6 columns: 0/1,
    small-integer, repeated and zero columns, rational right-hand sides
    (zero and negative ones included)."""
    nrows = draw(st.integers(1, 4))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["binary", "integer", "repeat", "zero"]))
        if kind == "repeat" and columns:
            columns.append(draw(st.sampled_from(columns)))
        elif kind == "zero":
            columns.append([F(0)] * nrows)
        else:
            values = st.integers(0, 1) if kind == "binary" else st.integers(-2, 3)
            columns.append([F(draw(values)) for _ in range(nrows)])
    rhs = [draw(st.builds(F, st.integers(-3, 6), st.integers(1, 4))) for _ in range(nrows)]
    objective = [F(draw(st.integers(-2, 2))) for _ in columns]
    return objective, [list(row) for row in zip(*columns)], rhs


@SETTINGS
@given(linear_programs())
@example(([F(0), F(0)], [[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)]))  # infeasible
@example(([F(-1), F(0)], [[F(1), F(-1)]], [F(0)]))  # unbounded
@example(([F(0), F(1)], [[F(1), F(0)], [F(1), F(0)], [F(1), F(1)]], [F(1)] * 3))  # degenerate
def test_sparse_pivot_matches_dense_pivot(lp):
    objective, rows, rhs = lp
    with mock.patch("fairlot.simplex._pivot", dense_pivot):
        expected = solve_lp(objective, rows, rhs)
    result = solve_lp(objective, rows, rhs)
    event(result.status)
    assert result == expected
    if result.status == "infeasible":
        assert verify_farkas(rows, rhs, result.farkas)
    elif result.status == "optimal":
        assert [sum(map(mul, row, result.x)) for row in rows] == rhs


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
    assert {a.owners for _, a in slim.entries} <= {a.owners for _, a in lottery.entries}
    vectors = [dense_vector(a) for _, a in slim.entries]
    assert rank(vectors) == len(vectors)
    assert slim.entries == dense_reduce(lottery)


def dense_mask(alloc):
    """``dense_vector`` as a bitmask, coordinate b at bit b."""
    return sum(1 << b for b, x in enumerate(dense_vector(alloc)) if x)


@SETTINGS
@given(lotteries())
# (a1, a2) + (a2, a1) = (a1, a1) + (a2, a2); each allocation but the first
# is the last to give some item to some agent.
@example(Lottery(tuple((F(1, 4), DeterministicAllocation(("a1", "a2"), ("o1", "o2"), o))
                       for o in (("a1", "a2"), ("a1", "a1"), ("a2", "a2"), ("a2", "a1")))))
def test_last_use_test_never_calls_a_dependent_support_independent(lottery):
    merged = lottery.merged()
    verdict = _last_users_cover(merged)
    event(f"independent by last use: {verdict}")
    if verdict:
        masks = [dense_mask(a) for _, a in merged.entries]
        assert _find_affine_dependency(masks, len(dense_vector(merged.entries[0][1]))) is None


@pytest.mark.parametrize("n", [150, 300])
def test_last_use_test_settles_the_ps_supports(n):
    # Each Birkhoff part zeroes a residual cell no later part uses, and at
    # n = m projection keeps every cell, so the test holds and reduction
    # returns the support as it is, with no elimination.
    lottery = implement(plan(strict_instance(random.Random(7), n, n), "ps"))
    assert _last_users_cover(lottery)
    with mock.patch("fairlot.pslottery._eliminate", side_effect=AssertionError):
        assert reduce_support(lottery) == lottery


def reference_independent_mod2(masks):
    """GF(2) independence by the textbook loop: reduce each mask by every
    earlier pivot whose lowest set bit it has."""
    pivots = []
    for mask in masks:
        for p in pivots:
            low = p & -p
            if mask & low:
                mask ^= p
        if mask == 0:
            return False
        pivots.append(mask)
    return True


@st.composite
def mask_sets(draw):
    """Bitmasks over up to 12 bits, with XORs of earlier masks and
    repeats mixed in, so that dependent sets are common."""
    dim = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << dim) - 1), max_size=14))
    for _ in range(draw(st.integers(0, 3))):
        if masks:
            picked = draw(st.lists(st.sampled_from(masks), min_size=1, max_size=4))
            combined = 0
            for mask in picked:
                combined ^= mask
            at = draw(st.integers(0, len(masks)))
            masks.insert(at, combined if draw(st.booleans()) else picked[0])
    return masks


@SETTINGS
@given(mask_sets())
def test_independent_mod2_matches_pivot_loop(masks):
    verdict = _independent_mod2(masks)
    event(f"independent: {verdict}")
    assert verdict == reference_independent_mod2(masks)
    if verdict and masks:  # independent mod 2, hence over the rationals
        assert rank([[m >> b & 1 for b in range(12)] for m in masks]) == len(masks)


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
    smallest = {v for v, seen in enumerate(flow.reached) if seen}
    largest = flow.cannot_reach(1)
    assert 0 in smallest <= largest and 1 not in largest
    assert cut_capacity(edges, smallest) == cut_capacity(edges, largest) == value


@st.composite
def bottleneck_networks(draw):
    """The shape ``_bottleneck`` builds: eaters linked to ascending item
    columns, with totals of mixed denominators, often more than their
    items can take, so that paths longer than three edges are needed."""
    width = draw(st.integers(1, 6))
    links = draw(st.lists(
        st.sets(st.integers(0, width - 1), min_size=1).map(sorted), min_size=1, max_size=7))
    totals = draw(st.lists(st.builds(F, st.integers(0, 24), st.integers(2, 12)),
                           min_size=len(links), max_size=len(links)))
    return links, width, totals


def edge_flows(net):
    """Flow per edge, keyed by its ends (the networks have no parallel
    edges)."""
    return {(net.to[e + 1], net.to[e]): net.flow_on(e) for e in range(0, len(net.to), 2)}


@SETTINGS
@given(bottleneck_networks())
def test_first_phase_pass_matches_plain_edmonds_karp(network):
    links, width, totals = network
    net, scale, want, pushed = _network(links, width, totals)
    assert scale == lcm(*(d.denominator for d in totals))
    supply = [int(d * scale) for d in totals]
    assert want == sum(supply)
    # The same network with no flow, edges added source side first.
    n = len(links)
    plain = _Flow(2 + n + width)
    for i, units in enumerate(supply):
        plain.add(0, 2 + i, units)
    for i, columns in enumerate(links):
        for j in columns:
            plain.add(2 + i, 2 + n + j, width * scale + 1)
    for j in range(width):
        plain.add(2 + n + j, 1, scale)
    value = plain.maxflow(0, 1)
    rest = net.maxflow(0, 1)
    event("longer paths needed" if rest else "first phase is the whole flow")
    target(float(rest > 0), label="longer paths needed")
    assert pushed + rest == value
    assert edge_flows(net) == edge_flows(plain)
    assert net.reached == plain.reached
    assert net.cannot_reach(1) == plain.cannot_reach(1)


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


def fraction_augment(adjacency, row, match_col, visited):
    for col in adjacency[row]:
        if visited[col]:
            continue
        visited[col] = True
        if match_col[col] == -1 or fraction_augment(adjacency, match_col[col], match_col,
                                                    visited):
            match_col[col] = row
            return True
    return False


def fraction_complete_matching(adjacency, match_col, rows_to_match):
    """The library's matching repair as it stood before it reported the
    columns it set: a greedy pass in scan order, then augmenting paths."""
    deferred = []
    for row in rows_to_match:
        for col in adjacency[row]:
            if match_col[col] == -1:
                match_col[col] = row
                break
        else:
            deferred.append(row)
    for row in deferred:
        if not fraction_augment(adjacency, row, match_col, [False] * len(adjacency)):
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
    if not fraction_complete_matching(adjacency, match_col, range(k)):
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
        if not fraction_complete_matching(adjacency, match_col, dead_rows):
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
    1 (rows and columns keep their sums), one entry off by 1/L, where L is
    the lcm of the denominators, or one entry's mass moved to another row
    of its column (columns keep their sums, two rows do not)."""
    matrix = draw(bistochastic())
    k = len(matrix)
    how = draw(st.sampled_from(["none", "ragged", "short", "wide", "sign", "off", "rows"]))
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
    elif how == "rows" and k > 1:
        r2 = (r + 1) % k
        matrix[r2][c] += matrix[r][c]
        matrix[r][c] = F(0)
    return matrix


@SETTINGS
@given(perturbed())
def test_is_bistochastic_matches_fraction_definition(matrix):
    expected = fraction_is_bistochastic(matrix)
    assert is_bistochastic(matrix) == expected
    if not expected:
        with pytest.raises(ValueError, match="^matrix is not bistochastic$"):
            birkhoff_decompose(matrix)


def assert_integer_form(matrix, rows, scale):
    """``rows`` on the scale ``scale`` give back every nonzero entry of
    ``matrix`` as ``Fraction(x, scale)``, in column order, and hold no
    zero cell; ``scale`` is the lcm of those entries' denominators."""
    assert scale == lcm(*(v.denominator for row in matrix for v in row if v))
    assert len(rows) == len(matrix)
    for row, entries in zip(rows, matrix):
        assert list(row) == sorted(row)
        assert all(x > 0 for x in row.values())
        assert {j: F(x, scale) for j, x in row.items()} == {
            j: v for j, v in enumerate(entries) if v}


# RandomAllocation's checks as the Fraction definition states them, in
# the order the constructor makes them: the first fault is the one named.
def fraction_allocation_fault(rows, items, entries):
    """(exception type, message) of the first fault of a would-be
    ``RandomAllocation``, or None when it is valid."""
    if len(set(rows)) != len(rows):
        return ValueError, "duplicate row labels"
    if len(entries) != len(rows):
        return ValueError, "one entry row per row label required"
    for row in entries:
        if len(row) != len(items):
            return ValueError, "row length must match the item count"
        for v in row:
            if not isinstance(v, F):
                return TypeError, "entries must be Fractions"
            if not 0 <= v <= 1:
                return ValueError, "entries must lie in [0, 1]"
    for j, item in enumerate(items):
        total = sum(row[j] for row in entries)
        if total != 1:
            return ValueError, f"column {item!r} sums to {total}, expected 1"
    return None


@st.composite
def ex_ante_cases(draw):
    """An instance with ties (each utility one of up to four fractional
    levels, zeros included), sometimes with an agent that values nothing,
    and a random allocation on it: its eps outcome, or a random matrix,
    dense or with one or two holders per column, whose listed rows hold
    nothing.  The allocation lists its rows and columns in orders of its
    own, as a lottery document may."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    agents = [f"a{i}" for i in range(1, n + 1)]
    items = [f"o{j}" for j in range(1, m + 1)]
    levels = draw(st.lists(utilities, min_size=1, max_size=4))
    table = {a: {o: draw(st.sampled_from(levels)) for o in items} for a in agents}
    if draw(st.booleans()):
        table[draw(st.sampled_from(agents))] = dict.fromkeys(items, 0)
    inst = Instance.from_utilities(table, agents=agents, items=items)
    source = draw(st.sampled_from(["eps", "dense", "sparse"]))
    event(source)
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(m)))
    if source == "eps":
        p = eps_outcome(inst)[0]
    else:
        p = random_matrix(draw, inst, source)
    return inst, RandomAllocation(tuple(p.rows[i] for i in rows), tuple(p.items[j] for j in cols),
                                  tuple(tuple(p.entries[i][j] for j in cols) for i in rows))


def random_matrix(draw, inst, source):
    """A random column-stochastic matrix on the instance, dense or with
    one or two holders per column; some rows hold nothing."""
    n = inst.n
    empty = set(draw(st.lists(st.integers(0, n - 1), max_size=n - 1)))
    live = [i for i in range(n) if i not in empty]
    columns = []
    for _ in inst.items:
        weights = [0] * n
        if source == "dense":
            for i in live:
                weights[i] = draw(st.integers(1, 12))
        else:
            for i in draw(st.lists(st.sampled_from(live), min_size=1, max_size=2)):
                weights[i] += draw(st.integers(1, 5))
        columns.append([F(w, sum(weights)) for w in weights])
    return RandomAllocation(
        inst.agents, inst.items, tuple(tuple(col[i] for col in columns) for i in range(n))
    )


@st.composite
def allocation_inputs(draw):
    """(rows, items, entries) of a random allocation, or of a square
    ``perturbed`` matrix, broken in up to two ways: a repeated label, a
    missing entry row, a short row, a non-Fraction entry, an entry pushed
    below 0 or above 1, or one entry off by 1/L."""
    if draw(st.booleans()):
        matrix = draw(perturbed())
        rows, items = list(range(len(matrix))), [f"o{j}" for j in range(len(matrix))]
        entries = [list(row) for row in matrix]
    else:
        _, p = draw(ex_ante_cases())
        rows, items, entries = list(p.rows), list(p.items), [list(row) for row in p.entries]
    faults = ["label", "count", "short", "type", "low", "high", "off"]
    for how in draw(st.lists(st.sampled_from(faults), max_size=2)):
        if how == "label":
            rows[:1] = rows[-1:]
            continue
        row = draw(st.sampled_from(entries)) if entries else []
        if how == "count" and entries:
            entries.remove(row)
        elif row:
            c = draw(st.integers(0, len(row) - 1))
            if how == "short":
                del row[c]
            elif how == "type":
                row[c] = draw(st.sampled_from([0, 1, 0.5, True, "1/2"]))
            elif isinstance(row[c], F):
                scale = lcm(*(v.denominator for r in entries for v in r if isinstance(v, F)))
                off = F(draw(st.sampled_from([1, -1])), scale)
                row[c] += {"low": -1, "high": 1, "off": off}[how]
    return rows, items, entries


@SETTINGS
@given(allocation_inputs())
def test_random_allocation_checks_match_fraction_definition(case):
    rows, items, entries = case
    fault = fraction_allocation_fault(rows, items, entries)
    event(str(fault and fault[1].split(" sums")[0]))
    try:
        p = RandomAllocation(tuple(rows), tuple(items), tuple(map(tuple, entries)))
    except (TypeError, ValueError) as exc:
        assert (type(exc), str(exc)) == fault
    else:
        assert fault is None
        assert_integer_form(p.entries, *p.integer_form())


# The ex-ante checkers as the library ran them before they read the
# sparse integer form: dense rows on one lcm scale, every cell visited.
def dense_scaled_rows(p):
    scale = lcm(*(v.denominator for row in p.entries for v in row))
    rows = {
        a: {o: v.numerator * (scale // v.denominator) for o, v in zip(p.items, row)}
        for a, row in zip(p.rows, p.entries)
    }
    return rows, scale


def reference_ef(p, instance):
    rows, scale = dense_scaled_rows(p)
    item_idx = instance._index_maps()[1]
    for i in p.rows:
        values, own_scale = instance.integer_rows()[instance.agent_index(i)]
        totals = {a: sum(values[item_idx[o]] * v for o, v in row.items())
                  for a, row in rows.items()}
        for j, other in totals.items():
            if other > totals[i]:
                gap = F(other - totals[i], scale * own_scale)
                return Report("ef", False, violation={"envious": i, "envied": j, "gap": gap})
    return Report("ef", True, witness={"pairs_checked": len(p.rows) * (len(p.rows) - 1)})


def reference_sd_ef(p, prefs):
    agents = p.rows
    scaled, _ = dense_scaled_rows(p)
    for i in agents:
        tiers = prefs.tiers[i]
        prefixes = {a: tier_prefixes(tiers, scaled[a]) for a in agents}
        for j in agents:
            rel = sd_relation(prefixes[i], prefixes[j])
            if rel not in (SdRelation.DOMINATES, SdRelation.EQUIVALENT):
                return Report("sdef", False,
                              violation={"envious": i, "envied": j, "relation": rel.value})
    return Report("sdef", True, witness={"pairs_checked": len(agents) * (len(agents) - 1)})


def reference_sd_efficient(p, prefs):
    items = p.items
    index = {o: k for k, o in enumerate(items)}
    edges = {o: {} for o in items}
    for a, row in zip(p.rows, p.entries):
        rank = prefs.tier_rank(a)
        for y, amount in zip(items, row):
            if not amount:
                continue
            held = rank[y]
            for x in items:
                if x != y and rank[x] <= held:
                    backer = edges[x].get(y)
                    if backer is None or (rank[x] < held and not backer[1]):
                        edges[x][y] = (a, rank[x] < held)
    reach = [sum(1 << index[y] for y in edges[x]) for x in items]
    for k, through in enumerate(reach):
        for i, row in enumerate(reach):
            if row >> k & 1:
                reach[i] = row | through

    def reaches(u, v):
        return reach[index[u]] >> index[v] & 1

    on_cycle = [(x, y) for x in items for y, (_, strict) in edges[x].items()
                if strict and reaches(y, x)]
    if not on_cycle:
        cls = {}
        ordered = sorted(items)
        for o in ordered:
            if o not in cls:
                members = tuple(v for v in ordered if v == o or reaches(o, v) and reaches(v, o))
                cls.update(dict.fromkeys(members, members))
        condensed = {
            c: {cls[y] for x in c for y in edges[x]} - {c} for c in dict.fromkeys(cls.values())
        }
        order = _topological_order(condensed)
        witness = {"topological_order": [o for c in order for o in c]}
        if len(order) < len(items):
            witness["classes"] = [list(c) for c in order if len(c) > 1]
        return Report("sdeff", True, witness=witness)
    x, y = min(on_cycle)
    parent = {y: y}
    queue = [y]
    for u in queue:
        for v in sorted(edges[u]):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    path = [x]
    while path[-1] != y:
        path.append(parent[path[-1]])
    cycle = [x] + path[::-1]
    rows = {a: p.row(a) for a in p.rows}
    trades = [(edges[u][v][0], u, v) for u, v in zip(cycle, cycle[1:])]
    eps = min(rows[b][v] for b, _, v in trades)
    for b, u, v in trades:
        rows[b][u] += eps
        rows[b][v] -= eps
    better = RandomAllocation(p.rows, items, tuple(tuple(r.values()) for r in rows.values()))
    return Report("sdeff", False,
                  violation={"trading_cycle": cycle, "dominating_allocation": better})


@SETTINGS
@given(ex_ante_cases())
def test_ex_ante_checkers_match_dense_references(case):
    inst, p = case
    prefs = ordinal_from_utilities(inst)
    assert_integer_form(p.entries, *p.integer_form())
    for check, reference, table in [(check_ef, reference_ef, inst),
                                    (check_sd_ef, reference_sd_ef, prefs),
                                    (check_sd_efficient, reference_sd_efficient, prefs)]:
        report = check(p, table)
        assert report == reference(p, table)
        relation = "" if report.ok else report.violation.get("relation", "")
        event(f"{report.prop} {'PASS' if report.ok else 'FAIL'} {relation}".rstrip())


def fraction_tiers(inst):
    """Tiers from sorting the ``Fraction`` utilities, best first."""
    tiers = {}
    for a in inst.agents:
        row = inst.utility_row(a)
        values = sorted(set(row.values()), reverse=True)
        tiers[a] = tuple(tuple(sorted(o for o in inst.items if row[o] == v)) for v in values)
    return tiers


@SETTINGS
@given(instances())
def test_ordinal_profile_matches_fraction_sort(inst):
    assert dict(ordinal_from_utilities(inst).tiers) == fraction_tiers(inst)


@SETTINGS
@given(st.one_of(instances(), instances(max_agents=3, max_items=3)))
def test_strictified_equals_the_rebuilt_profile(inst):
    prefs = ordinal_from_utilities(inst)
    rebuilt = OrdinalProfile(prefs.agents, prefs.items, {
        a: tuple((o,) for tier in prefs.tiers[a] for o in sorted(tier)) for a in prefs.agents})
    strict = prefs.strictified()
    event("strict already" if strict is prefs else "ties broken")
    assert strict == rebuilt
    assert strict.strictified() is strict
    assert (strict is prefs) == (prefs == rebuilt)


# The ex-post checkers as the library ran them before the balanced-rounds
# test decided PASS for the EF1 family: every pair decided afresh, per
# allocation.
def reference_bundles(allocation):
    bundles = {a: [] for a in allocation.agents}
    for o, owner in zip(allocation.items, allocation.owners):
        bundles[owner].append(o)
    return bundles


def reference_scores(allocation, instance):
    rows = instance.integer_rows()
    item_idx = instance._index_maps()[1]
    cells = [(item_idx[o], owner) for o, owner in zip(allocation.items, allocation.owners)]
    score = {}
    for i in allocation.agents:
        values = rows[instance.agent_index(i)][0]
        totals = score[i] = dict.fromkeys(allocation.agents, 0)
        for c, owner in cells:
            totals[owner] += values[c]
    return score


def reference_efk(allocation, instance, k):
    rows = instance.integer_rows()
    item_idx = instance._index_maps()[1]
    score = reference_scores(allocation, instance)
    bundles = reference_bundles(allocation)
    for i in allocation.agents:
        values, scale = rows[instance.agent_index(i)]
        own = score[i][i]
        for j in allocation.agents:
            if i == j or own >= score[i][j]:
                continue
            chosen = sorted(bundles[j], key=lambda o: (-values[item_idx[o]], o))[:k]
            left = score[i][j] - sum(values[item_idx[o]] for o in chosen)
            if own < left:
                return Report(f"ef{k}", False, violation={
                    "envious": i, "envied": j, "best_removal": chosen,
                    "gap": F(left - own, scale)})
    return Report(f"ef{k}", True, witness={"k": k, "removal": "both"})


def reference_sd_ef1(allocation, prefs):
    bundles = reference_bundles(allocation)
    witness = {}
    for i in allocation.agents:
        rank = prefs.tier_rank(i)
        ranks = {a: sorted(map(rank.__getitem__, bundle)) for a, bundle in bundles.items()}
        own = ranks.pop(i)
        for j, other in ranks.items():
            if len(own) >= len(other) and all(map(le, own, other)):
                continue
            if len(own) + 1 >= len(other) and all(map(le, own, other[1:])):
                witness[f"{i}->{j}"] = min(bundles[j], key=lambda o: (rank[o], o))
                continue
            return Report("sdef1", False, violation={"envious": i, "envied": j})
    return Report("sdef1", True, witness={"removals": witness})


def reference_strong_ef1(allocation, instance):
    rows = instance.integer_rows()
    item_idx = instance._index_maps()[1]
    score = reference_scores(allocation, instance)
    witness = {}
    for i, bundle in reference_bundles(allocation).items():
        enviers = [j for j in allocation.agents if j != i and score[j][j] < score[j][i]]
        if not enviers:
            continue
        found = next((o for o in bundle if all(
            score[j][j] >= score[j][i] - rows[instance.agent_index(j)][0][item_idx[o]]
            for j in enviers)), None)
        if found is None:
            return Report("strong-ef1", False, violation={"envied": i, "enviers": enviers})
        witness[i] = found
    return Report("strong-ef1", True, witness={"common_removals": witness})


def reference_rb(allocation, prefs, c):
    agents = allocation.agents
    sizes = {a: len(allocation.bundle(a)) for a in agents}
    if any(size not in (c, c - 1) for size in sizes.values()):
        return Report("rb", False, violation={
            "reason": "bundle sizes incompatible with balanced rounds", "sizes": sizes})
    ranks = {a: prefs.tier_rank(a) for a in agents}
    ordered = {a: sorted(bundle, key=lambda o: (ranks[a][o], o))
               for a, bundle in reference_bundles(allocation).items()}
    sequence, picks = [], []
    for r in range(c):
        participants = [a for a in agents if sizes[a] > r]
        later = [ordered[a][r2] for a in agents for r2 in range(r + 1, sizes[a])]
        for a in participants:
            mine = ranks[a][ordered[a][r]]
            for z in later:
                if ranks[a][z] < mine:
                    return Report("rb", False, violation={
                        "agent": a, "round": r + 1, "own_item": ordered[a][r],
                        "preferred_later_item": z})
        succ = {a: [] for a in participants}
        for i in participants:
            mine = ranks[i][ordered[i][r]]
            for j in participants:
                if ranks[i][ordered[j][r]] < mine:
                    succ[j].append(i)
        order = _topological_order(succ)
        if len(order) != len(participants):
            cycle = sorted(set(participants) - set(order))
            return Report("rb", False, violation={"round": r + 1, "trading_cycle_agents": cycle})
        sequence.extend(order)
        picks.extend(ordered[a][r] for a in order)
    return Report("rb", True, witness={"sequence": sequence, "picks": picks})


def reference_rounds(allocation, prefs):
    """c = ceil(m / n) if every bundle has c or c - 1 items and no agent
    ranks an item held in a later round strictly above its own item of
    that round (bundles best first, ties broken by item id); else None."""
    c = -(-len(allocation.items) // len(allocation.agents))
    bundles = reference_bundles(allocation)
    if any(len(bundle) not in (c, c - 1) for bundle in bundles.values()):
        return None
    ranks = {a: prefs.tier_rank(a) for a in allocation.agents}
    ordered = [sorted(bundle, key=lambda o: (ranks[a][o], o)) for a, bundle in bundles.items()]
    for a, own in zip(bundles, ordered):
        for r, mine in enumerate(own):
            if any(ranks[a][z] < ranks[a][mine] for other in ordered for z in other[r + 1:]):
                return None
    return c


def by_rounds(prop, reference):
    """``reference``, except that an allocation that passes the
    balanced-rounds test gets the rule witness, once ``reference`` has
    passed it too."""
    def decide(allocation, instance, prefs, c):
        report = reference(allocation, instance, prefs, c)
        rounds = reference_rounds(allocation, prefs)
        if rounds is not None:
            assert report.ok, (prop, allocation)
            return Report(prop, True, witness={"balanced_rounds": rounds})
        return report
    return decide


# name -> (checker, reference), both called as (allocation, instance, prefs, c)
EX_POST = {
    **{f"ef{k}": (lambda a, inst, prefs, c, k=k: check_efk(a, inst, k),
                  lambda a, inst, prefs, c, k=k: reference_efk(a, inst, k))
       for k in (0, 1, 2)},
    "sdef1": (lambda a, inst, prefs, c: check_sd_ef1(a, prefs),
              by_rounds("sdef1", lambda a, inst, prefs, c: reference_sd_ef1(a, prefs))),
    "strong-ef1": (lambda a, inst, prefs, c: check_strong_ef1(a, inst),
                   by_rounds("strong-ef1",
                             lambda a, inst, prefs, c: reference_strong_ef1(a, inst))),
    "rb": (lambda a, inst, prefs, c: check_rb(a, prefs, c),
           lambda a, inst, prefs, c: reference_rb(a, prefs, c)),
}


@st.composite
def supports(draw):
    """A utility table (tied levels 0-3, or binary, zeros included) and a
    support of up to 8 allocations drawn from up to 4 distinct ones, so
    allocations repeat and bundles are empty, single or multi-item.  Each
    distinct allocation moves one or two items of an earlier one, so a
    bundle recurs beside different bundles.  The allocations list the
    agents in an order of their own."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    agents = [f"a{i}" for i in range(1, n + 1)]
    items = [f"o{j}" for j in range(1, m + 1)]
    level = st.integers(0, draw(st.sampled_from([1, 3])))
    table = {a: {o: draw(level) for o in items} for a in agents}
    order = tuple(draw(st.permutations(agents)))
    distinct = [tuple(draw(st.lists(st.sampled_from(agents), min_size=m, max_size=m)))]
    for _ in range(draw(st.integers(0, 3))):
        owners = list(draw(st.sampled_from(distinct)))
        for j in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2)):
            owners[j] = draw(st.sampled_from(agents))
        distinct.append(tuple(owners))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    return table, [DeterministicAllocation(order, tuple(items), p) for p in picks]


def profiled(table):
    inst = Instance.from_utilities(table)
    return inst, ordinal_from_utilities(inst)


@SETTINGS
@given(supports())
def test_cached_checkers_match_fresh_objects_and_the_reference(case):
    # One warm instance and profile serve every property and allocation.
    table, support = case
    c = -(-len(support[0].items) // len(support[0].agents))
    expected = [{name: reference(a, *profiled(table), c)
                 for name, (_, reference) in EX_POST.items()} for a in support]
    fresh = [{name: check(a, *profiled(table), c) for name, (check, _) in EX_POST.items()}
             for a in support]
    assert fresh == expected
    for order in (1, -1):
        warm = profiled(table)
        got = [{name: check(a, *warm, c) for name, (check, _) in EX_POST.items()}
               for a in support[::order]]
        assert got == expected[::order]


def test_caches_stay_with_their_instance():
    # Same ids, different utilities: each instance's verdicts are its own.
    items = ["a", "b", "c"]
    tables = [{"1": {"a": 3, "b": 0, "c": 0}, "2": {"a": 1, "b": 1, "c": 1}},
              {"1": {"a": 0, "b": 0, "c": 3}, "2": {"a": 1, "b": 1, "c": 1}}]
    support = [DeterministicAllocation(("1", "2"), tuple(items), owners)
               for owners in (("2", "2", "1"), ("1", "2", "2"))]
    for name, (check, reference) in EX_POST.items():
        reports = []
        for table in tables + tables[::-1]:
            warm = profiled(table)
            reports.append([check(a, *warm, 2) for a in support])
            assert reports[-1] == [reference(a, *profiled(table), 2) for a in support], name
        assert reports[:2] == reports[:1:-1], name
    assert [check_efk(a, *profiled(t)[:1], 0).ok for t in tables for a in support] == [
        False, True, True, False]


@st.composite
def picked(draw):
    """An instance (fractional utilities, zeros and ties, n <= 5, m <= 10)
    and an allocation built by picking: each agent of the sequence takes
    a best remaining item, the smallest id among equals or any of them.
    Half the sequences are rounds that each hold every agent once, which
    pass the balanced-rounds test; the other half, and one item moved
    after the picking, make late items and unbalanced sizes.  The
    allocation lists the agents in an order of its own."""
    inst = draw(instances(max_agents=5, max_items=10))
    prefs = ordinal_from_utilities(inst)
    agents, m = inst.agents, inst.m
    if draw(st.booleans()):
        rounds = [draw(st.permutations(agents)) for _ in range(-(-m // inst.n))]
        sequence = [a for turn in rounds for a in turn][:m]
    else:
        sequence = draw(st.lists(st.sampled_from(agents), min_size=m, max_size=m))
    left, owners = list(inst.items), {}
    for a in sequence:
        rank = prefs.tier_rank(a)
        best = min(map(rank.__getitem__, left))
        o = draw(st.sampled_from([o for o in left if rank[o] == best]))
        left.remove(o)
        owners[o] = a
    for o, a in draw(st.lists(st.tuples(st.sampled_from(inst.items), st.sampled_from(agents)),
                              max_size=1)):
        owners[o] = a
    order = tuple(draw(st.permutations(agents)))
    return inst, DeterministicAllocation(order, inst.items, tuple(map(owners.get, inst.items)))


@SETTINGS
@given(picked())
def test_round_test_decides_the_ef1_family(case):
    # A PASS by rounds is a PASS of each pairwise reference; without one,
    # every checker's whole report is its reference's.
    inst, alloc = case
    prefs = ordinal_from_utilities(inst)
    c = reference_rounds(alloc, prefs)
    event("pairwise search" if c is None else f"balanced rounds, c {'= 1' if c < 2 else '>= 2'}")
    reports = {"ef1": check_efk(alloc, inst, 1), "ef2": check_efk(alloc, inst, 2),
               "sdef1": check_sd_ef1(alloc, prefs), "strong-ef1": check_strong_ef1(alloc, inst)}
    references = {"ef1": reference_efk(alloc, inst, 1), "ef2": reference_efk(alloc, inst, 2),
                  "sdef1": reference_sd_ef1(alloc, prefs),
                  "strong-ef1": reference_strong_ef1(alloc, inst)}
    if c is None:
        assert reports == references
    else:
        assert all(report.ok for report in references.values())
        assert reports["ef1"] == references["ef1"] and reports["ef2"] == references["ef2"]
        assert reports["sdef1"].witness == reports["strong-ef1"].witness == {
            "balanced_rounds": c}
    replay_sd_ef1(inst, alloc, reports["sdef1"])
    replay_strong_ef1(inst, alloc, reports["strong-ef1"])


# The eating-step duration as the library computed it before each
# Dinkelbach round moved onto one integer scale: every capacity a
# ``Fraction`` (here each item's unit), and the round count returned
# beside the result.
def reference_max_eating_duration(eaters, eligible, demand):
    items = sorted({o for e in eaters for o in eligible[e]})
    cap = {o: F(1) for o in items}
    eater_node = {e: 2 + i for i, e in enumerate(eaters)}
    item_node = {o: 2 + len(eaters) + j for j, o in enumerate(items)}
    big = sum(cap.values()) + sum(demand[e] for e in eaters) + 1

    def build(duration):
        net = _Flow(2 + len(eaters) + len(items))
        want = F(0)
        for e in eaters:
            d = demand[e] + duration
            want += d
            net.add(0, eater_node[e], d)
        for e in eaters:
            for o in sorted(eligible[e]):
                net.add(eater_node[e], item_node[o], big)
        for o in items:
            net.add(item_node[o], 1, cap[o])
        return net, want

    total_fixed = sum(demand[e] for e in eaters)
    full_cap = sum(cap.values())
    if full_cap < total_fixed:
        raise ValueError("prior demands already exceed the available capacity")
    delta = F(full_cap - total_fixed, len(eaters))
    rounds = 0
    while True:
        rounds += 1
        net, want = build(delta)
        if net.maxflow(0, 1) == want:
            break
        violator = [e for e in eaters if net.reached[eater_node[e]]]
        vio_cap = sum(cap[o] for o in sorted({o for e in violator for o in eligible[e]}))
        vio_fixed = sum(demand[e] for e in violator)
        new_delta = F(vio_cap - vio_fixed, len(violator))
        if new_delta < 0:
            raise ValueError("prior demands are infeasible")
        assert new_delta < delta
        delta = new_delta

    blocked = net.cannot_reach(1)
    tight = [e for e in eaters if eater_node[e] in blocked]
    tight_items = sorted({o for e in tight for o in eligible[e]})
    flows = {e: {} for e in eaters}
    for e in eaters:
        for edge in net.adj[eater_node[e]]:
            if edge % 2 == 0 and net.to[edge] != 0 and net.flow_on(edge) > 0:
                flows[e][items[net.to[edge] - 2 - len(eaters)]] = net.flow_on(edge)
    for o in tight_items:
        assert sum(flows[e].get(o, F(0)) for e in tight) == cap[o]
    return (delta, tuple(sorted(tight, key=str)), tuple(tight_items), flows), rounds


@st.composite
def eating_groups(draw):
    """Eaters over shared unit items, with prior demands: some draws give
    every eater one item, and some demands are infeasible."""
    items = [f"o{j}" for j in range(draw(st.integers(2, 9)))]
    eaters = tuple(f"e{i}" for i in range(draw(st.integers(1, 9))))
    pick = st.sets(st.sampled_from(items), min_size=1, max_size=3).map(sorted)
    eligible = {e: draw(pick) for e in eaters}
    demand = {e: draw(utilities) / draw(st.sampled_from([2, 8, 24])) if draw(st.booleans())
              else F(0) for e in eaters}
    return eaters, eligible, demand


@SETTINGS
@given(eating_groups())
def test_integer_duration_matches_fraction_reference(group):
    try:
        expected, rounds = reference_max_eating_duration(*group)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            max_eating_duration(*group)
        assert str(raised.value) == str(exc)
        event(f"ValueError: {exc}")
        return
    event(f"{rounds} Dinkelbach rounds")
    target(rounds)
    got = max_eating_duration(*group)
    assert got == expected
    duration, _, _, flow = got
    assert type(duration) is F
    assert all(type(v) is F for row in flow.values() for v in row.values())


# The serial eating rule as the library ran it before each agent's share
# became one interval: every stage regroups all agents and adds one
# ``Fraction`` per agent, merging adjacent trace segments.
def stage_loop_ps_outcome(agents, items, strict_prefs):
    orders = {a: [o for (o,) in strict_prefs.tiers[a]] for a in agents}
    remaining = set(items)
    eaten = {o: F(0) for o in items}
    shares = {a: {} for a in agents}
    segments = {a: [] for a in agents}
    cursor = {a: 0 for a in agents}
    time = F(0)
    while remaining:
        eaters = {}
        for a in agents:
            order = orders[a]
            k = cursor[a]
            while order[k] not in remaining:
                k += 1
            cursor[a] = k
            eaters.setdefault(order[k], []).append(a)
        finish_of = {
            item: time + (1 - eaten[item]) / len(group) for item, group in eaters.items()
        }
        finish = min(finish_of.values())
        span = finish - time
        for item, group in eaters.items():
            for a in group:
                shares[a][item] = shares[a].get(item, F(0)) + span
                segs = segments[a]
                if segs and segs[-1].item == item and segs[-1].end == time:
                    segs[-1] = TraceSegment(item, segs[-1].start, finish, segs[-1].amount + span)
                else:
                    segs.append(TraceSegment(item, time, finish, span))
            eaten[item] += span * len(group)
        for item in [item for item, t in finish_of.items() if t == finish]:
            assert eaten[item] == 1
            remaining.discard(item)
        time = finish
    entries = tuple(tuple(shares[a].get(o, F(0)) for o in items) for a in agents)
    trace = EatingTrace(agents, items, {a: tuple(segments[a]) for a in agents},
                        F(len(items), len(agents)))
    return RandomAllocation(agents, items, entries), trace


@st.composite
def strict_profiles(draw, max_agents=10, max_items=25):
    """Strict orders up to 10x25; agents drawing the same order eat the
    same items side by side, so groups share items and finish together."""
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(1, max_items))
    agents = tuple(f"a{i}" for i in range(1, n + 1))
    items = tuple(f"o{j:02d}" for j in range(1, m + 1))
    orders = draw(st.lists(st.permutations(items), min_size=1, max_size=n))
    tiers = {a: tuple((o,) for o in draw(st.sampled_from(orders))) for a in agents}
    return OrdinalProfile(agents, items, tiers)


@SETTINGS
@given(strict_profiles())
def test_ps_outcome_matches_stage_loop(prefs):
    outcome, trace = ps_outcome(prefs.agents, prefs.items, prefs)
    assert (outcome, trace) == stage_loop_ps_outcome(prefs.agents, prefs.items, prefs)
    for segs in trace.segments.values():
        assert len({seg.item for seg in segs}) == len(segs)


# The serial eating rule as its own loop, before ``ps_outcome`` became the
# one-item case of the eating loop in ``fairlot.eps``: each item being
# eaten has a group whose eaten mass is exact as of ``since``, and the
# item's finishing time is recomputed when agents join it.
def reference_ps_outcome(agents, items, strict_prefs):
    agents = tuple(agents)
    items = tuple(items)
    if set(strict_prefs.items) != set(items):
        raise ValueError("the preference profile ranks other items than the ones to eat")
    orders = {a: [o for (o,) in strict_prefs.tiers[a]] for a in agents}

    remaining = set(items)
    shares = {a: {} for a in agents}
    segments = {a: [] for a in agents}
    groups, start, mass, since, finish_of = {}, {}, {}, {}, {}
    cursor = {a: 0 for a in agents}

    def sit(movers, time):
        joined = {}
        for a in movers:
            order = orders[a]
            k = cursor[a]
            while order[k] not in remaining:
                k += 1
            cursor[a] = k
            item = order[k]
            if item not in joined:
                if item in groups:
                    mass[item] += (time - since[item]) * len(groups[item])
                else:
                    groups[item], mass[item] = [], F(0)
                since[item] = time
                joined[item] = groups[item]
            joined[item].append(a)
            start[a] = time
        for item, group in joined.items():
            finish_of[item] = time + (1 - mass[item]) / len(group)

    sit(list(agents), F(0))
    while remaining:
        finish = min(finish_of.values())
        finishing = [item for item, t in finish_of.items() if t == finish]
        movers = []
        for item in finishing:
            group = groups.pop(item)
            eaten = mass.pop(item) + (finish - since.pop(item)) * len(group)
            assert eaten == 1
            del finish_of[item]
            remaining.discard(item)
            for a in group:
                share = finish - start[a]
                shares[a][item] = share
                segments[a].append(TraceSegment(item, start[a], finish, share))
            movers += group
        if remaining:
            sit(movers, finish)

    entries = tuple(tuple(shares[a].get(o, F(0)) for o in items) for a in agents)
    trace = EatingTrace(agents, items, {a: tuple(segments[a]) for a in agents},
                        F(len(items), len(agents)))
    return RandomAllocation(agents, items, entries), trace


def ranked_instance(prefs):
    """The instance whose utilities rank the items as the strict ``prefs``."""
    m = len(prefs.items)
    return Instance.from_utilities(
        {a: {o: m - k for k, (o,) in enumerate(prefs.tiers[a])} for a in prefs.agents},
        agents=prefs.agents, items=prefs.items)


def same_order(n, m):
    """n agents on one order of m items: one group eats every item."""
    items = tuple(f"o{j:02d}" for j in range(1, m + 1))
    return OrdinalProfile(tuple(f"a{i}" for i in range(1, n + 1)), items,
                          {f"a{i}": tuple((o,) for o in items[::-1]) for i in range(1, n + 1)})


@settings(SETTINGS, max_examples=60)
@given(strict_profiles(max_agents=30, max_items=90))
@example(same_order(30, 89))
@example(same_order(7, 30))
def test_eating_loop_matches_serial_reference(prefs):
    expected = reference_ps_outcome(prefs.agents, prefs.items, prefs)
    event(f"n divides m: {len(prefs.items) % len(prefs.agents) == 0}")
    target(len(prefs.agents) / len(set(prefs.tiers.values())))
    assert ps_outcome(prefs.agents, prefs.items, prefs) == expected
    assert eps_outcome(ranked_instance(prefs)) == expected


def test_eating_loop_matches_serial_reference_at_150():
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["gen", "--agents", "150", "--items", "150", "--seed", "7"]) == 0
    inst = instance_from_obj(json.loads(buffer.getvalue()))
    prefs = ordinal_from_utilities(inst)
    expected = reference_ps_outcome(inst.agents, inst.items, prefs)
    assert ps_outcome(inst.agents, inst.items, prefs) == expected
    assert eps_outcome(inst) == expected


# ``rational`` as the library read literals before its ASCII-digit fast
# path: every string through the grammar.
REFERENCE_LITERAL = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)
    (?:/(?P<den>\d+(?:_\d+)*)
    |(?:\.(?P<dec>\d*|\d+(?:_\d+)*))?(?:E(?P<exp>[-+]?\d+(?:_\d+)*))?)
    \s*\Z
""", re.VERBOSE | re.IGNORECASE)


def reference_integer(digits):
    digits = digits.replace("_", "")
    if len(digits) <= 600:
        return int(digits or "0")
    half = len(digits) // 2
    return reference_integer(digits[:-half]) * 10 ** half + reference_integer(digits[-half:])


def reference_rational(value):
    if not isinstance(value, str):
        if isinstance(value, F):
            return value
        if isinstance(value, bool):
            raise TypeError("booleans are not rationals")
        if isinstance(value, int):
            return F(value)
        raise TypeError(f"cannot interpret a {type(value).__name__} as an exact rational")
    if len(value) > 2 * 8600 + 2:
        raise ValueError(f"longer than {2 * 8600 + 2} characters")
    match = REFERENCE_LITERAL.match(value)
    if match is None:
        raise ValueError("not a rational literal")
    num = reference_integer(match["num"])
    den = reference_integer(match["den"]) if match["den"] else 1
    if match["dec"]:
        decimals = match["dec"].replace("_", "")
        num = num * 10 ** len(decimals) + reference_integer(decimals)
        den = den * 10 ** len(decimals)
    if match["exp"]:
        digits = match["exp"].lstrip("+-").replace("_", "").lstrip("0") or "0"
        if len(digits) > len(str(4300)) or int(digits) > 4300:
            raise ValueError("exponent beyond 4300 in magnitude")
        if match["exp"].startswith("-"):
            den *= 10 ** int(digits)
        else:
            num *= 10 ** int(digits)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if num >= 10 ** 8600 or den >= 10 ** 8600:
        raise ValueError("more than 8600 digits in its numerator or denominator")
    return F(-num if match["sign"] == "-" else num, den)


def outcome(function, value):
    try:
        return function(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


LITERALS = [
    "007", "12/8", "-3/6", "+7", " 7", "7 ", "1_000", "²", "١٢", "3/0", "0/00", "0/1",
    "/3", "3/", "1/2/3", "", "0", "1.5", "1e3", "٣/٤", "12/٠", "9" * 600, "9" * 601,
    "1" * 300 + "/" + "3" * 299, "1" * 300 + "/" + "3" * 300, "0" * 599 + "/", "9" * 650,
    "1" * 320 + "/" + "3" * 320, "1" * 4400,
]


@pytest.mark.parametrize("literal", LITERALS, ids=range(len(LITERALS)))
@pytest.mark.parametrize("int_digits", [None, 640], ids=["default", "lowest-int-limit"])
def test_rational_matches_grammar_reference_on_edge_literals(literal, int_digits):
    # 640 is the lowest digit limit Python lets int() be given.
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(int_digits or default)
    try:
        assert outcome(rational, literal) == outcome(reference_rational, literal)
    finally:
        sys.set_int_max_str_digits(default)


@SETTINGS
@given(st.one_of(
    st.text(alphabet="0123456789/+-_ .e²١٣", max_size=12),
    st.builds("{}/{}".format, st.integers(0, 10 ** 30), st.integers(0, 10 ** 30)),
    st.builds(lambda n, k: str(n).zfill(k), st.integers(0), st.integers(590, 610)),
    st.text(max_size=8),
))
def test_rational_matches_grammar_reference(literal):
    got, want = outcome(rational, literal), outcome(reference_rational, literal)
    assert got == want
    if isinstance(want, F):
        assert type(got) is F


def per_cell_matrix(obj):
    """``matrix_from_obj`` on a document with rows, items and a list of
    lists, as it read entries before converting each distinct literal
    once: ``rational`` on every cell, the first bad one named."""
    cells = []
    for i, row in enumerate(obj["entries"]):
        converted = []
        for j, v in enumerate(row):
            try:
                converted.append(rational(v))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                text = repr(v)
                shown = text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"
                raise FormatError(
                    f"matrix.entries[{i}][{j}]: bad rational literal {shown} ({exc})") from None
        cells.append(tuple(converted))
    try:
        return RandomAllocation(tuple(obj["rows"]), tuple(obj["items"]), tuple(cells))
    except ValueError as exc:
        raise FormatError(f"matrix: {exc}") from None


BAD_CELLS = st.one_of(
    # Equal as dict keys to the ints 1 and 0, which are good cells.
    st.sampled_from([True, False, 1.0, 0.0]),
    st.sampled_from([
        "x", "1/0", "0/0", "3/00", "", " ", "1/2/3", "-1/2", "2", "1" * 45, None, [], ["0"],
        {"0": "1"}, -1,
    ]),
    st.text(alphabet="0123456789/-x", max_size=5),
)


@st.composite
def matrix_documents(draw):
    """Column-stochastic matrices whose cells repeat a few literals, each
    written in one of several equal forms ("1/2", "2/4"; 1 or "1"), some
    cells then replaced by malformed, zero-denominator, out-of-range or
    non-string values."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    columns = []
    for _ in range(m):
        q = draw(st.integers(1, 4))
        cuts = sorted(draw(st.lists(st.integers(0, q), min_size=n - 1, max_size=n - 1)))
        columns.append([F(b - a, q) for a, b in zip([0, *cuts], [*cuts, q])])
    entries = []
    for i in range(n):
        row = []
        for column in columns:
            x, k = column[i], draw(st.integers(1, 3))
            forms = [format_rational(x), f"{x.numerator * k}/{x.denominator * k}"]
            if x.denominator == 1:
                forms += [x.numerator] * 2
            row.append(draw(st.sampled_from(forms)))
        entries.append(row)
    for _ in range(draw(st.integers(0, 3))):
        entries[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(BAD_CELLS)
    return {"rows": [f"a{i}" for i in range(n)], "items": [f"o{j}" for j in range(m)],
            "entries": entries}


@SETTINGS
@given(matrix_documents())
@example({"rows": ["a0"], "items": ["o0", "o1", "o2"], "entries": [[1, True, 1.0]]})
@example({"rows": ["a0", "a1"], "items": ["o0"], "entries": [[0], [False]]})
def test_matrix_reader_matches_per_cell_conversion(obj):
    def read(reader):
        try:
            matrix = reader(obj)
        except Exception as exc:  # the type is part of the outcome
            return type(exc), str(exc)
        return matrix.rows, matrix.items, matrix.entries

    got, want = read(matrix_from_obj), read(per_cell_matrix)
    if isinstance(want[0], tuple):
        event("read")
    else:
        event("bad cell" if "bad rational literal" in want[1] else "bad matrix")
    assert got == want


def per_cell_instance(obj):
    """The instance reader converting cell by cell, in list order."""
    agents, items = obj["agents"], obj["items"]
    rows = []
    for a in agents:
        converted = []
        for o in items:
            v = obj["utilities"][a][o]
            try:
                converted.append(rational(v))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                text = repr(v)
                shown = text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"
                raise FormatError(f"instance.utilities[{a!r}][{o!r}]: "
                                  f"bad rational literal {shown} ({exc})") from None
        rows.append(tuple(converted))
    try:
        return Instance(tuple(agents), tuple(items), tuple(rows))
    except ValueError as exc:
        raise FormatError(f"instance: {exc}") from None


@st.composite
def instance_documents(draw):
    """Utility tables whose cells repeat a few literals, strings or
    numbers; then one bad cell value, good as a dict key or not, placed at
    up to three cells.  The mappings list agents and items in another
    order than the lists do, so "first" means first in the lists."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    agents, items = [f"a{i}" for i in range(n)], [f"o{j}" for j in range(m)]
    pool = draw(st.lists(st.one_of(
        st.sampled_from(["0", "1", "1/2", "2/4", "3", "7/3", "0.5", "1e1"]),
        st.integers(0, 3)), min_size=1, max_size=4))
    cells = {(a, o): draw(st.sampled_from(pool)) for a in agents for o in items}
    bad = draw(BAD_CELLS)
    for _ in range(draw(st.integers(0, 3))):
        cells[draw(st.sampled_from(agents)), draw(st.sampled_from(items))] = bad
    utilities = {a: {o: cells[a, o] for o in draw(st.permutations(items))}
                 for a in draw(st.permutations(agents))}
    return {"agents": agents, "items": items, "utilities": utilities}


@SETTINGS
@given(instance_documents())
@example({"agents": ["a0", "a1"], "items": ["o0", "o1"],
          "utilities": {"a1": {"o1": "x", "o0": "x"}, "a0": {"o1": "x", "o0": "1"}}})
@example({"agents": ["a0"], "items": ["o0", "o1"], "utilities": {"a0": {"o0": "1", "o1": 1.0}}})
def test_instance_reader_matches_per_cell_conversion(obj):
    def read(reader):
        try:
            return reader(obj)
        except Exception as exc:  # the type is part of the outcome
            return type(exc), str(exc)

    got, want = read(instance_from_obj), read(per_cell_instance)
    if isinstance(want, Instance):
        event("read, all strings" if all(
            type(v) is str for row in obj["utilities"].values() for v in row.values())
            else "read, mixed cells")
    else:
        event("bad cell" if "bad rational literal" in want[1] else "bad instance")
    assert got == want


def json_strings():
    """Any text, with escapes json must write: control characters,
    quotes, backslashes, line separators and lone surrogates."""
    special = st.sampled_from(["\x00", "\x1f", "\x7f", '"', "\\", " ", "\ud800", "é", "😀"])
    return st.lists(st.one_of(st.text(max_size=4), special), max_size=4).map("".join)


json_scalars = st.one_of(
    st.none(), st.booleans(), json_strings(),
    st.integers(), st.integers(-10 ** 400, 10 ** 400),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.lists(json_strings(), max_size=3), max_size=3),
        st.dictionaries(json_strings(), children, max_size=4),
        st.dictionaries(json_strings(), json_strings(), max_size=4),
    ),
    max_leaves=30,
)


@st.composite
def shared_key_dicts(draw):
    """A list of dicts that share one key set, each with an insertion
    order of its own, nested up to three deep: the writer lays a key set
    out once per indent and reuses it.  Keys may hold "%", which the
    laid-out text escapes."""
    keys = draw(st.lists(st.one_of(json_strings(), st.sampled_from(["%", "%s", "a%%"])),
                         min_size=1, max_size=5, unique=True))

    def one(depth):
        return {key: one(depth - 1) if depth and draw(st.booleans()) else draw(json_scalars)
                for key in draw(st.permutations(keys))}

    depth = draw(st.integers(0, 2))
    return [one(depth) for _ in range(draw(st.integers(1, 4)))]


@SETTINGS
@given(st.one_of(json_trees, shared_key_dicts()))
@example([{"%s": "a", "b": {"%s": 1, "b": "%"}}, {"b": {"b": None, "%s": "x"}, "%s": "%d"}])
def test_dumps_matches_indented_json(tree):
    assert dumps(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    1.5, F(1, 2), {"a": [0.5]}, ["x", F(3)], {"a": {1, 2}}, {1: "a"}, ("x", b"y"),
], ids=["float", "fraction", "nested-float", "fraction-in-strings", "set", "int-key", "bytes"])
def test_dumps_refuses_other_types(value):
    with pytest.raises(TypeError):
        dumps(value)


# The lottery plan as the library built it before eating moved ahead of
# padding: pad to c = ceil(m/n) first, eat the padded instance with the
# dummies ranked below every real item (in dummy order), and cut the
# dummies off the outcome.  The padded eps run is an instance whose real
# utilities are shifted up past the dummies' values, which keeps every
# real comparison and tie.  Skip-zero ate the real items and dealt dummy
# mass in one sweep over the agents.
def reference_plan(inst, rule, skip_zero):
    n, m = inst.n, inst.m
    if skip_zero:
        outcome, _ = eps_outcome(inst, mode="skip_zero")
        rows = {a: {o: v for o, v in outcome.row(a).items() if v > 0} for a in inst.agents}
        loads = {a: sum(rows[a].values(), F(0)) for a in inst.agents}
        c = max(-(-m // n), max(-(-x.numerator // x.denominator) for x in loads.values()))
        dummies = _fresh_dummy_ids(inst.items, c * n - m)
        pos, offset = 0, F(0)
        for a in inst.agents:
            need = c - loads[a]
            while need > 0:
                bite = min(need, 1 - offset)
                rows[a][dummies[pos]] = rows[a].get(dummies[pos], F(0)) + bite
                need -= bite
                offset += bite
                if offset == 1:
                    offset, pos = F(0), pos + 1
        return outcome, c, dummies, rows
    c = -(-m // n)
    dummies = _fresh_dummy_ids(inst.items, c * n - m)
    items = inst.items + dummies
    if rule == "ps":
        tiers = ordinal_from_utilities(inst).tiers
        padded = OrdinalProfile(inst.agents, items, {
            a: tiers[a] + tuple((d,) for d in dummies) for a in inst.agents})
        outcome, _ = ps_outcome(inst.agents, items, padded.strictified())
    else:
        lift = len(dummies) + 1
        outcome, _ = eps_outcome(Instance.from_utilities({
            a: {**{o: v + lift for o, v in inst.utility_row(a).items()},
                **{d: lift - k for k, d in enumerate(dummies, 1)}}
            for a in inst.agents}, agents=inst.agents, items=items))
    expected = RandomAllocation(inst.agents, inst.items,
                                tuple(row[:m] for row in outcome.entries))
    rows = {a: {o: v for o, v in outcome.row(a).items() if v} for a in inst.agents}
    return expected, c, dummies, rows


@st.composite
def plan_cases(draw):
    """(instance, rule, skip_zero) with n not dividing m, ties, and
    items nobody values: binary utilities for skip-zero, else utilities
    from a few levels, zero included."""
    rule, skip_zero = draw(st.sampled_from([("ps", False), ("eps", False), ("eps", True)]))
    n = draw(st.integers(2, 4))
    m = n * draw(st.integers(0, 2)) + draw(st.integers(1, n - 1))
    agents = [f"a{i}" for i in range(1, n + 1)]
    items = [f"o{j}" for j in range(1, m + 1)]
    unwanted = draw(st.sets(st.sampled_from(items), max_size=m - 1))
    levels = st.sampled_from([F(0), F(1)] if skip_zero else [F(0), F(1, 3), F(1), F(2)])
    table = {a: {o: F(0) if o in unwanted else draw(levels) for o in items} for a in agents}
    return Instance.from_utilities(table, agents=agents, items=items), rule, skip_zero


@SETTINGS
@given(plan_cases())
def test_plan_matches_pad_first_reference(case):
    inst, rule, skip_zero = case
    expected, c, dummies, rows = reference_plan(inst, rule, skip_zero)
    got = plan(inst, rule, skip_zero)
    event(f"c = {c}, {len(dummies)} dummies")
    assert got.expected == expected
    assert (got.padded.c, got.padded.dummies) == (c, dummies)
    assert {a: {o: v for o, v in row.items() if v} for a, row in got.bundles.items()} == rows


# The integer re-eat and the decomposition of its rows, against the
# Fraction loops they replaced (``fraction_re_eat``, ``fraction_birkhoff``)
# and the projection of each permutation.
def assert_re_eat_matches(planned):
    bundles, padded = planned.bundles, planned.padded
    rows, scale = _re_eat_scaled(bundles, padded)
    dense = fraction_re_eat(bundles, padded)
    assert scale == lcm(*(v.denominator for bundle in bundles.values() for v in bundle.values()))
    assert all(x > 0 for row in rows for x in row.values())
    assert [{j: F(x, scale) for j, x in row.items()} for row in rows] == [
        {j: v for j, v in enumerate(row) if v} for row in dense]
    assert re_eat(bundles, padded) == dense
    return rows, scale, dense


@SETTINGS
@given(plan_cases())
def test_integer_re_eat_matches_fraction_loop(case):
    planned = plan(*case)
    rows, scale, dense = assert_re_eat_matches(planned)
    parts = [(weight, tuple(perm), tuple(match)) for weight, perm, match in _extract(rows, scale)]
    reference = fraction_birkhoff(dense)
    assert [(weight, perm) for weight, perm, _ in parts] == reference
    for _, perm, match in parts:
        assert [match[c] for c in perm] == list(range(len(perm)))
    entries = tuple((weight, project(perm, planned.padded)) for weight, perm in reference)
    assert implement(planned) == Lottery(entries).merged()


def test_integer_re_eat_crosses_windows_at_c_4():
    # 40 agents, 150 items: c = 4 and the ps denominators are large, so
    # bites cross the windows of an agent's representatives mid-item.
    planned = plan(strict_instance(random.Random(7), 40, 150), "ps")
    assert planned.padded.c == 4
    rows, _, _ = assert_re_eat_matches(planned)
    crossing = sum(any(rows[i + w].keys() & rows[i + w + 1].keys() for w in range(3))
                   for i in range(0, len(rows), 4))  # agents with an item split across windows
    assert crossing > 20


@st.composite
def scaled_matrices(draw):
    """A bistochastic matrix and its sparse rows on a multiple of its lcm
    scale L, untouched or unbalanced one way: an entry moved to another
    row of its column (row sums break), to another column of its row
    (column sums break), or raised by one unit (both break)."""
    matrix = draw(bistochastic())
    k = len(matrix)
    scale = lcm(*(v.denominator for row in matrix for v in row)) * draw(st.integers(1, 3))
    rows = [{j: v.numerator * scale // v.denominator for j, v in enumerate(row) if v}
            for row in matrix]
    how = draw(st.sampled_from(["none", "column", "row", "unit"] if k > 1 else ["none", "unit"]))
    r = draw(st.integers(0, k - 1))
    j = draw(st.sampled_from(sorted(rows[r])))
    if how == "column":
        rows[(r + 1) % k][j] = rows[(r + 1) % k].get(j, 0) + rows[r].pop(j)
    elif how == "row":
        rows[r][(j + 1) % k] = rows[r].get((j + 1) % k, 0) + rows[r].pop(j)
    elif how == "unit":
        rows[r][j] += 1
    return matrix, rows, scale, how


@SETTINGS
@given(scaled_matrices())
def test_birkhoff_from_scaled_rows_matches_fraction_loop(case):
    matrix, rows, scale, how = case
    event(how)
    if how != "none":
        with pytest.raises(ValueError, match="^matrix is not bistochastic$"):
            next(_extract(rows, scale))
        return
    parts = [(weight, tuple(perm), tuple(match)) for weight, perm, match in _extract(rows, scale)]
    assert [(weight, perm) for weight, perm, _ in parts] == fraction_birkhoff(matrix)
    for _, perm, match in parts:
        assert [match[c] for c in perm] == list(range(len(perm)))


# The first fault the constructors name, as their cell-by-cell checks
# named it: row by row for an instance (a row's types before its signs),
# agent by agent and tier by tier for a profile.
def per_cell_instance_fault(items, values):
    for row in values:
        if len(row) != len(items):
            return ValueError, "one utility per item required in every row"
        for v in row:
            if not isinstance(v, F):
                return TypeError, "utilities must be Fractions; use Instance.from_utilities"
        for v in row:
            if v < 0:
                return ValueError, "utilities must be nonnegative"
    return None


def per_cell_profile_fault(agents, items, tiers):
    item_set = set(items)
    for agent in agents:
        if agent not in tiers:
            return ValueError, f"no preference tiers for agent {agent!r}"
        seen = set()
        for tier in tiers[agent]:
            if not tier:
                return ValueError, "empty preference tier"
            for o in tier:
                if o in seen or o not in item_set:
                    return ValueError, f"tiers of {agent!r} do not partition the item set"
                seen.add(o)
        if seen != item_set:
            return ValueError, f"tiers of {agent!r} do not cover the item set"
    return None


def raised_by(build):
    try:
        build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_instance_names_the_first_fault_as_cell_checks_do(n, m, data):
    cells = {"ok": utilities, "sign": st.builds(F, st.integers(-3, -1), st.integers(1, 4)),
             "type": st.sampled_from([1, 0.5, "1", True])}
    kinds = st.sampled_from(["ok"] * 6 + ["sign", "type"])
    values = tuple(tuple(data.draw(cells[data.draw(kinds)]) for _ in range(m)) for _ in range(n))
    if data.draw(st.booleans()):
        values = values[:-1] + (values[-1][:-1],)
    agents = tuple(f"a{i}" for i in range(n))
    items = tuple(f"o{j}" for j in range(m))
    fault = per_cell_instance_fault(items, values)
    event(str(fault and fault[1]))
    assert raised_by(lambda: Instance(agents, items, values)) == fault


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_profile_names_the_first_fault_as_cell_checks_do(n, m, data):
    agents = tuple(f"a{i}" for i in range(n))
    items = tuple(f"o{j}" for j in range(m))
    tiers = {}
    for agent in agents:
        if data.draw(st.integers(0, 9)) == 0:
            continue  # no tiers at all
        ranked = list(data.draw(st.permutations(items)))
        fault = data.draw(st.sampled_from(["none"] * 4 + ["drop", "repeat", "foreign", "empty"]))
        if fault == "drop":
            ranked.pop(data.draw(st.integers(0, m - 1)))
        elif fault == "repeat":
            ranked.insert(data.draw(st.integers(0, m)), data.draw(st.sampled_from(items)))
        elif fault == "foreign":
            ranked.insert(data.draw(st.integers(0, m)), "zz")
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(ranked) - 1)))))
        agent_tiers = [tuple(ranked[a:b]) for a, b in zip([0, *cuts], [*cuts, len(ranked)])]
        if fault == "empty":
            agent_tiers.insert(data.draw(st.integers(0, len(agent_tiers))), ())
        tiers[agent] = tuple(tier for tier in agent_tiers if tier or fault == "empty")
    fault = per_cell_profile_fault(agents, items, tiers)
    event(str(fault and fault[1].split("'")[-1]))
    assert raised_by(lambda: OrdinalProfile(agents, items, tiers)) == fault
