"""Verifiers for the fairness and efficiency notions used by the lottery
pipeline.  Every checker returns a report carrying a certificate, which
``fileio.dumps`` writes: a witness of satisfaction or a concrete
violating pair/set that re-fails when replayed in isolation.

The ex-ante checkers take a ``RandomAllocation``, the ex-post ones a
``DeterministicAllocation``.  All compare exact integers or ranks; none
solves an LP (SD-efficiency is a cycle test on a trade graph of items).
The ex-ante checkers read sparse integer rows (nonzero cells on one lcm
scale, ``RandomAllocation.integer_form``), not all n * m cells.
The ex-post checkers of the EF1 family share one balanced-rounds test:
every bundle has c or c - 1 items, and no agent ranks an item held in a
later round strictly above its own item of that round (round r holds
each bundle's r-th best item for its owner).  An allocation that passes
it passes ``efk`` for k >= 1, ``sdef1`` and ``strong-ef1`` (Aziz 2020,
arXiv 2004.02554): agent i's round-r item is at least as good, for i, as
every item of j's rounds r + 1 and later.  So i's bundle SD-dominates
j's once i's best item of it goes, and j's own best item is a common
removal.  ``rb`` runs the test first.  Only allocations that fail it are
searched pair by pair.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from .model import (
    BudgetExceeded,
    DeterministicAllocation,
    Instance,
    OrdinalProfile,
    RandomAllocation,
    _check_budget,
    _Frozen,
    ordinal_from_utilities,
)

__all__ = [
    "Report",
    "BudgetExceeded",
    "check_ef",
    "check_sd_ef",
    "check_ef1",
    "check_efk",
    "check_sd_ef1",
    "check_strong_ef1",
    "check_rb",
    "check_sd_efficient",
    "check_po_bruteforce",
    "pareto_front",
]


class Report(_Frozen):
    """Outcome of one property check.

    ``ok`` is True/False for a decided check; ``witness`` documents why it
    passed, ``violation`` why it failed.  Both are plain dict/list/str
    payloads that may hold ``Fraction``s and ``RandomAllocation``s, which
    ``fileio.dumps`` writes as rational strings and matrix documents.
    """

    _fields = ("prop", "ok", "witness", "violation")
    _defaults = (None, None)


def check_ef(p: RandomAllocation, instance: Instance) -> Report:
    """Envy-freeness: every agent values its own row at least as much as
    anyone else's.  Agent i sums its integer utilities (``integer_rows``,
    scale s) over the nonzero cells of p's integer form (scale L), so a
    scaled gap g is the utility gap g / (L * s)."""
    rows, scale = p.integer_form()
    item_idx = instance._index_maps()[1]
    columns = [item_idx[o] for o in p.items]
    for i, row_i in zip(p.rows, rows):
        values, own_scale = instance.integer_rows()[instance.agent_index(i)]
        values = [values[c] for c in columns]
        mine = sum(values[c] * x for c, x in row_i.items())
        for j, row in zip(p.rows, rows):
            other = sum(values[c] * x for c, x in row.items())
            if other > mine:
                gap = Fraction(other - mine, scale * own_scale)
                return Report("ef", False, violation={"envious": i, "envied": j, "gap": gap})
    return Report("ef", True, witness={"pairs_checked": len(p.rows) * (len(p.rows) - 1)})


def check_sd_ef(p: RandomAllocation, prefs: OrdinalProfile) -> Report:
    """Stochastic-dominance envy-freeness: own row weakly SD-dominates
    every other row, agent by agent.

    Runs on p's integer form, each nonzero cell at the envier's tier rank.
    Another row's mass on the upper contour sets rises only at the ranks
    where it has mass, and the own row's never falls, so own dominates
    other iff it holds at least as much at those ranks.  A failing pair
    is "dominated" when own holds at most as much as other on every upper
    contour set, else "incomparable": dominating and equivalent rows pass.
    """
    agents = p.rows
    rows, _ = p.integer_form()
    for i, own in zip(agents, rows):
        rank = prefs.tier_rank(i)
        ranks = [rank[o] for o in p.items]
        masses = [0] * len(prefs.tiers[i])
        for c, x in own.items():
            masses[ranks[c]] += x
        ceiling = list(itertools.accumulate(masses))
        for j, row in zip(agents, rows):
            cells = sorted(zip(map(ranks.__getitem__, row), row.values()))
            if not all(map(operator.le, itertools.accumulate(x for _, x in cells),
                           (ceiling[t] for t, _ in cells))):
                masses = [0] * len(ceiling)
                for t, x in cells:
                    masses[t] += x
                below = all(map(operator.le, ceiling, itertools.accumulate(masses)))
                rel = "dominated" if below else "incomparable"
                return Report("sdef", False,
                              violation={"envious": i, "envied": j, "relation": rel})
    return Report("sdef", True, witness={"pairs_checked": len(agents) * (len(agents) - 1)})


def _bundles(allocation: DeterministicAllocation) -> dict[str, list[str]]:
    """Every agent's bundle as an item list in item order, from one pass
    over the owners."""
    bundles: dict[str, list[str]] = {a: [] for a in allocation.agents}
    for o, owner in zip(allocation.items, allocation.owners):
        bundles[owner].append(o)
    return bundles


def _values(
    instance: Instance, agents: Iterable[str], bundles: Iterable[list[str]]
) -> list[Sequence[int]]:
    """Every agent's integer value (``integer_rows`` scales) of each of
    ``bundles``, agents in the order of ``agents``: the bundle's item
    columns summed for this allocation alone."""
    column, add = instance.integer_columns(), functools.partial(map, operator.add)
    values = [tuple(functools.reduce(add, map(column.__getitem__, bundle))) if bundle
              else (0,) * instance.n for bundle in bundles]
    if tuple(agents) != instance.agents:
        order = [instance.agent_index(a) for a in agents]
        values = [[row[t] for t in order] for row in values]
    return values


def _rounds(
    bundles: dict[str, list[str]], prefs: OrdinalProfile, c: int
) -> tuple[dict[str, list[str]], tuple[int, str] | None] | None:
    """The balanced-rounds test.  None unless every bundle has c or c - 1
    items.  Else each bundle best first for its owner (ties broken by item
    id), its r-th item the owner's round-r item, and the first late item:
    the earliest round r (from 0) at which some agent ranks an item held
    in a later round strictly above its own round-r item, as (r, the
    first such agent in ``bundles`` order), or None.

    The tiers from an agent's round-(q - 1) item down to, not with, its
    round-q item hold the items it ranks strictly above its round-q item
    but not above its earlier ones: one of them held after round q is a
    late item at round q.  So each agent's tiers are walked once, down to
    its own item of round c - 1, which no round follows, or of the
    earliest late round found so far.  At c = 1 nothing is walked.
    """
    if any(len(bundle) not in (c, c - 1) for bundle in bundles.values()):
        return None
    if c < 2:
        return bundles, None
    ordered = {}
    round_of: dict[str, int] = {}
    for a, bundle in bundles.items():
        ordered[a] = own = sorted(sorted(bundle), key=prefs.tier_rank(a).__getitem__)
        round_of.update(zip(own, range(c)))
    late = None
    stop = c - 1
    for a, own in ordered.items():
        rank, tiers = prefs.tier_rank(a), prefs.tiers[a]
        start = 0
        for q, o in enumerate(own[:stop]):
            end = rank[o]
            held = map(round_of.__getitem__, itertools.chain.from_iterable(tiers[start:end]))
            if max(held, default=q) > q:
                late, stop = (q, a), q
                break
            start = end
    return ordered, late


def _balanced_rounds(
    allocation: DeterministicAllocation, bundles: dict[str, list[str]], prefs: OrdinalProfile
) -> int | None:
    """c = ceil(m / n) if the allocation passes the balanced-rounds test
    at c, else None."""
    c = -(-len(allocation.items) // len(allocation.agents))
    rounds = _rounds(bundles, prefs, c)
    return c if rounds is not None and rounds[1] is None else None


def check_efk(allocation: DeterministicAllocation, instance: Instance, k: int) -> Report:
    """Envy-freeness up to k items: for every ordered pair some removal
    set of at most k items kills the envy.

    Items live in exactly one bundle, so the best removal drops the k
    items of the envied bundle the envier likes most, and a bundle of at
    most k items is never envied after it.  For k >= 1 a pass by
    balanced rounds needs no pair compared; otherwise each agent compares
    its own bundle with every bundle of more than k items, on its
    integer-scaled utilities.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    prop = f"ef{k}"
    bundles = _bundles(allocation)
    large = [(j, bundle) for j, bundle in bundles.items() if len(bundle) > k]
    if large and not (
            k and _balanced_rounds(allocation, bundles, ordinal_from_utilities(instance))):
        values = _values(instance, bundles, (bundle for _, bundle in large))
        agent_idx, item_idx = instance._index_maps()
        rows = instance.integer_rows()
        for s, (i, own) in enumerate(bundles.items()):
            row, scale = rows[agent_idx[i]]
            mine = sum(row[item_idx[o]] for o in own)
            envies = map(mine.__lt__, map(operator.itemgetter(s), values))
            for (j, other), theirs in itertools.compress(zip(large, values), envies):
                chosen = sorted(other, key=lambda o: (-row[item_idx[o]], o))[:k]
                left = theirs[s] - sum(row[item_idx[o]] for o in chosen)
                if mine < left:
                    return Report(prop, False, violation={
                        "envious": i, "envied": j, "best_removal": chosen,
                        "gap": Fraction(left - mine, scale)})
    return Report(prop, True, witness={"k": k, "removal": "both"})


def check_ef1(allocation: DeterministicAllocation, instance: Instance) -> Report:
    """Envy-freeness up to one item."""
    return check_efk(allocation, instance, 1)


def check_sd_ef1(allocation: DeterministicAllocation, prefs: OrdinalProfile) -> Report:
    """SD envy-freeness up to one item: own bundle SD-dominates the other
    bundle, or does so after zeroing a single item of the other bundle.

    A pass by balanced rounds has the witness ``{"balanced_rounds": c}``:
    each pair's removal is the envier's best item of the other bundle (by
    rank, then id).  Otherwise each pair is decided on the envier's sorted
    ranks of the two bundles: own SD-dominates other iff it is at least as
    large and its r-th best rank is at or above other's, for every r, and
    that best item is the best removal.  The witness names it for every
    pair that needs one.
    """
    bundles = _bundles(allocation)
    c = _balanced_rounds(allocation, bundles, prefs)
    if c is not None:
        return Report("sdef1", True, witness={"balanced_rounds": c})
    single_holder = {bundle[0]: j for j, bundle in bundles.items() if len(bundle) == 1}
    witness = {}
    for i, own in bundles.items():
        rank = prefs.tier_rank(i)
        mine = sorted(map(rank.__getitem__, own))
        # A single item goes iff i ranks it above its own best item (an
        # empty bundle ranks below every item).
        for tier in prefs.tiers[i][:mine[0] if mine else len(rank)]:
            for o in tier:
                j = single_holder.get(o)
                if j is not None:
                    witness[f"{i}->{j}"] = o
        for j, other in bundles.items():
            if j == i or len(other) < 2:
                continue
            theirs = sorted(map(rank.__getitem__, other))
            if len(mine) >= len(theirs) and all(map(operator.le, mine, theirs)):
                continue
            if len(mine) + 1 >= len(theirs) and all(map(operator.le, mine, theirs[1:])):
                witness[f"{i}->{j}"] = min(other, key=lambda o: (rank[o], o))
                continue
            return Report("sdef1", False, violation={"envious": i, "envied": j})
    return Report("sdef1", True, witness={"removals": witness})


def check_strong_ef1(allocation: DeterministicAllocation, instance: Instance) -> Report:
    """Strong EF1: for each agent i, one common item of i's bundle can be
    removed so that nobody envies i.

    A pass by balanced rounds has the witness ``{"balanced_rounds": c}``:
    i's common removal is its own best item.  Otherwise each agent values
    every bundle on its integer-scaled utilities, and each envied bundle's
    items are tried in item order.
    """
    bundles = _bundles(allocation)
    c = _balanced_rounds(allocation, bundles, ordinal_from_utilities(instance))
    if c is not None:
        return Report("strong-ef1", True, witness={"balanced_rounds": c})
    agents = list(bundles)
    values = _values(instance, agents, bundles.values())
    own = [row[s] for s, row in enumerate(values)]
    witness = {}
    for (i, bundle), theirs in zip(bundles.items(), values):
        if not bundle or not any(map(operator.lt, own, theirs)):
            continue
        drops = _values(instance, agents, ([o] for o in bundle))
        found = next((o for o, drop in zip(bundle, drops)
                      if all(map(operator.ge, own, map(operator.sub, theirs, drop)))), None)
        if found is None:
            enviers = list(itertools.compress(agents, map(operator.lt, own, theirs)))
            return Report("strong-ef1", False, violation={"envied": i, "enviers": enviers})
        witness[i] = found
    return Report("strong-ef1", True, witness={"common_removals": witness})


def check_rb(
    allocation: DeterministicAllocation, prefs: OrdinalProfile, c: int
) -> Report:
    """Decide whether the allocation is the outcome of sequential picking
    under some recursively balanced turn sequence.

    Bundle sizes must be c or c-1.  Round r pins each participant's r-th
    best owned item (bundle-internal ties broken by item id); the
    allocation is reconstructible iff it passes the balanced-rounds test
    (no agent strictly prefers a later round's item to its own round
    item), and the within-round "wants the other's item" digraph is
    acyclic (a topological order of it is a valid picking order).  A
    violation is reported at the earliest round that has one, a late
    item before a cycle.  The witness is the full picking sequence,
    replayable by greedy picks.
    """
    agents = allocation.agents
    bundles = _bundles(allocation)
    rounds = _rounds(bundles, prefs, c)
    if rounds is None:
        sizes = {a: len(bundle) for a, bundle in bundles.items()}
        return Report(
            "rb",
            False,
            violation={"reason": "bundle sizes incompatible with balanced rounds", "sizes": sizes},
        )
    ordered, late = rounds
    sequence: list[str] = []
    picks: list[str] = []
    for r in range(c if late is None else late[0]):
        participants = [a for a in agents if len(ordered[a]) > r]
        # j must pick before i when i strictly prefers j's round item.
        holder = {ordered[a][r]: a for a in participants}
        succ = {a: [] for a in participants}
        for i in participants:
            for tier in prefs.tiers[i][:prefs.tier_rank(i)[ordered[i][r]]]:
                for o in tier:
                    j = holder.get(o)
                    if j is not None:
                        succ[j].append(i)
        order = _topological_order(succ)
        if len(order) != len(participants):
            cycle = sorted(set(participants) - set(order))
            return Report(
                "rb",
                False,
                violation={"round": r + 1, "trading_cycle_agents": cycle},
            )
        sequence.extend(order)
        picks.extend(ordered[a][r] for a in order)
    if late is not None:
        r, a = late
        rank = prefs.tier_rank(a)
        mine = rank[ordered[a][r]]
        z = next(z for b in agents for z in ordered[b][r + 1:] if rank[z] < mine)
        return Report(
            "rb",
            False,
            violation={"agent": a, "round": r + 1, "own_item": ordered[a][r],
                       "preferred_later_item": z},
        )
    return Report("rb", True, witness={"sequence": sequence, "picks": picks})


def _topological_order(succ: Mapping[Any, Iterable[Any]]) -> list:
    """Kahn's algorithm that always takes the smallest available node.
    The nodes missing from the result are exactly those on a cycle or
    behind one."""
    indeg = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for v in targets:
            indeg[v] += 1
    heap = [u for u, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    return order


def check_sd_efficient(p: RandomAllocation, prefs: OrdinalProfile) -> Report:
    """SD-efficiency of a fractional allocation, ties or not.

    The trade graph on items has an edge x -> y (x != y) when an agent
    holding part of y ranks x at or above y; the edge is strict when it
    ranks x strictly above y.  p is SD-efficient iff no strict edge lies
    on a cycle.  Such a cycle is an SD-improvement: each edge's backer
    swaps epsilon of the item it holds for the one it ranks at or above,
    every item is given and received once, no backer's tier prefix sum
    falls and the strict backer's rises.  Conversely, if q SD-dominates
    p, each agent's change from p to q moves mass to weakly better items;
    summed over agents this is a circulation along reversed edges, and
    one of its cycles holds the strict step of an agent q improves.

    PASS lists the items class by class (strongly connected classes in
    smallest-first topological order, sorted within), naming the classes
    of more than one item under ``classes``.  FAIL gives the cycle
    ``[x, y, ..., x]`` through the smallest such strict edge x -> y and
    the allocation that trading along it by the smallest holding yields.
    """
    items = p.items
    index = {o: k for k, o in enumerate(items)}
    # edges[x][y] = (backing agent, whether it ranks x strictly above y)
    edges: dict[str, dict[str, tuple[Any, bool]]] = {o: {} for o in items}
    for a, row in zip(p.rows, p.integer_form()[0]):
        rank = prefs.tier_rank(a)
        for y in map(items.__getitem__, row):
            held = rank[y]
            for x in items:
                if x != y and rank[x] <= held:
                    backer = edges[x].get(y)
                    if backer is None or (rank[x] < held and not backer[1]):
                        edges[x][y] = (a, rank[x] < held)
    # reach[k] has bit j set iff items[j] is reachable from items[k]
    # (Warshall's transitive closure, one int per row).
    reach = [sum(1 << index[y] for y in edges[x]) for x in items]
    for k, through in enumerate(reach):
        for i, row in enumerate(reach):
            if row >> k & 1:
                reach[i] = row | through

    def reaches(u: str, v: str) -> int:
        return reach[index[u]] >> index[v] & 1

    on_cycle = [(x, y) for x in items for y, (_, strict) in edges[x].items()
                if strict and reaches(y, x)]
    if not on_cycle:
        cls: dict[str, tuple[str, ...]] = {}
        ordered = sorted(items)
        for o in ordered:
            if o not in cls:
                members = tuple(v for v in ordered if v == o or reaches(o, v) and reaches(v, o))
                cls.update(dict.fromkeys(members, members))
        condensed = {
            c: {cls[y] for x in c for y in edges[x]} - {c} for c in dict.fromkeys(cls.values())
        }
        order = _topological_order(condensed)
        witness: dict[str, Any] = {"topological_order": [o for c in order for o in c]}
        if len(order) < len(items):
            witness["classes"] = [list(c) for c in order if len(c) > 1]
        return Report("sdeff", True, witness=witness)

    x, y = min(on_cycle)
    parent = {y: y}
    queue = [y]
    for u in queue:  # breadth first: parent[] spans shortest paths from y
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
    return Report(
        "sdeff",
        False,
        violation={"trading_cycle": cycle, "dominating_allocation": better},
    )


def pareto_front(
    instance: Instance,
) -> tuple[list[DeterministicAllocation], set[tuple[int, ...]]]:
    """The Pareto-optimal allocations (``enumerate_allocations`` order) and
    the set of maximal utility vectors (each agent's utility in its
    ``integer_rows`` scale), once per instance; the budget is checked every
    call.

    Composed item by item, as Nemhauser and Ullmann build knapsack Pareto
    sets: giving item j to agent i adds i's value of j to coordinate i.  A
    completion of a strictly dominated partial vector is strictly dominated,
    so after each item only the maximal partial vectors are kept, each with
    every owner tuple that reaches it (so ties and zeros keep every optimum).
    """
    _check_budget(instance.n, instance.m)
    front = instance.__dict__.get("_pareto")
    if front is None:
        agents = instance.agents
        rows = [row for row, _ in instance.integer_rows()]
        reached: dict[tuple[int, ...], list[tuple[int, ...]]] = {(0,) * instance.n: [()]}
        for j in range(instance.m):
            grown: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for v, owners in reached.items():
                for i, row in enumerate(rows):
                    w = v[:i] + (v[i] + row[j],) + v[i + 1:]
                    grown.setdefault(w, []).extend(t + (i,) for t in owners)
            # Per coordinate, each vector keeps the bit set of the vectors at
            # least as large there; a maximal one ends with its own bit alone.
            vectors, above = list(grown), [-1] * len(grown)
            for coordinate in zip(*vectors):
                masks: dict[int, int] = {}
                for t, x in enumerate(coordinate):
                    masks[x] = masks.get(x, 0) | 1 << t
                bits = 0
                for x in sorted(masks, reverse=True):
                    bits = masks[x] = bits | masks[x]
                above = [a & masks[x] for a, x in zip(above, coordinate)]
            reached = {v: grown[v] for t, v in enumerate(vectors) if above[t] == 1 << t}
        ranked = sorted(t for owners in reached.values() for t in owners)
        front = instance.__dict__["_pareto"] = (
            [DeterministicAllocation(agents, instance.items, tuple(map(agents.__getitem__, t)))
             for t in ranked],
            set(reached),
        )
    return front


def check_po_bruteforce(allocation: DeterministicAllocation, instance: Instance) -> Report:
    """Pareto optimality among deterministic allocations, against the
    maximal vectors of ``pareto_front``; a violation names the first
    dominating allocation in ``enumerate_allocations`` order.

    Refuses (raises BudgetExceeded) when n^m exceeds the enumeration
    budget rather than silently sampling.
    """
    _, maximal = pareto_front(instance)
    rows = instance.integer_rows()

    def vector(owners: Iterable[int]) -> tuple[int, ...]:
        values = [0] * instance.n
        for j, i in enumerate(owners):
            values[i] += rows[i][0][j]
        return tuple(values)

    held = allocation.owner_map()
    base = vector(map(instance.agent_index, map(held.__getitem__, instance.items)))
    if base not in maximal:
        for owners in itertools.product(range(instance.n), repeat=instance.m):
            values = vector(owners)
            if values != base and all(map(operator.ge, values, base)):
                return Report(
                    "po",
                    False,
                    violation={
                        "improving_allocation": {
                            o: instance.agents[i] for o, i in zip(instance.items, owners)},
                        "utilities": {
                            a: Fraction(v, scale)
                            for a, v, (_, scale) in zip(instance.agents, values, rows)
                        },
                    },
                )
    return Report("po", True, witness={"searched": len(instance.agents) ** len(instance.items)})
